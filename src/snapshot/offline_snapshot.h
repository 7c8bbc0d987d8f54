// The in-memory value an offline snapshot persists: exactly what the
// run-time phase reads (paper §4) — the scored correspondences the
// reconciler thresholds at θ, the LR model and scaler that scored them,
// and the title classifier — in canonical order, so that a process
// restoring it reproduces bit-identical synthesis output without
// touching the text feeds (docs/PERSISTENCE.md).
//
// The scored correspondences are stored, not re-derived: re-scoring from
// a rebuilt bag index would accumulate divergence sums in a fresh
// unordered_map layout, which is deterministic per process but not a
// serializable property.

#ifndef PRODSYN_SNAPSHOT_OFFLINE_SNAPSHOT_H_
#define PRODSYN_SNAPSHOT_OFFLINE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/matching/types.h"
#include "src/ml/naive_bayes.h"

namespace prodsyn {

/// \brief The offline-learning state one snapshot file holds.
struct OfflineSnapshot {
  /// Section CORR: the scored correspondences, in the order Generate
  /// returned them (score-descending).
  std::vector<AttributeCorrespondence> correspondences;
  /// Section LRMW: the trained classifier and its feature scaler, as
  /// exact f64 bit patterns.
  std::vector<double> lr_weights;
  double lr_intercept = 0.0;
  uint64_t lr_iterations = 0;
  std::vector<double> scaler_means;
  std::vector<double> scaler_stds;
  /// Section NBCL: the title classifier's naive-Bayes state.
  NaiveBayesModel title_model;
};

/// \brief Snapshot knobs of SynthesizerOptions.
struct SnapshotOptions {
  /// Snapshot file path; empty disables snapshotting entirely.
  std::string path;
  /// Try to load `path` at the start of LearnOffline and skip the rebuild
  /// on success. Any load failure (missing, truncated, corrupt, version
  /// mismatch) degrades gracefully: log, bump the snapshot.load_failed
  /// gauge, rebuild from the feeds.
  bool load_if_present = true;
  /// Save a fresh snapshot after a successful rebuild. Save failures are
  /// logged and gauged (snapshot.save_failed), never fatal.
  bool save_after_learn = true;
};

}  // namespace prodsyn

#endif  // PRODSYN_SNAPSHOT_OFFLINE_SNAPSHOT_H_
