// Schema reconciliation stage (paper §4): translate extracted offer
// attribute names into catalog attribute names using the correspondences
// learned offline; pairs with no correspondence are DISCARDED — this is
// the noise filter that makes the naive table extractor viable.

#ifndef PRODSYN_PIPELINE_SCHEMA_RECONCILIATION_H_
#define PRODSYN_PIPELINE_SCHEMA_RECONCILIATION_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/catalog/types.h"
#include "src/matching/types.h"
#include "src/pipeline/provenance.h"
#include "src/util/interner.h"
#include "src/util/stage_metrics.h"

namespace prodsyn {

/// \brief Applies learned attribute correspondences to offer specs.
///
/// Lookups are keyed by packed integers, the scheme MatchedBagIndex uses:
/// (merchant, category) in one word and the offer attribute's interned
/// Symbol in the other. Construction interns the offer attribute names
/// it keeps; at run time an extracted name is only looked up, and a name
/// never interned has no correspondence and is dropped.
///
/// Thread safety: immutable after construction; Reconcile is const and
/// safe to call concurrently from any number of threads (the run-time
/// pipeline shares one reconciler across its offer-processing workers).
class SchemaReconciler {
 public:
  /// \brief Keeps correspondences with score > `theta`; when several map
  /// the same (M, C, offer attribute) to different catalog attributes the
  /// best-scoring one wins (ties break on catalog-attribute name).
  ///
  /// With `keep_candidates` true ALL scored correspondences — including
  /// below-theta ones — are retained for CandidatesFor, so decision
  /// provenance can show what reconciliation rejected and by how much.
  /// Costs memory proportional to the candidate set; off by default.
  SchemaReconciler(const std::vector<AttributeCorrespondence>& correspondences,
                   double theta = 0.5, bool keep_candidates = false);

  /// \brief Translates `extracted` for an offer of `merchant` in
  /// `category`. Unmapped pairs are dropped; if two source pairs map to
  /// the same catalog attribute both survive (value fusion arbitrates).
  /// `metrics` (optional) receives the input pair count as items plus the
  /// call's wall/CPU time; it may be shared across threads.
  Specification Reconcile(MerchantId merchant, CategoryId category,
                          const Specification& extracted,
                          StageCounters* metrics = nullptr) const;

  /// \brief Number of (M, C, offer attribute) mappings retained.
  size_t mapping_count() const { return map_.size(); }

  /// \brief The up to `top_k` best-scoring candidates considered for
  /// (merchant, category, offer_attribute), score-descending (ties by
  /// catalog-attribute name). `applied` marks the above-theta winner that
  /// Reconcile uses. Empty unless constructed with keep_candidates, or
  /// when no correspondence was scored for the key. Const and
  /// concurrency-safe like Reconcile.
  std::vector<ReconciliationCandidate> CandidatesFor(
      MerchantId merchant, CategoryId category,
      const std::string& offer_attribute, size_t top_k) const;

 private:
  struct Target {
    std::string catalog_attribute;
    double score = 0.0;
  };

  static PackedKey128 Key(MerchantId merchant, CategoryId category,
                          Symbol offer_attribute);

  /// Offer attribute names of the kept correspondences; frozen after
  /// construction (Lookup only).
  StringInterner attributes_;
  std::unordered_map<PackedKey128, Target, PackedKey128Hash> map_;
  /// Per (M, C, offer attribute): every scored candidate, sorted
  /// score-descending at construction. Empty unless keep_candidates.
  std::unordered_map<PackedKey128, std::vector<ReconciliationCandidate>,
                     PackedKey128Hash>
      candidates_;
};

}  // namespace prodsyn

#endif  // PRODSYN_PIPELINE_SCHEMA_RECONCILIATION_H_
