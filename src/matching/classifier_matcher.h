// The paper's schema-reconciliation approach (§3): distributional-
// similarity features over historical offer-to-product matches, combined
// by a logistic-regression classifier trained on the automatically
// constructed name-identity training set. The score of a candidate is the
// classifier's probability that it is a true correspondence.
//
// Two baselines are the same machine with one switch flipped:
//  * restrict_products_to_matches=false  -> the Fig. 7 "No matching" line;
//  * a single-feature FeatureSet         -> see single_feature_matcher.h.

#ifndef PRODSYN_MATCHING_CLASSIFIER_MATCHER_H_
#define PRODSYN_MATCHING_CLASSIFIER_MATCHER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/matching/bag_index.h"
#include "src/matching/features.h"
#include "src/matching/matcher.h"
#include "src/matching/training_set.h"
#include "src/ml/logistic_regression.h"
#include "src/ml/scaler.h"
#include "src/util/cancellation.h"
#include "src/util/metrics_registry.h"

namespace prodsyn {

/// \brief Options of ClassifierMatcher.
struct ClassifierMatcherOptions {
  std::string display_name = "Our approach";
  FeatureSet features = FeatureSet::All();
  BagIndexOptions bag_index;
  TrainingSetOptions training;
  LogisticRegressionOptions regression;
  /// Name-identity candidates are axiomatically correspondences (§3.2
  /// assumption 1); give them score 1 in the output so reconciliation
  /// always applies them. Evaluation excludes A=B tuples regardless.
  bool force_name_identity_score = true;
  /// The single offline-phase thread knob: sizes the one pool that runs
  /// the bag-index build shards (overrides bag_index.build_threads at
  /// Generate time), the per-iteration LR passes (overrides
  /// regression.threads), and the candidate-scoring sweep — the three
  /// dominant costs of offline learning at catalog scale. Each scoring
  /// chunk gets its own FeatureComputer (the memoization caches are not
  /// shared) and writes per-index slots, and LR training reduces
  /// fixed-block partial sums in order, so results are bit-identical
  /// regardless of thread count. 0 = hardware default, mirroring
  /// SynthesizerOptions::runtime_threads.
  size_t offline_threads = 1;
  /// Optional cancellation of the offline phase: checked at every stage
  /// boundary (bag build, training-set construction, LR training,
  /// candidate scoring) and per scoring chunk; Generate returns
  /// Status::Cancelled when it fires. Must outlive the Generate call.
  const CancellationToken* cancellation = nullptr;
};

/// \brief Statistics of one Generate() run, for reports (paper §5.1 quotes
/// the training-set size, positives, candidates, and predicted-valid count).
struct ClassifierRunStats {
  size_t candidates = 0;
  size_t training_examples = 0;
  size_t training_positives = 0;
  size_t predicted_valid = 0;  ///< score > 0.5, excluding forced identities
  size_t lr_iterations = 0;
  /// Wall/CPU time, items and latency histograms of the offline stages,
  /// in execution order (bag_index.build, lr.train, lr.epoch,
  /// classifier.score; lr.epoch's latency histogram holds one observation
  /// per training epoch). NOT deterministic — observability only, like
  /// SynthesisStats::stage_metrics. Same data as `registry.stages`.
  std::vector<StageSnapshot> stage_metrics;
  /// Full telemetry of the offline run (stage counters + latency
  /// histograms + gauges), renderable via MetricsRegistry::RenderJson.
  /// NOT deterministic.
  RegistrySnapshot registry;
};

/// \brief The paper's learned matcher.
class ClassifierMatcher : public SchemaMatcher {
 public:
  explicit ClassifierMatcher(ClassifierMatcherOptions options = {});

  std::string name() const override { return options_.display_name; }

  Result<std::vector<AttributeCorrespondence>> Generate(
      const MatchingContext& ctx) override;

  /// \brief Stats of the most recent Generate() call.
  const ClassifierRunStats& stats() const { return stats_; }

  /// \brief The trained model of the most recent Generate() call.
  const LogisticRegression& model() const { return model_; }

  /// \brief The feature scaler fitted by the most recent Generate() call.
  const StandardScaler& scaler() const { return scaler_; }

 private:
  ClassifierMatcherOptions options_;
  ClassifierRunStats stats_;
  LogisticRegression model_;
  StandardScaler scaler_;
};

/// \brief Factory for the Fig. 7 baseline: identical classifier but bags
/// built from ALL products of the category (no historical-match
/// restriction).
std::unique_ptr<ClassifierMatcher> MakeNoMatchingBaseline();

/// \brief Factory for the paper's §7 future-work configuration: the six
/// distributional features PLUS the two attribute-name similarity
/// features (edit distance and trigram on normalized names).
std::unique_ptr<ClassifierMatcher> MakeNameAugmentedMatcher();

}  // namespace prodsyn

#endif  // PRODSYN_MATCHING_CLASSIFIER_MATCHER_H_
