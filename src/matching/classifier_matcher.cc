#include "src/matching/classifier_matcher.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "src/ml/dense_matrix.h"
#include "src/util/check.h"
#include "src/util/fault.h"
#include "src/util/sched_stats.h"
#include "src/util/thread_pool.h"
#include "src/util/trace.h"

namespace prodsyn {

namespace {
// ParallelFor grain of the candidate-scoring sweep. Each chunk builds a
// private FeatureComputer whose memo caches warm up from scratch, so
// chunks stay large enough to amortize that fixed cost; dynamic claiming
// absorbs the cost skew between categories.
constexpr size_t kScoreGrain = 512;
}  // namespace

ClassifierMatcher::ClassifierMatcher(ClassifierMatcherOptions options)
    : options_(std::move(options)) {}

Result<std::vector<AttributeCorrespondence>> ClassifierMatcher::Generate(
    const MatchingContext& ctx) {
  PRODSYN_TRACE_SPAN("offline.generate");
  stats_ = ClassifierRunStats{};
  MetricsRegistry registry;
  const CancellationToken* token = options_.cancellation;
  auto cancelled = [token] {
    return token != nullptr && token->cancelled();
  };

  if (cancelled()) {
    return Status::Cancelled("offline learning cancelled before bag build");
  }
  PRODSYN_FAULT_POINT("offline.bag_build");
  // Resolve the single offline thread knob once: one pool serves the
  // bag-index shards, the LR passes and the candidate-scoring sweep, and
  // its scheduler snapshot covers all three regions. Offline work scales
  // with the historical offers, so they size the pool.
  const std::unique_ptr<ThreadPool> pool = ThreadPool::ForItems(
      options_.offline_threads, ctx.offers != nullptr ? ctx.offers->size() : 0);
  const size_t threads = pool != nullptr ? pool->thread_count() : 1;
  registry.SetGauge("offline.threads", static_cast<int64_t>(threads));
  BagIndexOptions bag_options = options_.bag_index;
  bag_options.build_threads = threads;
  PRODSYN_ASSIGN_OR_RETURN(
      MatchedBagIndex index,
      MatchedBagIndex::Build(ctx, bag_options,
                             registry.GetStage("bag_index.build"), pool.get()));
  FeatureComputer computer(&index, options_.features);

  if (cancelled()) {
    return Status::Cancelled(
        "offline learning cancelled before training-set construction");
  }
  PRODSYN_ASSIGN_OR_RETURN(
      CorrespondenceTrainingSet training,
      BuildTrainingSet(index, &computer, options_.training));
  stats_.training_examples = training.dataset.size();
  stats_.training_positives = training.positives;
  if (training.positives == 0 ||
      training.negatives == 0) {
    return Status::FailedPrecondition(
        "automatic training set is degenerate (" +
        std::to_string(training.positives) + " positives, " +
        std::to_string(training.negatives) +
        " negatives); need name-identity anchors with alternatives");
  }

  const auto& candidates = index.candidates();
  registry.SetGauge("offline.candidates",
                    static_cast<int64_t>(candidates.size()));

  if (cancelled()) {
    return Status::Cancelled("offline learning cancelled before LR training");
  }
  PRODSYN_FAULT_POINT("offline.lr_train");
  {
    PRODSYN_TRACE_SPAN("lr.train");
    StageCounters* train_stage = registry.GetStage("lr.train");
    StageCounters* epoch_stage = registry.GetStage("lr.epoch");
    ScopedStageTimer timer(train_stage);
    // Pack the AoS training set into one contiguous row-major matrix and
    // standardize it in place — the scaler writes into the flat buffer
    // instead of producing a second per-example-vector copy, and the
    // trainer's per-iteration passes stream it linearly.
    PRODSYN_ASSIGN_OR_RETURN(DenseMatrix matrix,
                             DenseMatrix::FromDataset(training.dataset));
    PRODSYN_RETURN_NOT_OK(scaler_.Fit(matrix));
    PRODSYN_RETURN_NOT_OK(scaler_.TransformInPlace(&matrix));
    LogisticRegressionOptions lr_options = options_.regression;
    lr_options.threads = threads;
    PRODSYN_RETURN_NOT_OK(
        model_.Fit(matrix, lr_options, pool.get(), epoch_stage));
    train_stage->AddItems(training.dataset.size());
  }
  stats_.lr_iterations = model_.iterations_used();
  registry.SetGauge("lr.iterations_used",
                    static_cast<int64_t>(model_.iterations_used()));

  if (cancelled()) {
    return Status::Cancelled("offline learning cancelled before scoring");
  }
  PRODSYN_FAULT_POINT("offline.score");
  stats_.candidates = candidates.size();
  std::vector<AttributeCorrespondence> out(candidates.size());

  StageCounters* score_stage = registry.GetStage("classifier.score");
  std::atomic<size_t> predicted_valid{0};
  std::atomic<bool> failed{false};
  // Shared state is per-index (scores[i]) or atomic (predicted_valid,
  // failed); everything else is read-only. // lint: sharded
  auto score_range = [&](size_t begin, size_t end) {
    PRODSYN_TRACE_SPAN("classifier.score_chunk");
    ScopedStageTimer timer(score_stage);
    // Per-chunk computer: the memoization caches are not shared, so each
    // chunk recomputes its own C/M-level entries but never races. Every
    // write lands in slot i of `out`, so the result is independent of the
    // chunking.
    FeatureComputer local_computer(&index, options_.features);
    size_t valid = 0;
    if (cancelled()) return;  // chunk skipped; Generate reports Cancelled
    for (size_t i = begin; i < end && !failed.load(std::memory_order_relaxed);
         ++i) {
      const CandidateTuple& tuple = candidates[i];
      std::vector<double> features = local_computer.Compute(tuple);
      if (!scaler_.Transform(&features).ok()) {
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      auto p = model_.PredictProbability(features);
      if (!p.ok()) {
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      double score = *p;
      // A classifier emitting probabilities outside [0,1] (or NaN) would
      // silently reorder the correspondence ranking downstream.
      PRODSYN_DCHECK_PROB(score);
      if (score > 0.5) ++valid;
      if (options_.force_name_identity_score &&
          IsNameIdentity(tuple, options_.training)) {
        score = 1.0;
      }
      out[i] = AttributeCorrespondence{tuple, score};
    }
    predicted_valid.fetch_add(valid, std::memory_order_relaxed);
  };

  ThreadPool::ParallelFor(pool.get(), "classifier.score", candidates.size(),
                          kScoreGrain, score_range, token);
  score_stage->AddItems(candidates.size());
  if (cancelled()) {
    // Unlike Synthesize (which salvages a partial result), offline
    // learning is all-or-nothing: a partially scored correspondence set
    // would silently skew reconciliation.
    return Status::Cancelled("offline learning cancelled during scoring");
  }
  if (failed.load()) {
    return Status::Internal("candidate scoring failed (dimension mismatch)");
  }
  stats_.predicted_valid = predicted_valid.load();
  {
    // The global sort is the scoring region's sequential tail.
    ScopedMergeTimer merge_timer(pool.get(), "classifier.score");
    SortByScoreDescending(&out);
  }
  if (pool != nullptr && pool->sched_stats_enabled()) {
    PublishSchedStats(pool->SchedSnapshot(), &registry);
  } else {
    PublishTraceDrops(&registry);
  }
  stats_.registry = registry.Snapshot();
  stats_.stage_metrics = stats_.registry.stages;
  return out;
}

std::unique_ptr<ClassifierMatcher> MakeNoMatchingBaseline() {
  ClassifierMatcherOptions options;
  options.display_name = "No matching";
  options.bag_index.restrict_products_to_matches = false;
  return std::make_unique<ClassifierMatcher>(std::move(options));
}

std::unique_ptr<ClassifierMatcher> MakeNameAugmentedMatcher() {
  ClassifierMatcherOptions options;
  options.display_name = "Our approach + name features";
  options.features = FeatureSet::AllWithNames();
  return std::make_unique<ClassifierMatcher>(std::move(options));
}

}  // namespace prodsyn
