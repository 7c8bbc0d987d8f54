// End-to-end product synthesis (paper Fig. 4): Offline Learning (attribute
// correspondences from historical offer-to-product matches) + Run-Time
// Offer Processing (extraction → reconciliation → clustering → fusion).

#ifndef PRODSYN_PIPELINE_SYNTHESIZER_H_
#define PRODSYN_PIPELINE_SYNTHESIZER_H_

#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "src/matching/classifier_matcher.h"
#include "src/ml/logistic_regression.h"
#include "src/ml/scaler.h"
#include "src/pipeline/attribute_extraction.h"
#include "src/snapshot/offline_snapshot.h"
#include "src/pipeline/clustering.h"
#include "src/pipeline/error_ledger.h"
#include "src/pipeline/provenance.h"
#include "src/util/cancellation.h"
#include "src/pipeline/schema_reconciliation.h"
#include "src/util/metrics_registry.h"
#include "src/util/stage_metrics.h"
#include "src/pipeline/title_classifier.h"
#include "src/pipeline/value_fusion.h"
#include "src/util/result.h"

namespace prodsyn {

/// \brief A product instance produced by synthesis, ready for catalog
/// insertion, plus its provenance.
struct SynthesizedProduct {
  CategoryId category = kInvalidCategory;  ///< leaf category of the product
  std::string key;  ///< normalized key value of the underlying cluster
  Specification spec;  ///< fused, schema-compatible attribute–value pairs
  std::vector<OfferId> source_offers;  ///< cluster members, input order
};

/// \brief Run statistics (the counters of paper Table 2 and §5.1).
///
/// Every `size_t` counter is part of the determinism contract: for a
/// fixed input it is bit-identical for any
/// SynthesizerOptions::runtime_threads. `stage_metrics` is the exception
/// — timings vary run to run and are observability only.
struct SynthesisStats {
  size_t input_offers = 0;  ///< offers handed to Synthesize
  size_t offers_with_extracted_pairs = 0;  ///< offers with nonempty spec
  size_t extracted_pairs = 0;     ///< feed + landing-page pairs
  size_t reconciled_pairs = 0;    ///< pairs surviving reconciliation
  size_t offers_without_key = 0;  ///< dropped by clustering (no key value)
  size_t clusters = 0;            ///< distinct (category, key) groups
  size_t synthesized_products = 0;    ///< products emitted
  size_t synthesized_attributes = 0;  ///< total pairs across products
  size_t correspondences_applied = 0;  ///< mappings retained by theta
  /// Offers diverted to the ErrorLedger (ErrorPolicy::kQuarantine only;
  /// always 0 under kFailFast — a failure aborts the run instead).
  size_t quarantined_offers = 0;
  /// Clusters whose fusion failed and was quarantined.
  size_t quarantined_clusters = 0;
  /// Extra per-offer attempts consumed before success or quarantine
  /// (SynthesizerOptions::quarantine_retries).
  size_t offer_retries = 0;
  /// Offers never processed because the run was cancelled or overran its
  /// deadline. NOT part of the determinism contract (cancellation timing
  /// is wall-clock-dependent); always 0 on complete runs.
  size_t cancelled_offers = 0;
  /// Per-stage wall/CPU time, item counts and latency histograms of the
  /// run-time phase, in pipeline order (classification, extraction,
  /// reconciliation, clustering, fusion). NOT deterministic — see
  /// StageSnapshot. Same data as `registry.stages`, kept as a separate
  /// field for callers that predate the registry.
  std::vector<StageSnapshot> stage_metrics;
  /// Full telemetry of the run-time phase — the stage counters above
  /// plus per-stage latency histograms and run gauges — renderable via
  /// MetricsRegistry::RenderJson. NOT deterministic.
  RegistrySnapshot registry;
};

/// \brief Output of one synthesis run.
struct SynthesisResult {
  std::vector<SynthesizedProduct> products;  ///< (category, key) order
  SynthesisStats stats;  ///< counters + per-stage metrics of the run
  /// Decision provenance of the run: null unless
  /// SynthesizerOptions::record_provenance. Shared so SynthesisResult
  /// stays cheap to copy; the provenance content itself is deterministic
  /// for any thread count (worker-filled per-offer slots, sequential
  /// cluster assembly).
  std::shared_ptr<const SynthesisProvenance> provenance;
  /// Quarantine ledger of the run: non-null (possibly empty) iff
  /// SynthesizerOptions::error_policy is kQuarantine. Bit-identical for
  /// any runtime_threads (entries appended only by sequential merges).
  std::shared_ptr<const ErrorLedger> ledger;
  /// False when the run was truncated by cancellation or a deadline:
  /// products/stats then cover only the offers processed before the cut.
  bool complete = true;
};

/// \brief Options of ProductSynthesizer.
struct SynthesizerOptions {
  ClassifierMatcherOptions matcher;  ///< offline-learning phase knobs
  TableExtractorOptions extractor;   ///< landing-page table extraction
  ClusteringOptions clustering;      ///< key selection / fallback strategy
  /// Correspondences with score <= theta are not applied (paper's
  /// predicted-valid cut is the classifier's 0.5 decision boundary).
  double correspondence_threshold = 0.5;
  /// Re-classify every incoming offer from its title even when the feed
  /// carried a category (paper §2 runs all offers through the classifier;
  /// the pipeline must be resilient to its errors). When false, offers
  /// keep a pre-assigned category and only uncategorized ones are
  /// classified.
  bool always_classify_titles = false;
  /// Record decision provenance during Synthesize: per offer, the
  /// extraction hit counts, top-k reconciliation candidates with scores,
  /// cluster assignment, fusion winners, and a drop reason — surfaced as
  /// SynthesisResult::provenance (JSONL-dumpable). Recording never
  /// changes products or stats counters; it costs memory per offer and
  /// makes the reconciler retain all scored candidates, so it is off by
  /// default.
  bool record_provenance = false;
  /// Reconciliation candidates kept per extracted attribute when
  /// record_provenance is on.
  size_t provenance_top_k = 3;
  /// Worker threads for the Run-Time Offer Processing phase (0 = hardware
  /// default). Extraction/reconciliation shard per offer, clustering's
  /// key scan per offer, fusion per (category, key) cluster; every merge
  /// is sequential in input order, so products and stats counters are
  /// bit-identical for any value — same contract as `offline_threads`.
  size_t runtime_threads = 0;
  /// Worker threads for the Offline Learning phase (0 = hardware
  /// default), mirroring `runtime_threads`. LearnOffline copies this into
  /// ClassifierMatcherOptions::offline_threads, which drives both the
  /// bag-index build shards and the candidate-scoring sweep; all offline
  /// merges are sequential in a deterministic order, so correspondences
  /// and learning stats are bit-identical for any value.
  size_t offline_threads = 0;
  /// What to do when an offer's stage chain fails (see ErrorPolicy).
  /// kQuarantine diverts failing offers to SynthesisResult::ledger and
  /// keeps going; on clean input the output is bit-identical to
  /// kFailFast.
  ErrorPolicy error_policy = ErrorPolicy::kFailFast;
  /// Extra attempts per failing offer before quarantining it (only under
  /// kQuarantine; retried from classification, so transient extraction
  /// failures can recover). 0 = quarantine on first failure.
  size_t quarantine_retries = 0;
  /// Wall-clock budget for Synthesize (0 = none). Overrunning never
  /// fails the call: the run stops starting new work, finishes in-flight
  /// shards, and returns a partial SynthesisResult (complete = false,
  /// runtime.deadline_exceeded gauge set). Clock reads stay inside
  /// CancellationToken — the pipeline only polls.
  std::chrono::milliseconds deadline{0};
  /// Optional external cancellation (parent token): when it fires,
  /// Synthesize winds down exactly like a deadline overrun. Must outlive
  /// the Synthesize call. Null = not cancellable from outside.
  const CancellationToken* cancellation = nullptr;
  /// Offline-state persistence (docs/PERSISTENCE.md). With a non-empty
  /// path, LearnOffline loads the snapshot instead of rebuilding when a
  /// valid one exists, and saves a fresh one after a rebuild. Synthesis
  /// output and LR weights are bit-identical between the load and
  /// rebuild paths; a corrupt or torn snapshot degrades to a rebuild
  /// (snapshot.load_failed gauge), never to a failure.
  SnapshotOptions snapshot;
};

/// \brief Orchestrates the two phases of Fig. 4.
///
/// Thread safety: a ProductSynthesizer is driven from one thread at a
/// time (LearnOffline/SetCorrespondences mutate state); both phases
/// parallelize internally per `offline_threads` / `runtime_threads`.
/// Distinct instances are fully independent.
class ProductSynthesizer {
 public:
  /// \param catalog must outlive the synthesizer.
  explicit ProductSynthesizer(const Catalog* catalog,
                              SynthesizerOptions options = {});

  /// \brief Offline Learning: learns attribute correspondences from the
  /// historical offers and their offer-to-product matches, and trains the
  /// title classifier on the same offers.
  Status LearnOffline(const OfferStore& historical_offers,
                      const MatchStore& matches);

  /// \brief Injects externally produced correspondences instead of
  /// LearnOffline (used by tests and matcher-comparison experiments).
  void SetCorrespondences(std::vector<AttributeCorrespondence> corrs);

  /// \brief Run-Time Offer Processing over `incoming` offers: extraction
  /// from landing pages, reconciliation, clustering, value fusion.
  /// Requires LearnOffline or SetCorrespondences first.
  Result<SynthesisResult> Synthesize(const OfferStore& incoming,
                                     const LandingPageProvider& pages);

  /// \brief Correspondences of the last LearnOffline/SetCorrespondences.
  const std::vector<AttributeCorrespondence>& correspondences() const {
    return correspondences_;
  }

  /// \brief Offline-learning stats (empty before LearnOffline).
  const ClassifierRunStats& learning_stats() const { return learning_stats_; }

  const TitleClassifier& title_classifier() const { return title_classifier_; }

  /// \brief The trained LR model of the last LearnOffline — whether it
  /// was trained fresh or restored from a snapshot (empty before).
  const LogisticRegression& model() const { return model_; }

  /// \brief The fitted feature scaler of the last LearnOffline.
  const StandardScaler& scaler() const { return scaler_; }

  /// \brief Overrides SynthesizerOptions::runtime_threads for subsequent
  /// Synthesize calls (0 = hardware default). Lets thread sweeps (e.g.
  /// bench_perf_pipeline) learn offline once and re-measure the run-time
  /// phase at several thread counts on the same learned state. Not safe
  /// to call concurrently with a running Synthesize (same single-driver
  /// contract as LearnOffline).
  void set_runtime_threads(size_t threads) {
    options_.runtime_threads = threads;
  }

 private:
  /// Installs a loaded snapshot as the learned state. InvalidArgument on
  /// internally inconsistent snapshot content.
  Status RestoreFromSnapshot(OfflineSnapshot snapshot);
  /// Assembles the current learned state for the writer.
  OfflineSnapshot BuildSnapshot() const;

  const Catalog* catalog_;
  SynthesizerOptions options_;
  std::vector<AttributeCorrespondence> correspondences_;
  std::optional<SchemaReconciler> reconciler_;
  TitleClassifier title_classifier_;
  ClassifierRunStats learning_stats_;
  LogisticRegression model_;
  StandardScaler scaler_;
};

}  // namespace prodsyn

#endif  // PRODSYN_PIPELINE_SYNTHESIZER_H_
