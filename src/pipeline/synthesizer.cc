#include "src/pipeline/synthesizer.h"

#include <algorithm>
#include <memory>
#include <set>
#include <unordered_map>

#include "src/snapshot/reader.h"
#include "src/snapshot/writer.h"
#include "src/util/fault.h"
#include "src/util/logging.h"
#include "src/util/random.h"
#include "src/util/sched_stats.h"
#include "src/util/thread_pool.h"
#include "src/util/trace.h"

namespace prodsyn {

namespace {
// ParallelFor grains of the run-time phase (items per chunk floor).
// Per-offer cost is skewed — landing-page size varies — and so is
// per-cluster fusion cost, so both claim modest chunks dynamically.
constexpr size_t kOfferChainGrain = 8;
constexpr size_t kFusionGrain = 8;
}  // namespace

ProductSynthesizer::ProductSynthesizer(const Catalog* catalog,
                                       SynthesizerOptions options)
    : catalog_(catalog), options_(std::move(options)) {}

Status ProductSynthesizer::RestoreFromSnapshot(OfflineSnapshot snapshot) {
  // A CRC-valid file can still be internally inconsistent if a buggy
  // writer produced it; each Restore validates the state it installs.
  PRODSYN_RETURN_NOT_OK(model_.Restore(std::move(snapshot.lr_weights),
                                       snapshot.lr_intercept,
                                       snapshot.lr_iterations));
  PRODSYN_RETURN_NOT_OK(scaler_.Restore(std::move(snapshot.scaler_means),
                                        std::move(snapshot.scaler_stds)));
  PRODSYN_RETURN_NOT_OK(
      title_classifier_.RestoreModel(std::move(snapshot.title_model)));
  correspondences_ = std::move(snapshot.correspondences);
  reconciler_.emplace(correspondences_, options_.correspondence_threshold,
                      options_.record_provenance);
  learning_stats_ = ClassifierRunStats{};
  learning_stats_.candidates = correspondences_.size();
  learning_stats_.lr_iterations = model_.iterations_used();
  learning_stats_.registry.gauges.push_back(
      GaugeSnapshot{"snapshot.loaded", 1});
  return Status::OK();
}

OfflineSnapshot ProductSynthesizer::BuildSnapshot() const {
  OfflineSnapshot snapshot;
  snapshot.correspondences = correspondences_;
  snapshot.lr_weights = model_.weights();
  snapshot.lr_intercept = model_.intercept();
  snapshot.lr_iterations = model_.iterations_used();
  snapshot.scaler_means = scaler_.means();
  snapshot.scaler_stds = scaler_.stds();
  snapshot.title_model = title_classifier_.ExportModel();
  return snapshot;
}

Status ProductSynthesizer::LearnOffline(const OfferStore& historical_offers,
                                        const MatchStore& matches) {
  PRODSYN_TRACE_SPAN("offline.learn");
  const SnapshotOptions& snap = options_.snapshot;
  const bool snapshotting = !snap.path.empty();

  // --- Warm path: a valid snapshot replaces the whole rebuild. Any load
  // failure degrades to the rebuild below; only "no snapshot yet"
  // (NotFound) skips the warning and the load_failed gauge.
  bool load_failed = false;
  if (snapshotting && snap.load_if_present) {
    Result<OfflineSnapshot> loaded = LoadOfflineSnapshot(snap.path);
    Status restore_status = loaded.status();
    if (loaded.ok()) {
      restore_status = RestoreFromSnapshot(std::move(loaded).ValueOrDie());
      if (restore_status.ok()) {
        PRODSYN_LOG(Info) << "offline learning restored from snapshot "
                          << snap.path << ": " << correspondences_.size()
                          << " scored candidates, "
                          << reconciler_->mapping_count()
                          << " mappings above theta";
        return Status::OK();
      }
    }
    if (!restore_status.IsNotFound()) {
      load_failed = true;
      PRODSYN_LOG(Warning) << "snapshot " << snap.path
                           << " unusable, rebuilding from feeds: "
                           << restore_status.ToString();
    }
  }

  // --- Cold path: rebuild everything from the historical offers.
  MatchingContext ctx;
  ctx.catalog = catalog_;
  ctx.offers = &historical_offers;
  ctx.matches = &matches;

  ClassifierMatcherOptions matcher_options = options_.matcher;
  matcher_options.offline_threads = options_.offline_threads;
  matcher_options.cancellation = options_.cancellation;
  ClassifierMatcher matcher(std::move(matcher_options));
  PRODSYN_ASSIGN_OR_RETURN(correspondences_, matcher.Generate(ctx));
  learning_stats_ = matcher.stats();
  model_ = matcher.model();
  scaler_ = matcher.scaler();
  reconciler_.emplace(correspondences_, options_.correspondence_threshold,
                      options_.record_provenance);

  const size_t titles = title_classifier_.TrainOnStore(historical_offers);
  PRODSYN_LOG(Info) << "offline learning: " << correspondences_.size()
                    << " scored candidates, " << reconciler_->mapping_count()
                    << " mappings above theta, title classifier trained on "
                    << titles << " offers";
  if (load_failed) {
    learning_stats_.registry.gauges.push_back(
        GaugeSnapshot{"snapshot.load_failed", 1});
  }

  if (snapshotting && snap.save_after_learn) {
    const Status saved = SaveOfflineSnapshot(BuildSnapshot(), snap.path);
    if (saved.ok()) {
      learning_stats_.registry.gauges.push_back(
          GaugeSnapshot{"snapshot.saved", 1});
    } else {
      // Persisting is an optimization; failing to persist must never
      // fail the learning that just succeeded.
      PRODSYN_LOG(Warning) << "snapshot save to " << snap.path
                           << " failed: " << saved.ToString();
      learning_stats_.registry.gauges.push_back(
          GaugeSnapshot{"snapshot.save_failed", 1});
    }
  }
  return Status::OK();
}

void ProductSynthesizer::SetCorrespondences(
    std::vector<AttributeCorrespondence> corrs) {
  correspondences_ = std::move(corrs);
  reconciler_.emplace(correspondences_, options_.correspondence_threshold,
                      options_.record_provenance);
}

Result<SynthesisResult> ProductSynthesizer::Synthesize(
    const OfferStore& incoming, const LandingPageProvider& pages) {
  PRODSYN_TRACE_SPAN("runtime.synthesize");
  if (!reconciler_.has_value()) {
    return Status::FailedPrecondition(
        "call LearnOffline or SetCorrespondences before Synthesize");
  }
  SynthesisResult result;
  result.stats.correspondences_applied = reconciler_->mapping_count();

  // Run-scoped cancellation: chains the caller's token (if any) and owns
  // the deadline. All clock reads live inside CancellationToken — the
  // stages below only poll cancelled().
  CancellationToken run_token(options_.cancellation);
  if (options_.deadline.count() > 0) {
    run_token.SetDeadline(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            options_.deadline));
  }
  const CancellationToken* token = &run_token;
  const bool quarantine =
      options_.error_policy == ErrorPolicy::kQuarantine;
  std::shared_ptr<ErrorLedger> ledger;
  if (quarantine) ledger = std::make_shared<ErrorLedger>();
  // Set whenever any unit of work was skipped (cancellation/deadline);
  // the returned result is then partial (complete = false).
  bool truncated = false;

  MetricsRegistry registry;
  StageCounters* classification_stage = registry.GetStage("classification");
  StageCounters* extraction_stage = registry.GetStage("extraction");
  StageCounters* reconciliation_stage = registry.GetStage("reconciliation");
  StageCounters* clustering_stage = registry.GetStage("clustering");
  StageCounters* fusion_stage = registry.GetStage("fusion");

  const auto& offers = incoming.offers();
  // One pool for the whole run-time phase; absent when a single thread
  // suffices, in which case every stage runs inline on the caller.
  const std::unique_ptr<ThreadPool> pool =
      ThreadPool::ForItems(options_.runtime_threads, offers.size());
  ThreadPool* const pool_ptr = pool.get();
  registry.SetGauge("runtime.threads",
                    static_cast<int64_t>(pool ? pool->thread_count() : 1));
  registry.SetGauge("runtime.input_offers",
                    static_cast<int64_t>(offers.size()));

  const bool have_classifier = title_classifier_.category_count() > 0;

  std::unique_ptr<ProvenanceRecorder> recorder;
  if (options_.record_provenance) {
    recorder = std::make_unique<ProvenanceRecorder>(
        offers.size(), options_.provenance_top_k);
  }

  // --- Per-offer stages: classification → extraction → reconciliation.
  // Workers fill slot i from offers[i] only; all cross-offer effects
  // (stats, the reconciled list, error propagation) happen in the
  // sequential merge below, so the result is thread-count-invariant.
  // The provenance slot for offer i is worker-owned the same way.
  struct PerOffer {
    Status status = Status::OK();  // first failure of this offer's chain
    bool processed = false;  // false = skipped by cancellation/deadline
    bool has_category = false;
    bool extracted_nonempty = false;
    size_t extracted_pairs = 0;
    size_t retries = 0;  // extra attempts consumed (quarantine only)
    FailureStage failed_stage = FailureStage::kClassification;
    ReconciledOffer reconciled;
  };
  std::vector<PerOffer> per_offer(offers.size());
  // One attempt at one offer's classification → extraction →
  // reconciliation chain. Writes only slot/prov (worker-owned).
  auto process_offer = [&](const Offer& offer, PerOffer& slot,
                           OfferProvenance* prov) {
    if (prov != nullptr) {
      prov->offer_id = offer.id;
      prov->feed_pairs = offer.spec.size();
    }
    const auto fault_key = static_cast<uint64_t>(offer.id);

    // Category: classify from the title when required or missing.
    Status fault = PRODSYN_FAULT_CHECK_KEYED("runtime.classification",
                                             fault_key);
    if (!fault.ok()) {
      slot.status = std::move(fault);
      slot.failed_stage = FailureStage::kClassification;
      return;
    }
    CategoryId category = offer.category;
    if ((options_.always_classify_titles ||
         category == kInvalidCategory) &&
        have_classifier) {
      PRODSYN_TRACE_SPAN("classification.offer");
      ScopedStageTimer timer(classification_stage);
      classification_stage->AddItems(1);
      auto classified = title_classifier_.Classify(offer.title);
      if (classified.ok()) {
        category = *classified;
        if (prov != nullptr) prov->classified_from_title = true;
      }
    }
    if (prov != nullptr) prov->category = category;
    if (category == kInvalidCategory) {
      if (prov != nullptr) prov->drop = DropReason::kNoCategory;
      return;
    }
    slot.has_category = true;

    // Web-page attribute extraction.
    fault = PRODSYN_FAULT_CHECK_KEYED("runtime.extraction", fault_key);
    auto extracted =
        fault.ok() ? ExtractOfferSpecification(offer, pages,
                                               options_.extractor,
                                               extraction_stage)
                   : Result<Specification>(std::move(fault));
    if (!extracted.ok()) {
      slot.status = extracted.status();
      slot.failed_stage = FailureStage::kExtraction;
      return;
    }
    slot.extracted_nonempty = !extracted->empty();
    slot.extracted_pairs = extracted->size();
    if (prov != nullptr) {
      prov->extracted_pairs = extracted->size();
      // Top-k reconciliation candidates per distinct extracted
      // attribute, in extraction order.
      std::set<std::string> seen_attrs;
      for (const auto& av : *extracted) {
        if (!seen_attrs.insert(av.name).second) continue;
        auto cands = reconciler_->CandidatesFor(
            offer.merchant, category, av.name, recorder->top_k());
        prov->reconciliation.insert(prov->reconciliation.end(),
                                    cands.begin(), cands.end());
      }
    }

    // Schema reconciliation.
    fault = PRODSYN_FAULT_CHECK_KEYED("runtime.reconciliation", fault_key);
    if (!fault.ok()) {
      slot.status = std::move(fault);
      slot.failed_stage = FailureStage::kReconciliation;
      return;
    }
    slot.reconciled.offer_id = offer.id;
    slot.reconciled.merchant = offer.merchant;
    slot.reconciled.category = category;
    slot.reconciled.spec = reconciler_->Reconcile(
        offer.merchant, category, *extracted, reconciliation_stage);
    if (prov != nullptr) {
      prov->reconciled_pairs = slot.reconciled.spec.size();
    }
  };
  // Under quarantine a failing offer is re-attempted from classification
  // (transient extraction failures can recover); keyed injected faults
  // are pure functions of the offer id, so they fail identically on
  // every attempt and determinism is preserved.
  const size_t offer_attempts =
      quarantine ? 1 + options_.quarantine_retries : 1;
  // Workers write only per_offer[i] (per-index slots); the ledger and
  // stats are touched exclusively by the sequential merge below.
  // lint: sharded
  auto process_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      PRODSYN_TRACE_SPAN("runtime.offer");
      // Offers the cut reaches first stay unprocessed; the sequential
      // merge counts them instead of reading half-filled slots.
      if (token->cancelled()) return;
      PerOffer& slot = per_offer[i];
      OfferProvenance* prov =
          recorder != nullptr ? recorder->offer(i) : nullptr;
      for (size_t attempt = 0; attempt < offer_attempts; ++attempt) {
        slot = PerOffer{};
        slot.retries = attempt;
        if (prov != nullptr && attempt > 0) *prov = OfferProvenance{};
        process_offer(offers[i], slot, prov);
        if (slot.status.ok()) break;
      }
      slot.processed = true;
    }
  };
  ThreadPool::ParallelFor(pool_ptr, "runtime.offer_chain", offers.size(),
                          kOfferChainGrain, process_range, token);

  // Common tail of every exit path (complete, truncated, quarantined):
  // final gauges, registry snapshot, provenance/ledger handover.
  auto finalize = [&]() -> SynthesisResult {
    result.complete = !truncated;
    result.stats.synthesized_products = result.products.size();
    registry.SetGauge("runtime.products",
                      static_cast<int64_t>(result.products.size()));
    registry.SetGauge("runtime.deadline_exceeded",
                      run_token.deadline_exceeded() ? 1 : 0);
    registry.SetGauge("runtime.truncated", truncated ? 1 : 0);
    registry.SetGauge(
        "runtime.cancelled_offers",
        static_cast<int64_t>(result.stats.cancelled_offers));
    registry.SetGauge(
        "runtime.quarantined_offers",
        static_cast<int64_t>(result.stats.quarantined_offers));
    registry.SetGauge(
        "runtime.quarantined_clusters",
        static_cast<int64_t>(result.stats.quarantined_clusters));
    registry.SetGauge("runtime.offer_retries",
                      static_cast<int64_t>(result.stats.offer_retries));
    // Scheduler accounting + trace-drop visibility: region/worker gauges
    // when a pool ran with accounting on, the dropped-span gauge always
    // (truncated traces must be visible even on inline runs).
    if (pool_ptr != nullptr && pool_ptr->sched_stats_enabled()) {
      PublishSchedStats(pool_ptr->SchedSnapshot(), &registry);
    } else {
      PublishTraceDrops(&registry);
    }
    result.stats.registry = registry.Snapshot();
    result.stats.stage_metrics = result.stats.registry.stages;
    if (recorder != nullptr) {
      result.provenance =
          std::make_shared<const SynthesisProvenance>(recorder->Take());
    }
    result.ledger = ledger;
    return std::move(result);
  };

  // Deterministic merge in input order; under kFailFast the first failed
  // offer (by input index) aborts the run, matching single-threaded
  // semantics, while kQuarantine ledgers it and keeps going.
  // `reconciled_to_input` maps each reconciled slot back to its input
  // index and `input_index_of` each OfferId, so provenance can tie
  // clustering/fusion outcomes back to offers.
  std::vector<ReconciledOffer> reconciled;
  std::vector<size_t> reconciled_to_input;
  std::unordered_map<OfferId, size_t> input_index_of;
  reconciled.reserve(offers.size());
  if (recorder != nullptr) reconciled_to_input.reserve(offers.size());
  result.stats.input_offers = offers.size();
  // The merge wall feeds the region's Amdahl serial fraction
  // (stage.serial_fraction.runtime.offer_chain); no-op without a pool.
  ScopedMergeTimer offer_merge_timer(pool_ptr, "runtime.offer_chain");
  for (size_t i = 0; i < per_offer.size(); ++i) {
    PerOffer& slot = per_offer[i];
    OfferProvenance* prov =
        recorder != nullptr ? recorder->offer(i) : nullptr;
    if (!slot.processed) {
      // The cancellation/deadline cut reached this offer before a worker
      // did; it is not an error, the run is just partial.
      truncated = true;
      ++result.stats.cancelled_offers;
      if (prov != nullptr) {
        prov->offer_id = offers[i].id;
        prov->drop = DropReason::kCancelled;
      }
      continue;
    }
    result.stats.offer_retries += slot.retries;
    if (!slot.status.ok()) {
      if (!quarantine) return slot.status;
      PhaseLock merge(ledger->merge_phase());  // sequential merge loop
      ledger->Add({offers[i].id, slot.failed_stage, slot.status,
                   slot.retries});
      ++result.stats.quarantined_offers;
      if (prov != nullptr) prov->drop = DropReason::kFault;
      continue;
    }
    if (!slot.has_category) continue;
    // The clusterer has no per-offer error channel, so its injection
    // point lives here, keyed like the in-stage sites.
    Status cluster_fault = PRODSYN_FAULT_CHECK_KEYED(
        "runtime.clustering", static_cast<uint64_t>(offers[i].id));
    if (!cluster_fault.ok()) {
      if (!quarantine) return cluster_fault;
      PhaseLock merge(ledger->merge_phase());  // sequential merge loop
      ledger->Add({offers[i].id, FailureStage::kClustering,
                   std::move(cluster_fault), 0});
      ++result.stats.quarantined_offers;
      if (prov != nullptr) prov->drop = DropReason::kFault;
      continue;
    }
    if (slot.extracted_nonempty) ++result.stats.offers_with_extracted_pairs;
    result.stats.extracted_pairs += slot.extracted_pairs;
    result.stats.reconciled_pairs += slot.reconciled.spec.size();
    if (recorder != nullptr) {
      reconciled_to_input.push_back(i);
      input_index_of[slot.reconciled.offer_id] = i;
    }
    reconciled.push_back(std::move(slot.reconciled));
  }
  offer_merge_timer.Stop();
  if (token->cancelled()) {
    truncated = true;
    return finalize();
  }

  // Clustering by key attributes (sharded key scan, sequential merge).
  std::vector<std::string> offer_keys;
  auto clusters_result =
      ClusterByKey(reconciled, catalog_->schemas(), options_.clustering,
                   &result.stats.offers_without_key, pool_ptr,
                   clustering_stage,
                   recorder != nullptr ? &offer_keys : nullptr, token);
  if (!clusters_result.ok()) {
    // Cancellation inside the clusterer is a truncation, not a failure.
    if (clusters_result.status().IsCancelled()) {
      truncated = true;
      return finalize();
    }
    return clusters_result.status();
  }
  std::vector<OfferCluster> clusters =
      std::move(clusters_result).ValueOrDie();
  result.stats.clusters = clusters.size();
  registry.SetGauge("runtime.clusters",
                    static_cast<int64_t>(clusters.size()));
  if (recorder != nullptr) {
    for (size_t j = 0; j < offer_keys.size(); ++j) {
      OfferProvenance* prov = recorder->offer(reconciled_to_input[j]);
      if (offer_keys[j].empty()) {
        prov->drop = DropReason::kNoKey;
      } else {
        prov->cluster_key = offer_keys[j];
      }
    }
  }

  // Value fusion: one product per cluster, fused independently per
  // (category, key) slot, assembled sequentially in cluster order.
  struct FusedCluster {
    Status status = Status::OK();
    bool processed = false;  // false = skipped by cancellation/deadline
    bool schema_known = false;
    Specification spec;
    std::vector<FusionDecision> decisions;  // filled only when recording
  };
  std::vector<FusedCluster> fused(clusters.size());
  // Workers write only fused[i] (per-index slots); ledgering happens
  // in the sequential merge below. // lint: sharded
  auto fuse_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (token->cancelled()) return;
      FusedCluster& slot = fused[i];
      slot.processed = true;
      // Clusters are already in deterministic (category, key) order, so
      // keying the fusion site by that pair keeps the firing pattern
      // thread-count-invariant.
      Status fault = PRODSYN_FAULT_CHECK_KEYED(
          "runtime.fusion",
          HashString(clusters[i].key) ^
              static_cast<uint64_t>(clusters[i].category));
      if (!fault.ok()) {
        slot.status = std::move(fault);
        continue;
      }
      auto schema = catalog_->schemas().Get(clusters[i].category);
      if (!schema.ok()) continue;
      slot.schema_known = true;
      auto spec =
          FuseCluster(clusters[i], *schema.ValueOrDie(), fusion_stage,
                      recorder != nullptr ? &slot.decisions : nullptr);
      if (!spec.ok()) {
        slot.status = spec.status();
        continue;
      }
      slot.spec = std::move(*spec);
    }
  };
  ThreadPool::ParallelFor(pool_ptr, "runtime.fusion", clusters.size(),
                          kFusionGrain, fuse_range, token);
  ScopedMergeTimer fusion_merge_timer(pool_ptr, "runtime.fusion");
  for (size_t i = 0; i < clusters.size(); ++i) {
    FusedCluster& slot = fused[i];
    if (!slot.processed) {
      truncated = true;
      continue;
    }
    if (!slot.status.ok()) {
      if (!quarantine) return slot.status;
      // Cluster-scope quarantine: ledger one entry under the cluster's
      // first member (input order — deterministic), record the members'
      // provenance, and keep synthesizing the other clusters.
      PhaseLock merge(ledger->merge_phase());  // sequential merge loop
      ledger->Add({clusters[i].members.front().offer_id,
                   FailureStage::kFusion, slot.status, 0});
      ++result.stats.quarantined_clusters;
      if (recorder != nullptr) {
        ClusterProvenance cp;
        cp.category = clusters[i].category;
        cp.key = clusters[i].key;
        cp.produced_product = false;
        cp.drop = DropReason::kFault;
        for (const auto& member : clusters[i].members) {
          cp.members.push_back(member.offer_id);
          auto it = input_index_of.find(member.offer_id);
          if (it != input_index_of.end()) {
            recorder->offer(it->second)->drop = DropReason::kFault;
          }
        }
        recorder->AddCluster(std::move(cp));
      }
      continue;
    }
    const bool produced = slot.schema_known && !slot.spec.empty();
    if (recorder != nullptr) {
      ClusterProvenance cp;
      cp.category = clusters[i].category;
      cp.key = clusters[i].key;  // copied before the move below
      cp.produced_product = produced;
      if (!slot.schema_known) {
        cp.drop = DropReason::kUnknownSchema;
      } else if (slot.spec.empty()) {
        cp.drop = DropReason::kEmptyFusedSpec;
      }
      cp.fusion = std::move(slot.decisions);
      for (const auto& member : clusters[i].members) {
        cp.members.push_back(member.offer_id);
        if (cp.drop != DropReason::kNone) {
          // The whole cluster died after clustering: every member offer
          // inherits the cluster's drop reason.
          auto it = input_index_of.find(member.offer_id);
          if (it != input_index_of.end()) {
            recorder->offer(it->second)->drop = cp.drop;
          }
        }
      }
      recorder->AddCluster(std::move(cp));
    }
    if (!produced) continue;
    SynthesizedProduct product;
    product.category = clusters[i].category;
    product.key = std::move(clusters[i].key);
    product.spec = std::move(slot.spec);
    for (const auto& member : clusters[i].members) {
      product.source_offers.push_back(member.offer_id);
    }
    result.stats.synthesized_attributes += product.spec.size();
    result.products.push_back(std::move(product));
  }
  fusion_merge_timer.Stop();
  return finalize();
}

}  // namespace prodsyn
