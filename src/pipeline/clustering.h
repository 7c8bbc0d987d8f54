// Clustering stage (paper §4): after reconciliation, extract the key
// attribute (Model Part Number, else the universal identifier UPC) of each
// offer and group offers with the same normalized key — each cluster
// corresponds to exactly one product instance. Offers without a key value
// cannot be clustered and are dropped from synthesis (the paper's choice).

#ifndef PRODSYN_PIPELINE_CLUSTERING_H_
#define PRODSYN_PIPELINE_CLUSTERING_H_

#include <string>
#include <vector>

#include "src/catalog/schema.h"
#include "src/catalog/types.h"
#include "src/util/stage_metrics.h"
#include "src/util/result.h"
#include "src/util/thread_pool.h"

namespace prodsyn {

/// \brief One reconciled offer entering the clusterer.
struct ReconciledOffer {
  OfferId offer_id = kInvalidOffer;      ///< id in the incoming OfferStore
  MerchantId merchant = kInvalidMerchant;  ///< feed merchant of the offer
  /// Category after title classification (never kInvalidCategory inside
  /// the pipeline; the clusterer drops uncategorized offers defensively).
  CategoryId category = kInvalidCategory;
  Specification spec;  ///< catalog-attribute names after reconciliation
};

/// \brief A cluster of offers believed to describe one product.
struct OfferCluster {
  CategoryId category = kInvalidCategory;  ///< shared category of members
  std::string key;  ///< normalized key value shared by the members
  std::vector<ReconciledOffer> members;  ///< at least one, input order
};

/// \brief Options of the key-based clusterer.
struct ClusteringOptions {
  /// When a category schema declares no key attributes, fall back to these
  /// names (in priority order).
  std::vector<std::string> fallback_key_attributes = {"Model Part Number",
                                                      "UPC"};
  /// Alternative strategy (paper §4 notes clustering is pluggable): when
  /// an offer has none of the key attributes, compose a key from these
  /// attributes (all must be present), e.g. Brand+Model. Off by default —
  /// the paper drops keyless offers. Composite keys are prefixed so they
  /// can never collide with identifier keys.
  bool composite_key_fallback = false;
  std::vector<std::string> composite_key_attributes = {"Brand", "Model"};
};

/// \brief The normalized composite key of a spec under `attributes`, or
/// "" when any component is missing. "BM\x1f<brand>\x1f<model>" form.
std::string CompositeKey(const Specification& spec,
                         const std::vector<std::string>& attributes);

/// \brief Groups reconciled offers by (category, normalized key value).
///
/// The key of an offer is the value of the first key attribute (schema
/// order, is_key flags; else the fallback list) present in its reconciled
/// spec, passed through NormalizeKey. Clusters are returned in
/// deterministic (category, key) order. `dropped` (optional) receives the
/// count of offers that had no key value.
///
/// Parallelism: when `pool` is non-null, per-offer key extraction is
/// sharded across the pool; the grouping/merge step is always sequential
/// in input order, so the returned clusters (order, membership, member
/// order) are bit-identical for any thread count — the pipeline's
/// determinism contract. Must not be called from a `pool` worker thread.
/// `metrics` (optional) receives one item per input offer plus stage
/// timing. `offer_keys` (optional, provenance) receives the normalized
/// key of every input offer parallel to `offers` ("" = dropped).
/// `token` (optional) makes the stage cancellable: Status::Cancelled when
/// it fires before the key scan; a mid-scan cut leaves unscanned offers
/// keyless (counted dropped) — callers treat that run as truncated.
Result<std::vector<OfferCluster>> ClusterByKey(
    const std::vector<ReconciledOffer>& offers, const SchemaRegistry& schemas,
    const ClusteringOptions& options = {}, size_t* dropped = nullptr,
    ThreadPool* pool = nullptr, StageCounters* metrics = nullptr,
    std::vector<std::string>* offer_keys = nullptr,
    const CancellationToken* token = nullptr);

}  // namespace prodsyn

#endif  // PRODSYN_PIPELINE_CLUSTERING_H_
