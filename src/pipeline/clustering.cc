#include "src/pipeline/clustering.h"

#include <map>

#include "src/util/check.h"
#include "src/util/sched_stats.h"
#include "src/util/string_util.h"
#include "src/util/trace.h"

namespace prodsyn {

namespace {

// ParallelFor grain of the key scan. Key extraction is uniform
// sub-microsecond work per offer, so chunks stay large: the floor keeps
// tiny batches inline, where chunk overhead would exceed the scan.
constexpr size_t kKeyScanGrain = 256;

// First key-attribute value present in the spec, normalized; empty if none.
std::string ExtractKey(const Specification& spec,
                       const std::vector<std::string>& key_attributes) {
  for (const auto& key_attr : key_attributes) {
    auto value = FindValue(spec, key_attr);
    if (value.has_value()) {
      std::string normalized = NormalizeKey(*value);
      if (!normalized.empty()) return normalized;
    }
  }
  return std::string();
}

}  // namespace

std::string CompositeKey(const Specification& spec,
                         const std::vector<std::string>& attributes) {
  if (attributes.empty()) return std::string();
  std::string key = "BM";
  for (const auto& attr : attributes) {
    auto value = FindValue(spec, attr);
    if (!value.has_value()) return std::string();
    const std::string normalized = NormalizeKey(*value);
    if (normalized.empty()) return std::string();
    key.push_back('\x1f');
    key += normalized;
  }
  return key;
}

Result<std::vector<OfferCluster>> ClusterByKey(
    const std::vector<ReconciledOffer>& offers, const SchemaRegistry& schemas,
    const ClusteringOptions& options, size_t* dropped, ThreadPool* pool,
    StageCounters* metrics, std::vector<std::string>* offer_keys,
    const CancellationToken* token) {
  PRODSYN_TRACE_SPAN("clustering.cluster_by_key");
  ScopedStageTimer stage_timer(metrics);
  if (token != nullptr && token->cancelled()) {
    return Status::Cancelled("clustering cancelled before key scan");
  }
  if (metrics != nullptr) metrics->AddItems(offers.size());
  if (dropped != nullptr) *dropped = 0;

  // Key-attribute lists per category, built sequentially up front so the
  // sharded key-extraction below only ever reads it.
  std::map<CategoryId, std::vector<std::string>> key_attrs_of;
  for (const auto& offer : offers) {
    if (offer.category == kInvalidCategory) continue;
    if (key_attrs_of.count(offer.category) > 0) continue;
    std::vector<std::string> keys;
    auto schema = schemas.Get(offer.category);
    if (schema.ok()) keys = schema.ValueOrDie()->KeyAttributeNames();
    if (keys.empty()) keys = options.fallback_key_attributes;
    key_attrs_of.emplace(offer.category, std::move(keys));
  }

  // Per-offer key extraction: pure per-index work, shardable. Each slot i
  // depends only on offers[i], so any thread count yields the same keys.
  std::vector<std::string> keys(offers.size());
  // lint: sharded — slot i writes only keys[i].
  auto extract_range = [&](size_t begin, size_t end) {
    PRODSYN_TRACE_SPAN("clustering.key_scan");
    for (size_t i = begin; i < end; ++i) {
      const ReconciledOffer& offer = offers[i];
      if (offer.category == kInvalidCategory) continue;
      std::string key =
          ExtractKey(offer.spec, key_attrs_of.at(offer.category));
      if (key.empty() && options.composite_key_fallback) {
        key = CompositeKey(offer.spec, options.composite_key_attributes);
      }
      keys[i] = std::move(key);
    }
  };
  ThreadPool::ParallelFor(pool, "clustering.key_scan", offers.size(),
                          kKeyScanGrain, extract_range, token);

  // Sequential deterministic merge in input order; its wall feeds the
  // key-scan region's Amdahl serial fraction.
  ScopedMergeTimer merge_timer(pool, "clustering.key_scan");
  PRODSYN_TRACE_SPAN("clustering.merge");
  std::map<std::pair<CategoryId, std::string>, OfferCluster> clusters;
  for (size_t i = 0; i < offers.size(); ++i) {
    const auto& offer = offers[i];
    if (offer.category == kInvalidCategory || keys[i].empty()) {
      if (dropped != nullptr) ++(*dropped);
      continue;
    }
    auto& cluster = clusters[{offer.category, keys[i]}];
    cluster.category = offer.category;
    cluster.key = keys[i];
    cluster.members.push_back(offer);
  }

  std::vector<OfferCluster> out;
  out.reserve(clusters.size());
  size_t clustered = 0;
  for (auto& [key, cluster] : clusters) {
    (void)key;
    // Every emitted cluster carries at least one member and a valid
    // category/key; FuseCluster depends on this.
    PRODSYN_DCHECK(!cluster.members.empty());
    PRODSYN_DCHECK(cluster.category != kInvalidCategory);
    PRODSYN_DCHECK(!cluster.key.empty());
    clustered += cluster.members.size();
    out.push_back(std::move(cluster));
  }
  // Conservation: every input offer is either clustered or counted dropped.
  if (dropped != nullptr) {
    PRODSYN_DCHECK_EQ(clustered + *dropped, offers.size());
  }
  if (offer_keys != nullptr) *offer_keys = std::move(keys);
  return out;
}

}  // namespace prodsyn
