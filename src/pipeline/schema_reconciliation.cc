#include "src/pipeline/schema_reconciliation.h"

#include <algorithm>

#include "src/util/trace.h"

namespace prodsyn {

PackedKey128 SchemaReconciler::Key(MerchantId merchant, CategoryId category,
                                   Symbol offer_attribute) {
  PackedKey128 key;
  key.hi = (static_cast<uint64_t>(static_cast<uint32_t>(merchant)) << 32) |
           static_cast<uint32_t>(category);
  key.lo = offer_attribute;
  return key;
}

SchemaReconciler::SchemaReconciler(
    const std::vector<AttributeCorrespondence>& correspondences,
    double theta, bool keep_candidates) {
  // Construction is the interner's build phase; afterwards it is only
  // looked up.
  PhaseLock intern_phase(attributes_.build_phase());
  for (const auto& c : correspondences) {
    // Without candidates, a correspondence at or below theta is never
    // read: skip it before interning its name.
    if (!keep_candidates && c.score <= theta) continue;
    const PackedKey128 key =
        Key(c.tuple.merchant, c.tuple.category,
            attributes_.Intern(c.tuple.offer_attribute));
    if (keep_candidates) {
      candidates_[key].push_back(ReconciliationCandidate{
          c.tuple.offer_attribute, c.tuple.catalog_attribute, c.score,
          /*applied=*/false});
    }
    if (c.score <= theta) continue;
    auto it = map_.find(key);
    if (it == map_.end() || c.score > it->second.score ||
        (c.score == it->second.score &&
         c.tuple.catalog_attribute < it->second.catalog_attribute)) {
      map_[key] = Target{c.tuple.catalog_attribute, c.score};
    }
  }
  // Candidate lists sorted once here so CandidatesFor stays a const
  // read; `applied` marks the winner Reconcile would pick. Each list is
  // sorted in isolation — visiting keys in any order sorts the same
  // lists. // lint: order-independent
  for (auto& [key, list] : candidates_) {
    std::sort(list.begin(), list.end(),
              [](const ReconciliationCandidate& a,
                 const ReconciliationCandidate& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.catalog_attribute < b.catalog_attribute;
              });
    auto it = map_.find(key);
    if (it == map_.end()) continue;
    for (auto& c : list) {
      if (c.catalog_attribute == it->second.catalog_attribute &&
          c.score == it->second.score) {
        c.applied = true;
        break;
      }
    }
  }
}

std::vector<ReconciliationCandidate> SchemaReconciler::CandidatesFor(
    MerchantId merchant, CategoryId category,
    const std::string& offer_attribute, size_t top_k) const {
  const Symbol attr = attributes_.Lookup(offer_attribute);
  if (attr == kInvalidSymbol) return {};
  auto it = candidates_.find(Key(merchant, category, attr));
  if (it == candidates_.end()) return {};
  const auto& list = it->second;
  return std::vector<ReconciliationCandidate>(
      list.begin(), list.begin() + std::min(top_k, list.size()));
}

Specification SchemaReconciler::Reconcile(
    MerchantId merchant, CategoryId category, const Specification& extracted,
    StageCounters* metrics) const {
  PRODSYN_TRACE_SPAN("reconciliation.offer");
  ScopedStageTimer timer(metrics);
  if (metrics != nullptr) metrics->AddItems(extracted.size());
  Specification out;
  for (const auto& av : extracted) {
    // No correspondence: discard (paper §4). A name never interned has
    // none for any (M, C).
    const Symbol attr = attributes_.Lookup(av.name);
    if (attr == kInvalidSymbol) continue;
    auto it = map_.find(Key(merchant, category, attr));
    if (it == map_.end()) continue;
    out.push_back(AttributeValue{it->second.catalog_attribute, av.value});
  }
  return out;
}

}  // namespace prodsyn
