// Title-based offer-to-product matching: the paper (§3.1) lists three
// sources of historical offer-to-product associations — universal
// identifiers, manual matching, and "automated matchers that attempt to
// match the title of the offers to structured product records". This is
// that third source, so the whole pipeline can bootstrap without any
// externally provided matches.
//
// Strategy: per category, index products by their identifier tokens
// (Model / MPN / UPC values); an offer's title tokens retrieve candidate
// products, which are then scored with SoftTFIDF between the title and
// the product's concatenated attribute values. The best candidate above a
// threshold wins.

#ifndef PRODSYN_MATCHING_TITLE_MATCHER_H_
#define PRODSYN_MATCHING_TITLE_MATCHER_H_

#include <vector>

#include "src/catalog/catalog.h"
#include "src/catalog/match_store.h"
#include "src/util/metrics_registry.h"
#include "src/util/result.h"
#include "src/util/stage_metrics.h"

namespace prodsyn {

/// \brief Options of TitleOfferProductMatcher.
struct TitleMatcherOptions {
  /// Minimum SoftTFIDF(title, product values) for a match.
  double min_score = 0.45;
  /// Jaro–Winkler gate of the SoftTFIDF inner measure.
  double soft_tfidf_threshold = 0.92;
  /// Identifier tokens shorter than this do not index products (short
  /// numeric fragments like "500" would retrieve half the category).
  size_t min_identifier_token_length = 4;
  /// Threads for the per-category bootstrap shards (0 = hardware
  /// default). Categories are independent and the shard results merge
  /// sequentially in category order, so the MatchStore and the counter
  /// stats are bit-identical for any value.
  size_t threads = 1;
};

/// \brief Statistics of one Match() run. The counters are deterministic
/// for a fixed input regardless of TitleMatcherOptions::threads;
/// `stage_metrics` is observability only.
struct TitleMatcherStats {
  size_t offers_considered = 0;
  size_t offers_with_candidates = 0;
  size_t matches_made = 0;
  /// Wall/CPU/latency snapshot of the "title_match.bootstrap" stage.
  /// Same data as `registry.stages`.
  std::vector<StageSnapshot> stage_metrics;
  /// Full telemetry of the run (stage counters + latency histograms +
  /// gauges), renderable via MetricsRegistry::RenderJson. NOT
  /// deterministic.
  RegistrySnapshot registry;
};

/// \brief Bootstraps offer-to-product matches from titles.
class TitleOfferProductMatcher {
 public:
  explicit TitleOfferProductMatcher(TitleMatcherOptions options = {});

  /// \brief Matches every categorized offer of `offers` against the
  /// products of its category. Offers without category or without any
  /// candidate stay unmatched (the paper's pipeline tolerates partial
  /// match coverage by design).
  Result<MatchStore> Match(const Catalog& catalog, const OfferStore& offers,
                           TitleMatcherStats* stats = nullptr) const;

 private:
  TitleMatcherOptions options_;
};

}  // namespace prodsyn

#endif  // PRODSYN_MATCHING_TITLE_MATCHER_H_
