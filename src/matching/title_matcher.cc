#include "src/matching/title_matcher.h"

#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/text/soft_tfidf.h"
#include "src/text/tokenizer.h"
#include "src/util/sched_stats.h"
#include "src/util/string_util.h"
#include "src/util/thread_pool.h"
#include "src/util/trace.h"

namespace prodsyn {

namespace {

// ParallelFor grain of the per-category shards: categories differ wildly
// in offer and product count, so workers claim them one at a time.
constexpr size_t kCategoryGrain = 1;

// Attributes whose values act as identifiers worth indexing.
bool IsIdentifierAttribute(const CategorySchema& schema,
                           const std::string& name) {
  auto def = schema.GetAttribute(name);
  return def.ok() && def->kind == AttributeKind::kIdentifier;
}

// All tokens of a product's values, for the SoftTFIDF comparison.
std::vector<std::string> ProductDocument(const Product& product) {
  std::vector<std::string> tokens;
  for (const auto& av : product.spec) {
    for (auto& t : Tokenize(av.value)) tokens.push_back(std::move(t));
  }
  return tokens;
}

// One category shard's output: matched (offer, product) pairs in offer
// order plus the counter deltas, merged sequentially by the caller.
struct CategoryShard {
  Status status;
  std::vector<std::pair<OfferId, ProductId>> matched;
  size_t offers_considered = 0;
  size_t offers_with_candidates = 0;
};

}  // namespace

TitleOfferProductMatcher::TitleOfferProductMatcher(
    TitleMatcherOptions options)
    : options_(options) {}

Result<MatchStore> TitleOfferProductMatcher::Match(
    const Catalog& catalog, const OfferStore& offers,
    TitleMatcherStats* stats) const {
  PRODSYN_TRACE_SPAN("title_match.bootstrap");
  MatchStore matches;
  if (stats != nullptr) *stats = TitleMatcherStats{};
  MetricsRegistry registry;
  StageCounters* stage = registry.GetStage("title_match.bootstrap");

  // Group offers per category so each category's index is built once.
  std::map<CategoryId, std::vector<const Offer*>> offers_by_category;
  for (const auto& offer : offers.offers()) {
    if (offer.category == kInvalidCategory) continue;
    offers_by_category[offer.category].push_back(&offer);
  }
  std::vector<CategoryId> categories;
  std::vector<const std::vector<const Offer*>*> category_offer_lists;
  categories.reserve(offers_by_category.size());
  category_offer_lists.reserve(offers_by_category.size());
  for (const auto& [category, list] : offers_by_category) {
    categories.push_back(category);
    category_offer_lists.push_back(&list);
  }

  // Each category is one independent shard: build its identifier index
  // and product profiles, then score its offers in input order. Results
  // land in per-category slots, so the sequential merge below is
  // bit-identical for any thread count.
  std::vector<CategoryShard> shards(categories.size());
  const auto process_category = [&](size_t slot) {
    PRODSYN_TRACE_SPAN("title_match.category");
    CategoryShard& shard = shards[slot];
    const CategoryId category = categories[slot];
    const std::vector<const Offer*>& category_offers =
        *category_offer_lists[slot];

    auto schema_result = catalog.schemas().Get(category);
    if (!schema_result.ok()) return;  // category without schema: skip
    const CategorySchema& schema = **schema_result;

    // Identifier-token inverted index + whole normalized identifiers (for
    // codes like "WD740GD" whose token fragments are all short) +
    // per-product documents + corpus.
    std::unordered_map<std::string, std::vector<ProductId>> token_index;
    std::vector<std::pair<std::string, ProductId>> whole_identifiers;
    std::unordered_map<ProductId, std::vector<std::string>> documents;
    TfIdfCorpus corpus;
    for (ProductId pid : catalog.ProductsInCategory(category)) {
      auto product_result = catalog.GetProduct(pid);
      if (!product_result.ok()) {
        shard.status = product_result.status();
        return;
      }
      const Product* product = *product_result;
      auto doc = ProductDocument(*product);
      corpus.AddDocument(doc);
      documents.emplace(pid, std::move(doc));
      for (const auto& av : product->spec) {
        if (!IsIdentifierAttribute(schema, av.name)) continue;
        for (const auto& token : Tokenize(av.value)) {
          if (token.size() < options_.min_identifier_token_length) continue;
          token_index[token].push_back(pid);
        }
        const std::string whole = NormalizeKey(av.value);
        if (whole.size() >= options_.min_identifier_token_length) {
          whole_identifiers.emplace_back(whole, pid);
        }
      }
    }
    if (documents.empty()) return;
    const SoftTfIdf scorer(&corpus, options_.soft_tfidf_threshold);

    // The corpus is complete, so a product's SoftTFIDF profile can be
    // derived once per category instead of once per (offer, candidate)
    // pair. Lazily, though: most products are never retrieved as a
    // candidate, so eager precomputation over `documents` costs more
    // than it saves.
    std::unordered_map<ProductId, SoftTfIdfProfile> profiles;
    const auto profile_of = [&](ProductId pid) -> const SoftTfIdfProfile& {
      auto it = profiles.find(pid);
      if (it == profiles.end()) {
        it = profiles.emplace(pid, scorer.MakeProfile(documents.at(pid)))
                 .first;
      }
      return it->second;
    };

    for (const Offer* offer : category_offers) {
      ++shard.offers_considered;
      const auto title_tokens = Tokenize(offer->title);

      // Candidate retrieval by identifier tokens, then by whole
      // normalized identifier as a substring of the normalized title
      // (catches hyphen/space-mangled codes and short-fragment codes).
      std::set<ProductId> candidates;
      for (const auto& token : title_tokens) {
        auto it = token_index.find(token);
        if (it == token_index.end()) continue;
        candidates.insert(it->second.begin(), it->second.end());
      }
      const std::string normalized_title = NormalizeKey(offer->title);
      for (const auto& [identifier, pid] : whole_identifiers) {
        if (normalized_title.find(identifier) != std::string::npos) {
          candidates.insert(pid);
        }
      }
      if (candidates.empty()) continue;
      ++shard.offers_with_candidates;

      const SoftTfIdfProfile title_profile = scorer.MakeProfile(title_tokens);
      ProductId best = kInvalidProduct;
      double best_score = options_.min_score;
      for (ProductId pid : candidates) {
        const double score = scorer.Similarity(title_profile, profile_of(pid));
        if (score > best_score ||
            (score == best_score && best != kInvalidProduct && pid < best)) {
          best = pid;
          best_score = score;
        }
      }
      if (best != kInvalidProduct) {
        shard.matched.emplace_back(offer->id, best);
      }
    }
  };

  // The pool (when one runs) outlives the sequential merge below so its
  // scheduler snapshot can attribute the merge wall to the region.
  const std::unique_ptr<ThreadPool> pool =
      ThreadPool::ForItems(options_.threads, categories.size());
  ThreadPool* const pool_ptr = pool.get();
  // process_category writes only its slot of the per-category results;
  // the inputs are read-only. // lint: sharded
  ThreadPool::ParallelFor(
      pool_ptr, "title_match", categories.size(), kCategoryGrain,
      [&](size_t begin, size_t end) {
        ScopedStageTimer timer(stage);
        for (size_t slot = begin; slot < end; ++slot) process_category(slot);
      });

  // Sequential merge in sorted category order, offers in input order —
  // the exact order the sequential implementation produced.
  size_t offers_considered = 0;
  {
    ScopedMergeTimer merge_timer(pool_ptr, "title_match");
    for (const CategoryShard& shard : shards) {
      PRODSYN_RETURN_NOT_OK(shard.status);
      offers_considered += shard.offers_considered;
      if (stats != nullptr) {
        stats->offers_considered += shard.offers_considered;
        stats->offers_with_candidates += shard.offers_with_candidates;
        stats->matches_made += shard.matched.size();
      }
      for (const auto& [offer_id, product_id] : shard.matched) {
        PRODSYN_RETURN_NOT_OK(matches.AddMatch(offer_id, product_id));
      }
    }
  }
  stage->AddItems(offers_considered);
  registry.SetGauge("title_match.categories",
                    static_cast<int64_t>(categories.size()));
  if (pool_ptr != nullptr && pool_ptr->sched_stats_enabled()) {
    PublishSchedStats(pool_ptr->SchedSnapshot(), &registry);
  } else {
    PublishTraceDrops(&registry);
  }
  if (stats != nullptr) {
    stats->registry = registry.Snapshot();
    stats->stage_metrics = stats->registry.stages;
  }
  return matches;
}

}  // namespace prodsyn
