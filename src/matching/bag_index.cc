#include "src/matching/bag_index.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "src/util/check.h"
#include "src/util/thread_pool.h"
#include "src/util/trace.h"

namespace prodsyn {

namespace {

// ParallelFor grain of the build sweeps: each item is already a whole
// (merchant, category) group, product or bag, and groups inherit the Zipf
// skew of the offer distribution, so workers claim them individually.
constexpr size_t kBuildGrain = 1;

// Group key components that are irrelevant at a level are pinned to -1 so
// that e.g. the kCategory bag of an attribute is shared by all merchants.
void NormalizeGroupIds(GroupLevel level, MerchantId* merchant,
                       CategoryId* category) {
  switch (level) {
    case GroupLevel::kMerchantCategory:
      break;
    case GroupLevel::kCategory:
      *merchant = kInvalidMerchant;
      break;
    case GroupLevel::kMerchant:
      *category = kInvalidCategory;
      break;
  }
}

// Packs a (merchant, category) pair into one uint64_t. The casts through
// uint32_t are bijective on the int32 id types, so distinct pairs can
// never alias (unlike the separator-joined string keys this replaced).
uint64_t PackGroup(MerchantId merchant, CategoryId category) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(merchant)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(category));
}

// One product's spec tokenized once: a bag per distinct attribute name,
// in first-appearance order so merges are deterministic.
struct ProductProfile {
  std::vector<std::pair<Symbol, BagOfWords>> attr_bags;
};

}  // namespace

PackedKey128 MatchedBagIndex::Key(GroupLevel level, Symbol attr,
                                  MerchantId merchant, CategoryId category) {
  NormalizeGroupIds(level, &merchant, &category);
  PackedKey128 key;
  key.hi = PackGroup(merchant, category);
  key.lo = (static_cast<uint64_t>(level) << 32) | static_cast<uint64_t>(attr);
  return key;
}

Result<MatchedBagIndex> MatchedBagIndex::Build(const MatchingContext& ctx,
                                               const BagIndexOptions& options,
                                               StageCounters* metrics,
                                               ThreadPool* pool) {
  PRODSYN_TRACE_SPAN("bag_index.build");
  ScopedStageTimer timer(metrics);
  if (ctx.catalog == nullptr || ctx.offers == nullptr ||
      ctx.matches == nullptr) {
    return Status::InvalidArgument(
        "MatchingContext requires catalog, offers, and matches");
  }
  MatchedBagIndex index;
  // Build() *is* the interner's build phase: every Intern() below runs on
  // this thread, and the parallel shards in between are Lookup-only (the
  // pool workers never intern). Holding the phase for the whole function
  // makes the clang-tsa build prove exactly that.
  PhaseLock intern_phase(index.interner_.build_phase());

  const std::vector<CategoryId> categories = EffectiveCategories(ctx);
  const std::set<CategoryId> category_set(categories.begin(),
                                          categories.end());

  // --- Sequential scan: group offers per (M, C), intern every attribute
  // name, and collect the matched-product sets. Ordered containers keep
  // the later merges and candidate enumeration deterministic. All
  // Intern() calls happen in this phase and the candidate pass below, so
  // the parallel shards see a frozen interner (Lookup only).
  std::map<std::pair<MerchantId, CategoryId>, std::vector<const Offer*>>
      offers_by_group;
  std::map<std::pair<MerchantId, CategoryId>, std::set<std::string>>
      offer_attr_names;
  std::map<std::pair<MerchantId, CategoryId>, std::set<ProductId>>
      matched_products_mc;
  std::map<CategoryId, std::set<ProductId>> matched_products_c;
  std::map<MerchantId, std::set<ProductId>> matched_products_m;
  std::map<MerchantId, std::set<CategoryId>> merchant_categories;

  size_t offers_scanned = 0;
  for (const auto& offer : ctx.offers->offers()) {
    if (offer.category == kInvalidCategory ||
        category_set.count(offer.category) == 0) {
      continue;
    }
    ++offers_scanned;
    const auto mc = std::make_pair(offer.merchant, offer.category);
    offers_by_group[mc].push_back(&offer);
    merchant_categories[offer.merchant].insert(offer.category);
    auto& names = offer_attr_names[mc];
    for (const auto& av : offer.spec) {
      names.insert(av.name);
      index.interner_.Intern(av.name);
    }
    const ProductId matched = ctx.matches->ProductOf(offer.id);
    if (matched != kInvalidProduct) {
      matched_products_mc[mc].insert(matched);
      matched_products_c[offer.category].insert(matched);
      matched_products_m[offer.merchant].insert(matched);
    }
  }
  if (metrics != nullptr) metrics->AddItems(offers_scanned);

  // --- Product working set: every product any group draws from, resolved
  // to records (and its spec names interned) sequentially so the parallel
  // tokenization below is error-free and lookup-only.
  std::set<ProductId> product_ids;
  if (options.restrict_products_to_matches) {
    // The per-category sets jointly cover every matched product.
    for (const auto& [category, pids] : matched_products_c) {
      (void)category;
      product_ids.insert(pids.begin(), pids.end());
    }
  } else {
    for (CategoryId category : categories) {
      const auto& pids = ctx.catalog->ProductsInCategory(category);
      product_ids.insert(pids.begin(), pids.end());
    }
  }
  std::vector<const Product*> products;
  products.reserve(product_ids.size());
  std::unordered_map<ProductId, size_t> product_slot;
  product_slot.reserve(product_ids.size());
  for (ProductId pid : product_ids) {
    PRODSYN_ASSIGN_OR_RETURN(const Product* product, ctx.catalog->GetProduct(pid));
    product_slot.emplace(pid, products.size());
    products.push_back(product);
    for (const auto& av : product->spec) index.interner_.Intern(av.name);
  }

  // --- Parallel tokenization. Each (M, C) shard builds its own
  // symbol-keyed offer bags; each product's spec becomes one profile.
  // Both are per-index slots, so the result is independent of how
  // ParallelFor chunks the ranges.
  std::vector<std::pair<MerchantId, CategoryId>> group_list;
  std::vector<const std::vector<const Offer*>*> group_offers;
  group_list.reserve(offers_by_group.size());
  group_offers.reserve(offers_by_group.size());
  for (const auto& [mc, list] : offers_by_group) {
    group_list.push_back(mc);
    group_offers.push_back(&list);
  }

  // A private pool is sized by the group and product sweeps; workers
  // beyond both counts would idle in them.
  std::unique_ptr<ThreadPool> owned_pool;
  if (pool == nullptr) {
    owned_pool = ThreadPool::ForItems(
        options.build_threads, std::max(group_list.size(), products.size()));
    pool = owned_pool.get();
  }

  std::vector<std::unordered_map<Symbol, BagOfWords>> offer_shards(
      group_list.size());
  // Per-index slots: chunk g writes only offer_shards[g]; the interner is
  // frozen for lookup. // lint: sharded
  auto tokenize_groups = [&](size_t begin, size_t end) {
    for (size_t g = begin; g < end; ++g) {
      auto& bags = offer_shards[g];
      for (const Offer* offer : *group_offers[g]) {
        for (const auto& av : offer->spec) {
          bags[index.interner_.Lookup(av.name)].AddText(av.value,
                                                        options.tokenizer);
        }
      }
    }
  };
  ThreadPool::ParallelFor(pool, "bag_index.build", group_list.size(),
                          kBuildGrain, tokenize_groups);

  std::vector<ProductProfile> profiles(products.size());
  // Per-index slots: chunk i writes only profiles[i]. // lint: sharded
  auto profile_products = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      auto& profile = profiles[i].attr_bags;
      for (const auto& av : products[i]->spec) {
        const Symbol sym = index.interner_.Lookup(av.name);
        auto it = std::find_if(
            profile.begin(), profile.end(),
            [sym](const auto& entry) { return entry.first == sym; });
        if (it == profile.end()) {
          profile.emplace_back(sym, BagOfWords{});
          it = std::prev(profile.end());
        }
        it->second.AddText(av.value, options.tokenizer);
      }
    }
  };
  ThreadPool::ParallelFor(pool, "bag_index.build", products.size(),
                          kBuildGrain, profile_products);

  // --- Sequential merges, in sorted group order: shard bags become the
  // kMerchantCategory bags and fold into the kCategory / kMerchant bags,
  // so every level's map layout is a deterministic function of the input
  // alone (thread-count-invariant).
  for (size_t g = 0; g < group_list.size(); ++g) {
    const auto [merchant, category] = group_list[g];
    // Commutative fold: Merge() adds token counts and the kMC move targets
    // one distinct key per sym, so shard order cannot matter.
    // lint: order-independent
    for (auto& [sym, bag] : offer_shards[g]) {
      index.offer_bags_.bags[Key(GroupLevel::kCategory, sym, merchant,
                                 category)]
          .Merge(bag);
      index.offer_bags_.bags[Key(GroupLevel::kMerchant, sym, merchant,
                                 category)]
          .Merge(bag);
      index.offer_bags_.bags[Key(GroupLevel::kMerchantCategory, sym, merchant,
                                 category)] = std::move(bag);
    }
  }

  const auto merge_profile = [&](ProductId pid, GroupLevel level,
                                 MerchantId merchant, CategoryId category) {
    const ProductProfile& profile = profiles[product_slot.at(pid)];
    for (const auto& [sym, bag] : profile.attr_bags) {
      index.product_bags_.bags[Key(level, sym, merchant, category)].Merge(bag);
    }
  };
  if (options.restrict_products_to_matches) {
    for (const auto& [mc, pids] : matched_products_mc) {
      for (ProductId pid : pids) {
        merge_profile(pid, GroupLevel::kMerchantCategory, mc.first, mc.second);
      }
    }
    for (const auto& [category, pids] : matched_products_c) {
      for (ProductId pid : pids) {
        merge_profile(pid, GroupLevel::kCategory, kInvalidMerchant, category);
      }
    }
    for (const auto& [merchant, pids] : matched_products_m) {
      for (ProductId pid : pids) {
        merge_profile(pid, GroupLevel::kMerchant, merchant, kInvalidCategory);
      }
    }
  } else {
    // Fig. 7 baseline: all products of each category, regardless of matches.
    for (CategoryId category : categories) {
      for (ProductId pid : ctx.catalog->ProductsInCategory(category)) {
        merge_profile(pid, GroupLevel::kCategory, kInvalidMerchant, category);
      }
    }
    // Per-(M,C) bags coincide with the per-category bags; per-merchant bags
    // union the categories the merchant sells in.
    for (const auto& [mc, names] : offer_attr_names) {
      (void)names;
      for (ProductId pid : ctx.catalog->ProductsInCategory(mc.second)) {
        merge_profile(pid, GroupLevel::kMerchantCategory, mc.first, mc.second);
      }
    }
    for (const auto& [merchant, cats] : merchant_categories) {
      std::set<ProductId> seen;
      for (CategoryId category : cats) {
        for (ProductId pid : ctx.catalog->ProductsInCategory(category)) {
          if (!seen.insert(pid).second) continue;
          merge_profile(pid, GroupLevel::kMerchant, merchant,
                        kInvalidCategory);
        }
      }
    }
  }

  // --- Distributions: normalization is per-bag pure work, so it runs in
  // parallel over slots and lands in the dists map in bag-map iteration
  // order (deterministic given the merge order above).
  for (auto* side : {&index.product_bags_, &index.offer_bags_}) {
    std::vector<std::pair<const PackedKey128*, const BagOfWords*>> entries;
    entries.reserve(side->bags.size());
    // Whatever order the bag map yields is deterministic here: its layout
    // is fixed by the sequential merges above, and dists mirrors bags
    // entry-for-entry regardless of enumeration order.
    // lint: order-independent
    for (const auto& [key, bag] : side->bags) {
      entries.emplace_back(&key, &bag);
    }
    std::vector<TermDistribution> dists(entries.size());
    // Per-index slots: chunk i writes only dists[i]. // lint: sharded
    ThreadPool::ParallelFor(
        pool, "bag_index.build", entries.size(), kBuildGrain,
        [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            // A bag only exists because AddText inserted at least one
            // token, and FeatureComputer relies on bag↔dist pairing
            // (ComputeLevel).
            PRODSYN_DCHECK(entries[i].second->TotalCount() > 0);
            dists[i] = TermDistribution(*entries[i].second);
          }
        });
    side->dists.reserve(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      side->dists.emplace(*entries[i].first, std::move(dists[i]));
    }
    PRODSYN_DCHECK_EQ(side->dists.size(), side->bags.size());
  }

  // --- Candidates: schema attrs × observed offer attrs per (M, C).
  for (const auto& [mc, names] : offer_attr_names) {
    const auto [merchant, category] = mc;
    PRODSYN_DCHECK(merchant != kInvalidMerchant);
    PRODSYN_DCHECK(category != kInvalidCategory);
    index.merchant_categories_.emplace_back(merchant, category);
    auto schema_result = ctx.catalog->schemas().Get(category);
    if (!schema_result.ok()) continue;  // category without schema: skip
    const CategorySchema* schema = schema_result.ValueOrDie();
    const auto& name_list =
        index.offer_attrs_
            .emplace(PackGroup(merchant, category),
                     std::vector<std::string>(names.begin(), names.end()))
            .first->second;
    for (const auto& def : schema->attributes()) {
      index.interner_.Intern(def.name);
      for (const auto& offer_attr : name_list) {
        index.candidates_.push_back(
            CandidateTuple{def.name, offer_attr, merchant, category});
      }
    }
  }

  return index;
}

const BagOfWords* MatchedBagIndex::ProductBag(GroupLevel level,
                                              const std::string& attr,
                                              MerchantId merchant,
                                              CategoryId category) const {
  return ProductBag(level, interner_.Lookup(attr), merchant, category);
}

const BagOfWords* MatchedBagIndex::OfferBag(GroupLevel level,
                                            const std::string& attr,
                                            MerchantId merchant,
                                            CategoryId category) const {
  return OfferBag(level, interner_.Lookup(attr), merchant, category);
}

const TermDistribution* MatchedBagIndex::ProductDist(
    GroupLevel level, const std::string& attr, MerchantId merchant,
    CategoryId category) const {
  return ProductDist(level, interner_.Lookup(attr), merchant, category);
}

const TermDistribution* MatchedBagIndex::OfferDist(GroupLevel level,
                                                   const std::string& attr,
                                                   MerchantId merchant,
                                                   CategoryId category) const {
  return OfferDist(level, interner_.Lookup(attr), merchant, category);
}

const BagOfWords* MatchedBagIndex::ProductBag(GroupLevel level, Symbol attr,
                                              MerchantId merchant,
                                              CategoryId category) const {
  auto it = product_bags_.bags.find(Key(level, attr, merchant, category));
  return it == product_bags_.bags.end() ? nullptr : &it->second;
}

const BagOfWords* MatchedBagIndex::OfferBag(GroupLevel level, Symbol attr,
                                            MerchantId merchant,
                                            CategoryId category) const {
  auto it = offer_bags_.bags.find(Key(level, attr, merchant, category));
  return it == offer_bags_.bags.end() ? nullptr : &it->second;
}

const TermDistribution* MatchedBagIndex::ProductDist(
    GroupLevel level, Symbol attr, MerchantId merchant,
    CategoryId category) const {
  auto it = product_bags_.dists.find(Key(level, attr, merchant, category));
  return it == product_bags_.dists.end() ? nullptr : &it->second;
}

const TermDistribution* MatchedBagIndex::OfferDist(GroupLevel level,
                                                   Symbol attr,
                                                   MerchantId merchant,
                                                   CategoryId category) const {
  auto it = offer_bags_.dists.find(Key(level, attr, merchant, category));
  return it == offer_bags_.dists.end() ? nullptr : &it->second;
}

const std::vector<std::string>& MatchedBagIndex::OfferAttributes(
    MerchantId merchant, CategoryId category) const {
  static const std::vector<std::string> kEmpty;
  auto it = offer_attrs_.find(PackGroup(merchant, category));
  return it == offer_attrs_.end() ? kEmpty : it->second;
}

size_t MatchedBagIndex::bag_count() const {
  return product_bags_.bags.size() + offer_bags_.bags.size();
}

}  // namespace prodsyn
