// MatchedBagIndex — the workhorse of paper §3.1.
//
// For every (attribute, group) it assembles the bag of words of attribute
// values, where groups are (merchant, category), (category), (merchant).
// Offer bags draw from all offers in the group; product bags draw only
// from catalog products that HISTORICALLY MATCH offers of the group (the
// paper's key idea — set restrict_products_to_matches=false to get the
// Fig. 7 baseline that uses all products of the category).
//
// It also enumerates the candidate tuples ⟨Ap, Ao, M, C⟩: Ap ranges over
// the schema of C, Ao over attribute names observed in offers of M in C.
//
// Representation: attribute names are interned into dense Symbols by a
// per-index StringInterner, and every bag/distribution is keyed by a
// packed PackedKey128 (merchant, category | level, Symbol) — integer
// hashing in the hot lookups instead of string concatenation, and immune
// to the separator-aliasing hazard of concatenated keys. The interner is
// populated only inside Build() (sequentially); after Build returns it is
// a frozen snapshot, so any number of threads may use the index
// concurrently (FeatureComputer relies on this).
//
// Build() parallelizes per (merchant, category) shard on a ThreadPool and
// merges the shards sequentially in sorted (M, C) order, so bags, dists,
// and candidates() are bit-identical for any build_threads value.

#ifndef PRODSYN_MATCHING_BAG_INDEX_H_
#define PRODSYN_MATCHING_BAG_INDEX_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/matching/types.h"
#include "src/text/divergence.h"
#include "src/text/term_distribution.h"
#include "src/util/interner.h"
#include "src/util/result.h"
#include "src/util/stage_metrics.h"
#include "src/util/thread_pool.h"

namespace prodsyn {

/// \brief Options controlling bag construction.
struct BagIndexOptions {
  /// The paper's approach: product bags contain only products that match
  /// offers of the group. False reproduces the "No matching" baseline.
  bool restrict_products_to_matches = true;
  TokenizerOptions tokenizer;
  /// Threads for the per-(merchant, category) build shards; 0 = hardware
  /// default. Output is bit-identical for any value (sequential merge in
  /// sorted group order).
  size_t build_threads = 1;
};

/// \brief Immutable bag/distribution index over one MatchingContext.
class MatchedBagIndex {
 public:
  /// \brief Builds the index; tokenizes each offer value and each matched
  /// product spec once, then derives the three grouping levels by merging.
  /// `metrics`, when non-null, receives the build's wall/CPU time and the
  /// number of offers scanned (items). `pool` is an optional externally
  /// owned pool to run the shards on (ClassifierMatcher shares its one
  /// pool with LR training and scoring, so the `bag_index.build` region
  /// lands in that pool's scheduler snapshot); when null, Build sizes a
  /// private pool from `options.build_threads`.
  static Result<MatchedBagIndex> Build(const MatchingContext& ctx,
                                       const BagIndexOptions& options = {},
                                       StageCounters* metrics = nullptr,
                                       ThreadPool* pool = nullptr);

  /// \brief Bag of values of catalog attribute `attr` for the group; null
  /// when the group produced no values.
  const BagOfWords* ProductBag(GroupLevel level, const std::string& attr,
                               MerchantId merchant, CategoryId category) const;

  /// \brief Bag of values of offer attribute `attr` for the group.
  const BagOfWords* OfferBag(GroupLevel level, const std::string& attr,
                             MerchantId merchant, CategoryId category) const;

  /// \brief Term distribution of the product bag (null if no bag).
  const TermDistribution* ProductDist(GroupLevel level, const std::string& attr,
                                      MerchantId merchant,
                                      CategoryId category) const;

  /// \brief Term distribution of the offer bag (null if no bag).
  const TermDistribution* OfferDist(GroupLevel level, const std::string& attr,
                                    MerchantId merchant,
                                    CategoryId category) const;

  /// \name Symbol-keyed lookups
  /// The hot path of FeatureComputer: resolve the attribute name once via
  /// AttrSymbol(), then look bags up by integer key. kInvalidSymbol (or a
  /// symbol with no bag in the group) yields null.
  /// @{
  const BagOfWords* ProductBag(GroupLevel level, Symbol attr,
                               MerchantId merchant, CategoryId category) const;
  const BagOfWords* OfferBag(GroupLevel level, Symbol attr,
                             MerchantId merchant, CategoryId category) const;
  const TermDistribution* ProductDist(GroupLevel level, Symbol attr,
                                      MerchantId merchant,
                                      CategoryId category) const;
  const TermDistribution* OfferDist(GroupLevel level, Symbol attr,
                                    MerchantId merchant,
                                    CategoryId category) const;
  /// @}

  /// \brief Symbol of an attribute name seen during Build (offer attrs,
  /// matched-product spec attrs, schema attrs), else kInvalidSymbol.
  Symbol AttrSymbol(std::string_view attr) const {
    return interner_.Lookup(attr);
  }

  /// \brief The frozen attribute-name interner (const-only after Build).
  const StringInterner& interner() const { return interner_; }

  /// \brief All candidate tuples, grouped deterministically by (C, M).
  const std::vector<CandidateTuple>& candidates() const { return candidates_; }

  /// \brief Offer attribute names observed for (merchant, category).
  const std::vector<std::string>& OfferAttributes(MerchantId merchant,
                                                  CategoryId category) const;

  /// \brief The (merchant, category) pairs with at least one offer.
  const std::vector<std::pair<MerchantId, CategoryId>>& merchant_categories()
      const {
    return merchant_categories_;
  }

  /// \brief Number of distinct (attribute, group) bags held.
  size_t bag_count() const;

 private:
  struct BagMap {
    std::unordered_map<PackedKey128, BagOfWords, PackedKey128Hash> bags;
    std::unordered_map<PackedKey128, TermDistribution, PackedKey128Hash> dists;
  };

  /// Packs the normalized group ids and (level, attr) into the map key.
  static PackedKey128 Key(GroupLevel level, Symbol attr, MerchantId merchant,
                          CategoryId category);

  const BagMap& ForSide(bool product_side) const {
    return product_side ? product_bags_ : offer_bags_;
  }

  StringInterner interner_;
  BagMap product_bags_;
  BagMap offer_bags_;
  std::vector<CandidateTuple> candidates_;
  std::unordered_map<uint64_t, std::vector<std::string>, U64Hash> offer_attrs_;
  std::vector<std::pair<MerchantId, CategoryId>> merchant_categories_;
};

}  // namespace prodsyn

#endif  // PRODSYN_MATCHING_BAG_INDEX_H_
