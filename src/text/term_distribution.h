// Bags of words and the term probability distributions built from them
// (paper §3.1: p_A(t) = count(t in A) / |A|).

#ifndef PRODSYN_TEXT_TERM_DISTRIBUTION_H_
#define PRODSYN_TEXT_TERM_DISTRIBUTION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/text/tokenizer.h"

namespace prodsyn {

/// \brief A multiset of terms with O(1) add and total-count tracking.
class BagOfWords {
 public:
  BagOfWords() = default;

  /// \brief Adds one occurrence of `term`.
  void Add(std::string term);

  /// \brief Tokenizes `text` and adds every token.
  void AddText(std::string_view text, const TokenizerOptions& options = {});

  /// \brief Merges all counts of `other` into this bag.
  void Merge(const BagOfWords& other);

  /// \brief Occurrences of `term` (0 if absent).
  uint64_t Count(const std::string& term) const;

  /// \brief Sum of all counts.
  uint64_t TotalCount() const { return total_; }

  /// \brief Number of distinct terms.
  size_t DistinctCount() const { return counts_.size(); }

  bool empty() const { return total_ == 0; }

  const std::unordered_map<std::string, uint64_t>& counts() const {
    return counts_;
  }

 private:
  std::unordered_map<std::string, uint64_t> counts_;
  uint64_t total_ = 0;
};

/// \brief Normalized term distribution: p(t) = count(t) / total.
///
/// Immutable once constructed from a bag; exposes probability lookups and
/// the support needed by divergence computations.
class TermDistribution {
 public:
  TermDistribution() = default;
  explicit TermDistribution(const BagOfWords& bag);

  /// \brief p(term); 0 for unseen terms.
  double Probability(const std::string& term) const;

  bool empty() const { return probs_.empty(); }
  size_t support_size() const { return probs_.size(); }

  const std::unordered_map<std::string, double>& probabilities() const {
    return probs_;
  }

 private:
  std::unordered_map<std::string, double> probs_;
};

/// \brief Jaccard coefficient |A ∩ B| / |A ∪ B| over the *distinct term
/// sets* of two bags (paper §3.1 "considers only counts for the different
/// terms"). Returns 0 when both bags are empty.
double JaccardCoefficient(const BagOfWords& a, const BagOfWords& b);

/// \brief Dice coefficient 2|A∩B| / (|A|+|B|) over distinct term sets.
double DiceCoefficient(const BagOfWords& a, const BagOfWords& b);

/// \brief Cosine similarity of raw term-count vectors.
double CosineSimilarity(const BagOfWords& a, const BagOfWords& b);

}  // namespace prodsyn

#endif  // PRODSYN_TEXT_TERM_DISTRIBUTION_H_
