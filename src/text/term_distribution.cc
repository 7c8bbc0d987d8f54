#include "src/text/term_distribution.h"

#include <cmath>

#include "src/util/check.h"

namespace prodsyn {

void BagOfWords::Add(std::string term) {
  ++counts_[std::move(term)];
  ++total_;
}

void BagOfWords::AddText(std::string_view text,
                         const TokenizerOptions& options) {
  for (auto& token : Tokenize(text, options)) Add(std::move(token));
}

void BagOfWords::Merge(const BagOfWords& other) {
  for (const auto& [term, count] : other.counts_) {
    counts_[term] += count;
  }
  total_ += other.total_;
}

uint64_t BagOfWords::Count(const std::string& term) const {
  auto it = counts_.find(term);
  return it == counts_.end() ? 0 : it->second;
}

TermDistribution::TermDistribution(const BagOfWords& bag) {
  if (bag.TotalCount() == 0) return;
  const double total = static_cast<double>(bag.TotalCount());
  probs_.reserve(bag.counts().size());
  for (const auto& [term, count] : bag.counts()) {
    PRODSYN_DCHECK(count > 0 && count <= bag.TotalCount());
    const double p = static_cast<double>(count) / total;
    PRODSYN_DCHECK_PROB(p);
    probs_.emplace(term, p);
  }
}

double TermDistribution::Probability(const std::string& term) const {
  auto it = probs_.find(term);
  const double p = it == probs_.end() ? 0.0 : it->second;
  PRODSYN_DCHECK_PROB(p);
  return p;
}

double JaccardCoefficient(const BagOfWords& a, const BagOfWords& b) {
  if (a.DistinctCount() == 0 && b.DistinctCount() == 0) return 0.0;
  // Iterate over the smaller map for the intersection.
  const BagOfWords& small = a.DistinctCount() <= b.DistinctCount() ? a : b;
  const BagOfWords& large = a.DistinctCount() <= b.DistinctCount() ? b : a;
  size_t intersection = 0;
  for (const auto& [term, count] : small.counts()) {
    (void)count;
    if (large.Count(term) > 0) ++intersection;
  }
  PRODSYN_DCHECK(intersection <= small.DistinctCount());
  const size_t uni = a.DistinctCount() + b.DistinctCount() - intersection;
  const double jaccard =
      uni == 0 ? 0.0
               : static_cast<double>(intersection) / static_cast<double>(uni);
  PRODSYN_DCHECK_PROB(jaccard);
  return jaccard;
}

double DiceCoefficient(const BagOfWords& a, const BagOfWords& b) {
  const size_t denom = a.DistinctCount() + b.DistinctCount();
  if (denom == 0) return 0.0;
  const BagOfWords& small = a.DistinctCount() <= b.DistinctCount() ? a : b;
  const BagOfWords& large = a.DistinctCount() <= b.DistinctCount() ? b : a;
  size_t intersection = 0;
  for (const auto& [term, count] : small.counts()) {
    (void)count;
    if (large.Count(term) > 0) ++intersection;
  }
  const double dice =
      2.0 * static_cast<double>(intersection) / static_cast<double>(denom);
  PRODSYN_DCHECK_PROB(dice);
  return dice;
}

double CosineSimilarity(const BagOfWords& a, const BagOfWords& b) {
  if (a.empty() || b.empty()) return 0.0;
  double dot = 0.0;
  const BagOfWords& small = a.DistinctCount() <= b.DistinctCount() ? a : b;
  const BagOfWords& large = a.DistinctCount() <= b.DistinctCount() ? b : a;
  for (const auto& [term, count] : small.counts()) {
    const uint64_t other = large.Count(term);
    if (other > 0) {
      dot += static_cast<double>(count) * static_cast<double>(other);
    }
  }
  double na = 0.0, nb = 0.0;
  for (const auto& [term, count] : a.counts()) {
    (void)term;
    na += static_cast<double>(count) * static_cast<double>(count);
  }
  for (const auto& [term, count] : b.counts()) {
    (void)term;
    nb += static_cast<double>(count) * static_cast<double>(count);
  }
  const double cosine = dot / (std::sqrt(na) * std::sqrt(nb));
  PRODSYN_DCHECK_FINITE(cosine);
  PRODSYN_DCHECK(cosine >= 0.0 && cosine <= 1.0 + 1e-9);
  return cosine;
}

}  // namespace prodsyn
