#include "src/text/soft_tfidf.h"

#include <algorithm>

#include "src/text/jaro_winkler.h"
#include "src/util/check.h"

namespace prodsyn {

SoftTfIdf::SoftTfIdf(const TfIdfCorpus* corpus, double threshold)
    : corpus_(corpus), threshold_(threshold) {
  PRODSYN_CHECK(corpus != nullptr);
  PRODSYN_DCHECK_PROB(threshold);
}

SoftTfIdfProfile SoftTfIdf::MakeProfile(
    const std::vector<std::string>& tokens) const {
  SoftTfIdfProfile profile;
  profile.weights = corpus_->WeightVector(tokens);
  profile.distinct_tokens.reserve(profile.weights.size());
  for (const auto& [term, weight] : profile.weights) {
    (void)weight;
    profile.distinct_tokens.push_back(term);
  }
  return profile;
}

double SoftTfIdf::Similarity(const std::vector<std::string>& a,
                             const std::vector<std::string>& b) const {
  if (a.empty() || b.empty()) return 0.0;
  return Similarity(MakeProfile(a), MakeProfile(b));
}

double SoftTfIdf::Similarity(const SoftTfIdfProfile& a,
                             const SoftTfIdfProfile& b) const {
  if (a.empty() || b.empty()) return 0.0;
  double score = 0.0;
  // Accumulate in distinct_tokens order, not weights-map order: float
  // accumulation order is then a property of the profile (its token
  // order), not of the map's bucket layout.
  for (const auto& wa : a.distinct_tokens) {
    const double weight_a = a.weights.at(wa);
    double best_sim = 0.0;
    const std::string* best_token = nullptr;
    for (const auto& tb : b.distinct_tokens) {
      const double sim = JaroWinklerSimilarity(wa, tb);
      if (sim > best_sim) {
        best_sim = sim;
        best_token = &tb;
      }
    }
    if (best_sim >= threshold_ && best_token != nullptr) {
      score += weight_a * b.weights.at(*best_token) * best_sim;
    }
  }
  // Weight vectors are L2-normalized and Jaro-Winkler is in [0,1], so the
  // raw score is non-negative; the clamp only trims rounding above 1.
  PRODSYN_DCHECK(score >= 0.0);
  const double sim = std::min(score, 1.0);
  PRODSYN_DCHECK_PROB(sim);
  return sim;
}

}  // namespace prodsyn
