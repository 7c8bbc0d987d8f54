#include "src/ml/naive_bayes.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_set>
#include <utility>

namespace prodsyn {

namespace {

// The scoring terms, defined once: MultinomialNaiveBayes::LogScoreFor and
// CompiledNaiveBayes::Compile both compute through these, so the two
// forms hold the same doubles (see the header's bit-identity argument).
double LogPrior(uint64_t documents, uint64_t total_documents) {
  return std::log(static_cast<double>(documents) /
                  static_cast<double>(total_documents));
}

double Denominator(uint64_t total_tokens, double alpha, size_t vocab_size) {
  const double vocab = static_cast<double>(std::max<size_t>(1, vocab_size));
  return static_cast<double>(total_tokens) + alpha * vocab;
}

double LogLikelihood(double count, double alpha, double denom) {
  return std::log((count + alpha) / denom);
}

// Arg-max over class scores in class order, ties to the earlier class.
// The -1e300 floor is the reference's; a validated model never scores
// below it.
Result<size_t> ArgMax(const std::vector<double>& scores) {
  double best = -1e300;
  size_t best_index = scores.size();
  for (size_t c = 0; c < scores.size(); ++c) {
    if (scores[c] > best) {
      best = scores[c];
      best_index = c;
    }
  }
  if (best_index == scores.size()) {
    return Status::FailedPrecondition(
        "naive Bayes: no class has a score above -1e300");
  }
  return best_index;
}

}  // namespace

Status ValidateNaiveBayesModel(const NaiveBayesModel& model) {
  if (!std::isfinite(model.alpha) || model.alpha <= 0.0) {
    return Status::InvalidArgument(
        "naive-Bayes smoothing alpha must be finite and > 0, got " +
        std::to_string(model.alpha));
  }
  uint64_t documents = 0;
  std::unordered_set<std::string_view> labels;
  labels.reserve(model.classes.size());
  for (const auto& state : model.classes) {
    if (!labels.insert(state.label).second) {
      return Status::InvalidArgument("duplicate naive-Bayes class label '" +
                                     state.label + "'");
    }
    if (state.documents == 0) {
      return Status::InvalidArgument("naive-Bayes class '" + state.label +
                                     "' has no documents");
    }
    if (state.documents > model.total_documents - documents) {
      return Status::InvalidArgument(
          "naive-Bayes class documents exceed total_documents " +
          std::to_string(model.total_documents));
    }
    documents += state.documents;
  }
  if (documents != model.total_documents) {
    return Status::InvalidArgument(
        "naive-Bayes class documents sum to " + std::to_string(documents) +
        ", not total_documents " + std::to_string(model.total_documents));
  }
  for (size_t i = 1; i < model.vocabulary.size(); ++i) {
    if (!(model.vocabulary[i - 1] < model.vocabulary[i])) {
      return Status::InvalidArgument(
          "naive-Bayes vocabulary is not strictly sorted at entry " +
          std::to_string(i));
    }
  }
  return Status::OK();
}

void MultinomialNaiveBayes::AddDocument(
    const std::string& label, const std::vector<std::string>& tokens) {
  auto [it, inserted] = classes_.try_emplace(label);
  if (inserted) class_names_.push_back(label);
  ClassStats& stats = it->second;
  ++stats.documents;
  ++total_documents_;
  for (const auto& t : tokens) {
    ++stats.token_counts[t];
    ++stats.total_tokens;
    vocabulary_.try_emplace(t, true);
  }
}

const MultinomialNaiveBayes::ClassStats* MultinomialNaiveBayes::Find(
    const std::string& label) const {
  auto it = classes_.find(label);
  return it == classes_.end() ? nullptr : &it->second;
}

double MultinomialNaiveBayes::LogScoreFor(
    const ClassStats& stats, const std::vector<std::string>& tokens) const {
  double score = LogPrior(stats.documents, total_documents_);
  const double denom =
      Denominator(stats.total_tokens, alpha_, vocabulary_.size());
  for (const auto& t : tokens) {
    auto it = stats.token_counts.find(t);
    const double count =
        it == stats.token_counts.end() ? 0.0 : static_cast<double>(it->second);
    score += LogLikelihood(count, alpha_, denom);
  }
  return score;
}

Result<double> MultinomialNaiveBayes::LogScore(
    const std::string& label, const std::vector<std::string>& tokens) const {
  if (total_documents_ == 0) {
    return Status::FailedPrecondition("naive Bayes has no training data");
  }
  const ClassStats* stats = Find(label);
  if (stats == nullptr) {
    return Status::NotFound("unknown class '" + label + "'");
  }
  return LogScoreFor(*stats, tokens);
}

Result<std::vector<double>> MultinomialNaiveBayes::Posteriors(
    const std::vector<std::string>& tokens) const {
  if (total_documents_ == 0) {
    return Status::FailedPrecondition("naive Bayes has no training data");
  }
  std::vector<double> log_scores;
  log_scores.reserve(class_names_.size());
  double max_log = -1e300;
  for (const auto& name : class_names_) {
    const double s = LogScoreFor(*Find(name), tokens);
    log_scores.push_back(s);
    max_log = std::max(max_log, s);
  }
  double total = 0.0;
  for (double& s : log_scores) {
    s = std::exp(s - max_log);
    total += s;
  }
  for (double& s : log_scores) s /= total;
  return log_scores;
}

Result<std::string> MultinomialNaiveBayes::Classify(
    const std::vector<std::string>& tokens) const {
  if (total_documents_ == 0) {
    return Status::FailedPrecondition("naive Bayes has no training data");
  }
  std::vector<double> scores;
  scores.reserve(class_names_.size());
  for (const auto& name : class_names_) {
    scores.push_back(LogScoreFor(*Find(name), tokens));
  }
  PRODSYN_ASSIGN_OR_RETURN(size_t best, ArgMax(scores));
  return class_names_[best];
}

NaiveBayesModel MultinomialNaiveBayes::ExportModel() const {
  NaiveBayesModel model;
  model.alpha = alpha_;
  model.total_documents = total_documents_;
  model.classes.reserve(class_names_.size());
  for (const auto& name : class_names_) {
    const ClassStats& stats = classes_.at(name);
    NaiveBayesModel::ClassState state;
    state.label = name;
    state.documents = stats.documents;
    state.total_tokens = stats.total_tokens;
    state.token_counts.assign(stats.token_counts.begin(),
                              stats.token_counts.end());
    // Canonical order for byte-identical exports; scoring only ever looks
    // counts up by token, so the order is free. // lint: order-independent
    std::sort(state.token_counts.begin(), state.token_counts.end());
    model.classes.push_back(std::move(state));
  }
  model.vocabulary.reserve(vocabulary_.size());
  // The vocabulary only contributes its size to scoring.
  // lint: order-independent
  for (const auto& [token, seen] : vocabulary_) {
    (void)seen;
    model.vocabulary.push_back(token);
  }
  std::sort(model.vocabulary.begin(), model.vocabulary.end());
  return model;
}

Status MultinomialNaiveBayes::RestoreModel(const NaiveBayesModel& model) {
  PRODSYN_RETURN_NOT_OK(ValidateNaiveBayesModel(model));
  classes_.clear();
  class_names_.clear();
  vocabulary_.clear();
  alpha_ = model.alpha;
  total_documents_ = model.total_documents;
  for (const auto& state : model.classes) {
    class_names_.push_back(state.label);
    ClassStats& stats = classes_[state.label];
    stats.documents = state.documents;
    stats.total_tokens = state.total_tokens;
    stats.token_counts.reserve(state.token_counts.size());
    for (const auto& [token, count] : state.token_counts) {
      stats.token_counts[token] = count;
    }
  }
  vocabulary_.reserve(model.vocabulary.size());
  for (const auto& token : model.vocabulary) {
    vocabulary_[token] = true;
  }
  return Status::OK();
}

Result<CompiledNaiveBayes> CompiledNaiveBayes::Compile(
    NaiveBayesModel model) {
  PRODSYN_RETURN_NOT_OK(ValidateNaiveBayesModel(model));
  CompiledNaiveBayes out;
  out.model_ = std::move(model);
  const NaiveBayesModel& m = out.model_;
  const size_t vocab = m.vocabulary.size();
  out.token_ids_.reserve(vocab);
  for (size_t t = 0; t < vocab; ++t) {
    out.token_ids_.emplace(m.vocabulary[t], static_cast<uint32_t>(t));
  }
  // Pass 1: each posting's token id, counted per id.
  size_t total_postings = 0;
  for (const auto& state : m.classes) {
    total_postings += state.token_counts.size();
  }
  std::vector<uint32_t> ids;
  ids.reserve(total_postings);
  out.offsets_.assign(vocab + 1, 0);
  for (const auto& state : m.classes) {
    for (const auto& [token, count] : state.token_counts) {
      (void)count;
      const auto it = out.token_ids_.find(token);
      if (it == out.token_ids_.end()) {
        return Status::InvalidArgument("naive-Bayes class '" + state.label +
                                       "' counts token '" + token +
                                       "', which is not in the vocabulary");
      }
      ++out.offsets_[it->second + 1];
      ids.push_back(it->second);
    }
  }
  // Pass 2: a stable counting sort of the postings by token id, so each
  // token's postings stay in class order.
  for (size_t t = 0; t < vocab; ++t) out.offsets_[t + 1] += out.offsets_[t];
  std::vector<uint32_t> fill(out.offsets_.begin(), out.offsets_.end() - 1);
  out.postings_.resize(total_postings);
  out.log_prior_.reserve(m.classes.size());
  out.unseen_.reserve(m.classes.size());
  size_t next = 0;
  for (size_t c = 0; c < m.classes.size(); ++c) {
    const auto& state = m.classes[c];
    const double denom = Denominator(state.total_tokens, m.alpha, vocab);
    out.log_prior_.push_back(LogPrior(state.documents, m.total_documents));
    out.unseen_.push_back(LogLikelihood(0.0, m.alpha, denom));
    for (const auto& [token, count] : state.token_counts) {
      (void)token;
      out.postings_[fill[ids[next++]]++] =
          Posting{static_cast<uint32_t>(c),
                  LogLikelihood(static_cast<double>(count), m.alpha, denom)};
    }
  }
  return out;
}

Result<std::vector<double>> CompiledNaiveBayes::LogScores(
    const std::vector<std::string>& tokens) const {
  if (class_count() == 0) {
    return Status::FailedPrecondition("naive Bayes has no training data");
  }
  std::vector<double> scores(log_prior_);
  std::vector<double> row;
  for (const auto& t : tokens) {
    // The token's term for every class: its posting where the class has
    // one (if a class lists a token twice, the later count wins, as in
    // the reference's restore), else the count-0 value.
    auto it = token_ids_.find(t);
    const std::vector<double>* terms = &unseen_;
    if (it != token_ids_.end()) {
      row = unseen_;
      for (uint32_t p = offsets_[it->second]; p < offsets_[it->second + 1];
           ++p) {
        row[postings_[p].class_index] = postings_[p].log_p;
      }
      terms = &row;
    }
    for (size_t c = 0; c < scores.size(); ++c) scores[c] += (*terms)[c];
  }
  return scores;
}

Result<size_t> CompiledNaiveBayes::Classify(
    const std::vector<std::string>& tokens) const {
  PRODSYN_ASSIGN_OR_RETURN(std::vector<double> scores, LogScores(tokens));
  return ArgMax(scores);
}

}  // namespace prodsyn
