// Multinomial naive Bayes over token documents, in two forms:
//  - MultinomialNaiveBayes trains on documents and scores by scanning
//    every class, one string-keyed count lookup per (class, token). It is
//    the LSD instance-based matcher baseline (paper Appendix C), the
//    title classifier's training accumulator, and the test reference for
//    the compiled form.
//  - CompiledNaiveBayes is a trained NaiveBayesModel compiled once into a
//    token-major table: token → dense id, per-class log-prior and
//    "unseen token" rows, and per token its (class, log p) postings. The
//    run-time title → category classifier (paper §2) scores with it: per
//    title token one hash lookup and one pass over the classes, instead
//    of one hash lookup and one std::log per class.
//
// Bit-identity. Both forms compute every term with the same helper
// functions on the same inputs (the model's counts, alpha, vocabulary
// size), and both add a class's terms in title-token order starting from
// its log-prior: the reference adds log((count + alpha) / denom) per
// token, the compiled form adds the same double, read from the posting
// for that (token, class) or else from the unseen row, which holds the
// count-0 value. Each class therefore sums the same doubles in the same
// order, the scores are bit-equal, and the arg-max (ties to the
// earlier-seen class) is the same class.

#ifndef PRODSYN_ML_NAIVE_BAYES_H_
#define PRODSYN_ML_NAIVE_BAYES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/util/result.h"

namespace prodsyn {

/// \brief Serializable state of one trained MultinomialNaiveBayes — the
/// snapshot codec's view of the model. Canonical ordering: classes in
/// first-seen training order (which Classify's tie-break depends on),
/// token counts and vocabulary lexicographically sorted, so two exports
/// of the same model are byte-identical after encoding.
struct NaiveBayesModel {
  struct ClassState {
    std::string label;
    uint64_t documents = 0;
    uint64_t total_tokens = 0;
    /// Sorted by token.
    std::vector<std::pair<std::string, uint64_t>> token_counts;
  };

  double alpha = 1.0;
  uint64_t total_documents = 0;
  /// First-seen training order.
  std::vector<ClassState> classes;
  /// Sorted.
  std::vector<std::string> vocabulary;
};

/// \brief Checks the invariants scoring relies on, so that every class
/// score is finite: alpha is finite and > 0; every class has at least one
/// document and the class documents sum to total_documents (so every
/// log-prior is finite); class labels are distinct; the vocabulary is
/// strictly sorted (its size is the number of distinct tokens, as in a
/// trained model). InvalidArgument naming the first violation.
Status ValidateNaiveBayesModel(const NaiveBayesModel& model);

/// \brief Multinomial NB with Lidstone smoothing; class labels are strings.
class MultinomialNaiveBayes {
 public:
  MultinomialNaiveBayes() = default;

  /// \param alpha Lidstone smoothing constant. The default 1.0 is classic
  /// Laplace. Use a small alpha (e.g. 0.05) when the vocabulary is much
  /// larger than per-class token totals — with alpha=1 the smoothing
  /// denominator swamps the class totals and larger classes spuriously
  /// win every shared token (class-imbalance bias).
  explicit MultinomialNaiveBayes(double alpha) : alpha_(alpha) {}

  /// \brief Adds one training document under `label`.
  void AddDocument(const std::string& label,
                   const std::vector<std::string>& tokens);

  /// \brief Number of classes observed so far.
  size_t class_count() const { return classes_.size(); }

  /// \brief All class labels, in first-seen order.
  const std::vector<std::string>& classes() const { return class_names_; }

  /// \brief Log P(class) + Σ log P(token | class), Laplace-smoothed.
  /// FailedPrecondition if no documents were added.
  Result<double> LogScore(const std::string& label,
                          const std::vector<std::string>& tokens) const;

  /// \brief Normalized posteriors P(class | tokens) over all classes,
  /// in class-label first-seen order. Computed by log-sum-exp.
  Result<std::vector<double>> Posteriors(
      const std::vector<std::string>& tokens) const;

  /// \brief Arg-max classification; ties break to the earlier-seen class.
  /// FailedPrecondition when no class scores above -1e300 (only an
  /// untrained or degenerate model can do that).
  Result<std::string> Classify(const std::vector<std::string>& tokens) const;

  /// \brief Canonical serializable state of the trained model.
  NaiveBayesModel ExportModel() const;

  /// \brief Reinstates a model exported by ExportModel. Classification is
  /// bit-identical to the exporting instance: scores depend only on the
  /// per-class counts, the vocabulary *size*, and the first-seen class
  /// order — all of which the model preserves. InvalidArgument when the
  /// model fails ValidateNaiveBayesModel; the instance is then unchanged.
  Status RestoreModel(const NaiveBayesModel& model);

 private:
  struct ClassStats {
    uint64_t documents = 0;
    uint64_t total_tokens = 0;
    std::unordered_map<std::string, uint64_t> token_counts;
  };

  const ClassStats* Find(const std::string& label) const;
  double LogScoreFor(const ClassStats& stats,
                     const std::vector<std::string>& tokens) const;

  double alpha_ = 1.0;
  std::unordered_map<std::string, ClassStats> classes_;
  std::vector<std::string> class_names_;
  std::unordered_map<std::string, bool> vocabulary_;
  uint64_t total_documents_ = 0;
};

/// \brief A NaiveBayesModel compiled into a token-major scoring table
/// (see the file comment). Owns the model it was compiled from. Built
/// once by Compile; immutable after, so the const methods are safe to
/// call concurrently. Scores and classifies bit-identically to a
/// MultinomialNaiveBayes restored from the same model. Classes are
/// identified by their index in model().classes.
///
/// Move-only: the token dictionary views the strings of the owned
/// model's vocabulary, which a move leaves where they are.
class CompiledNaiveBayes {
 public:
  CompiledNaiveBayes() = default;
  CompiledNaiveBayes(CompiledNaiveBayes&&) = default;
  CompiledNaiveBayes& operator=(CompiledNaiveBayes&&) = default;
  CompiledNaiveBayes(const CompiledNaiveBayes&) = delete;
  CompiledNaiveBayes& operator=(const CompiledNaiveBayes&) = delete;

  /// \brief Validates `model` (ValidateNaiveBayesModel, and every counted
  /// token must be in the vocabulary) and compiles it.
  static Result<CompiledNaiveBayes> Compile(NaiveBayesModel model);

  /// \brief The model this table was compiled from.
  const NaiveBayesModel& model() const { return model_; }

  size_t class_count() const { return log_prior_.size(); }

  /// \brief Per-class log P(class) + Σ log P(token | class), in class
  /// order; bit-equal to MultinomialNaiveBayes::LogScore of each class.
  /// FailedPrecondition when the model has no classes.
  Result<std::vector<double>> LogScores(
      const std::vector<std::string>& tokens) const;

  /// \brief Index of the arg-max class; ties break to the earlier class.
  /// Same result and errors as MultinomialNaiveBayes::Classify.
  Result<size_t> Classify(const std::vector<std::string>& tokens) const;

 private:
  struct Posting {
    uint32_t class_index = 0;
    double log_p = 0.0;
  };

  NaiveBayesModel model_;
  /// Token → dense id: its index in model_.vocabulary, whose strings the
  /// keys view.
  std::unordered_map<std::string_view, uint32_t> token_ids_;
  std::vector<double> log_prior_;  // per class
  std::vector<double> unseen_;     // per class: log of a count-0 token
  /// Postings of token id t: postings_[offsets_[t] .. offsets_[t + 1]),
  /// in class order.
  std::vector<uint32_t> offsets_;
  std::vector<Posting> postings_;
};

}  // namespace prodsyn

#endif  // PRODSYN_ML_NAIVE_BAYES_H_
