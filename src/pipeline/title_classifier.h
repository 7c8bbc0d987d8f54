// Title → catalog category classifier (paper §2: "To determine the
// category for a given offer, we use a simple classifier, which given the
// title of the offer, returns its category C under the catalog taxonomy").
// Multinomial naive Bayes over title tokens, trained on offers whose
// category is already known (e.g. historical offers).
//
// The classifier keeps its trained state as a NaiveBayesModel (the
// snapshot's NBCL section, class labels being decimal CategoryIds) and
// scores with that model compiled into a token-major table
// (CompiledNaiveBayes): per title token one hash lookup and one pass over
// the classes. The table is compiled once — at the end of training, or in
// RestoreModel straight from the decoded model — and classifies
// bit-identically to MultinomialNaiveBayes on the same model (see
// naive_bayes.h). Each class index maps to a CategoryId parsed once at
// compile time.

#ifndef PRODSYN_PIPELINE_TITLE_CLASSIFIER_H_
#define PRODSYN_PIPELINE_TITLE_CLASSIFIER_H_

#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/ml/naive_bayes.h"
#include "src/util/result.h"

namespace prodsyn {

/// \brief Offer-title category classifier.
///
/// Thread safety: training (AddExample/TrainOnStore/RestoreModel) must be
/// single-threaded and happen-before any Classify; after training,
/// Classify is const, touches no mutable state, and is safe to call
/// concurrently — the run-time pipeline classifies offers from multiple
/// workers.
class TitleClassifier {
 public:
  TitleClassifier();

  /// \brief Adds one labeled title and recompiles the scoring table, so
  /// each call costs O(model); train in bulk with TrainOnStore. A title
  /// labeled kInvalidCategory is ignored.
  void AddExample(CategoryId category, const std::string& title);

  /// \brief Trains on every offer of `offers` that has a category and
  /// compiles the scoring table once. Returns the number of examples used.
  size_t TrainOnStore(const OfferStore& offers);

  /// \brief Most likely category for `title`. FailedPrecondition when the
  /// classifier has no training data.
  Result<CategoryId> Classify(const std::string& title) const;

  size_t category_count() const { return categories_.size(); }

  /// \brief Canonical serializable state of the trained classifier (the
  /// snapshot's NBCL section).
  const NaiveBayesModel& ExportModel() const { return model_.model(); }

  /// \brief Reinstates a classifier exported by ExportModel and compiles
  /// its scoring table; classification is bit-identical to the exporting
  /// instance. InvalidArgument when CompiledNaiveBayes::Compile rejects
  /// the model or a class label is not a decimal CategoryId other than
  /// kInvalidCategory; the classifier is then untrained.
  Status RestoreModel(NaiveBayesModel model);

 private:
  // Small smoothing: title vocabularies are dominated by per-product model
  // codes, so Laplace alpha=1 would bias the classifier toward larger
  // sibling categories (see MultinomialNaiveBayes).
  static constexpr double kAlpha = 0.001;

  /// A string-keyed accumulator holding the current model, to train on.
  MultinomialNaiveBayes Accumulator() const;
  /// Validates and compiles `model`, then makes it the classifier's state.
  Status Install(NaiveBayesModel model);

  /// The trained model and its scoring table.
  CompiledNaiveBayes model_;
  /// Class index of `model_` → category.
  std::vector<CategoryId> categories_;
};

}  // namespace prodsyn

#endif  // PRODSYN_PIPELINE_TITLE_CLASSIFIER_H_
