#include "src/pipeline/title_classifier.h"

#include <charconv>
#include <system_error>
#include <utility>

#include "src/text/tokenizer.h"
#include "src/util/check.h"

namespace prodsyn {

namespace {

// Class labels are std::to_string(CategoryId); anything else (a corrupt
// or foreign model) is rejected before it can reach Classify.
Result<CategoryId> ParseCategoryLabel(const std::string& label) {
  CategoryId category = kInvalidCategory;
  const char* end = label.data() + label.size();
  const auto [ptr, ec] = std::from_chars(label.data(), end, category);
  if (label.empty() || ec != std::errc() || ptr != end ||
      category == kInvalidCategory) {
    return Status::InvalidArgument("title-classifier class label '" + label +
                                   "' is not a category id");
  }
  return category;
}

}  // namespace

TitleClassifier::TitleClassifier() {
  NaiveBayesModel untrained;
  untrained.alpha = kAlpha;
  PRODSYN_CHECK(Install(std::move(untrained)).ok());
}

MultinomialNaiveBayes TitleClassifier::Accumulator() const {
  MultinomialNaiveBayes nb(kAlpha);
  if (category_count() > 0) {
    PRODSYN_CHECK(nb.RestoreModel(model_.model()).ok());
  }
  return nb;
}

Status TitleClassifier::Install(NaiveBayesModel model) {
  std::vector<CategoryId> categories;
  categories.reserve(model.classes.size());
  for (const auto& state : model.classes) {
    PRODSYN_ASSIGN_OR_RETURN(CategoryId category,
                             ParseCategoryLabel(state.label));
    categories.push_back(category);
  }
  PRODSYN_ASSIGN_OR_RETURN(model_,
                           CompiledNaiveBayes::Compile(std::move(model)));
  categories_ = std::move(categories);
  return Status::OK();
}

void TitleClassifier::AddExample(CategoryId category,
                                 const std::string& title) {
  if (category == kInvalidCategory) return;
  MultinomialNaiveBayes nb = Accumulator();
  nb.AddDocument(std::to_string(category), Tokenize(title));
  PRODSYN_CHECK(Install(nb.ExportModel()).ok());
}

size_t TitleClassifier::TrainOnStore(const OfferStore& offers) {
  size_t used = 0;
  NaiveBayesModel model;
  {
    MultinomialNaiveBayes nb = Accumulator();
    for (const auto& offer : offers.offers()) {
      if (offer.category == kInvalidCategory) continue;
      nb.AddDocument(std::to_string(offer.category), Tokenize(offer.title));
      ++used;
    }
    if (used == 0) return 0;
    model = nb.ExportModel();
  }
  // The string-keyed accumulator is gone before the table is compiled.
  PRODSYN_CHECK(Install(std::move(model)).ok());
  return used;
}

Status TitleClassifier::RestoreModel(NaiveBayesModel model) {
  Status installed = Install(std::move(model));
  if (!installed.ok()) *this = TitleClassifier();
  return installed;
}

Result<CategoryId> TitleClassifier::Classify(const std::string& title) const {
  PRODSYN_ASSIGN_OR_RETURN(size_t index, model_.Classify(Tokenize(title)));
  return categories_[index];
}

}  // namespace prodsyn
