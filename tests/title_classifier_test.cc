// The title classifier's compiled token-major table against the
// MultinomialNaiveBayes string scan it replaced, on every historical and
// incoming title of two generated worlds, and the validation RestoreModel
// applies to a decoded NBCL model before it can reach Classify.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/datagen/world.h"
#include "src/ml/naive_bayes.h"
#include "src/pipeline/title_classifier.h"
#include "src/text/tokenizer.h"

namespace prodsyn {
namespace {

// Classifies every title of `world` with a trained classifier, with one
// restored from its exported model, and with the reference scan over the
// same model; all three must agree on every title.
// `min_classes` guards the world's width: a leaf without historical
// offers has no class.
void ExpectMatchesReferenceOnWorld(const World& world, size_t min_classes) {
  TitleClassifier trained;
  ASSERT_GT(trained.TrainOnStore(world.historical_offers), 0u);
  ASSERT_GE(trained.category_count(), min_classes);
  TitleClassifier restored;
  ASSERT_TRUE(restored.RestoreModel(trained.ExportModel()).ok());
  MultinomialNaiveBayes reference;
  ASSERT_TRUE(reference.RestoreModel(trained.ExportModel()).ok());

  size_t titles = 0, mismatches = 0;
  for (const OfferStore* store :
       {&world.historical_offers, &world.incoming_offers}) {
    for (const Offer& offer : store->offers()) {
      ++titles;
      auto label = reference.Classify(Tokenize(offer.title));
      ASSERT_TRUE(label.ok()) << label.status();
      const auto expected = static_cast<CategoryId>(std::stol(*label));
      auto got = trained.Classify(offer.title);
      auto got_restored = restored.Classify(offer.title);
      ASSERT_TRUE(got.ok() && got_restored.ok());
      if (*got != expected || *got_restored != expected) {
        ADD_FAILURE_AT(__FILE__, __LINE__)
            << "title '" << offer.title << "': reference " << expected
            << ", trained " << *got << ", restored " << *got_restored;
        if (++mismatches >= 5) return;
      }
    }
  }
  EXPECT_EQ(titles, world.historical_offers.size() +
                        world.incoming_offers.size());
}

TEST(TitleClassifierDifferential, MatchesReferenceOnSeedWorld) {
  // The seed-scale bench world: 37 leaves.
  WorldConfig config;
  config.seed = 99;
  config.categories_per_archetype = 1;
  config.merchants = 50;
  config.products_per_category = 25;
  auto world = World::Generate(config);
  ASSERT_TRUE(world.ok()) << world.status();
  ExpectMatchesReferenceOnWorld(*world, 35);
}

TEST(TitleClassifierDifferential, MatchesReferenceOnWideTaxonomyWorld) {
  // The shape of perfbench's wide-taxonomy workload: 296 leaves.
  WorldConfig config;
  config.seed = 2011;
  config.max_offers_per_product = 8;
  config.categories_per_archetype = 8;
  config.merchants = 200;
  config.merchant_category_coverage = 0.025;
  config.products_per_category = 10;
  auto world = World::Generate(config);
  ASSERT_TRUE(world.ok()) << world.status();
  ExpectMatchesReferenceOnWorld(*world, 290);
}

// ---------- RestoreModel validation ----------

NaiveBayesModel TrainedModel() {
  TitleClassifier classifier;
  classifier.AddExample(3, "Seagate Barracuda 500GB SATA Hard Drive");
  classifier.AddExample(3, "Hitachi Deskstar 7200rpm HDD");
  classifier.AddExample(12, "Canon EOS 12MP Digital Camera");
  return classifier.ExportModel();
}

TEST(TitleClassifierRestore, RoundTripsTheModel) {
  TitleClassifier trained;
  trained.AddExample(3, "Seagate Barracuda 500GB SATA Hard Drive");
  trained.AddExample(12, "Canon EOS 12MP Digital Camera");
  TitleClassifier restored;
  ASSERT_TRUE(restored.RestoreModel(trained.ExportModel()).ok());
  EXPECT_EQ(restored.category_count(), 2u);
  EXPECT_EQ(*restored.Classify("WD SATA drive"), 3);
  EXPECT_EQ(*restored.Classify("Nikon digital camera"), 12);
  const NaiveBayesModel& a = trained.ExportModel();
  const NaiveBayesModel& b = restored.ExportModel();
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.total_documents, b.total_documents);
  EXPECT_EQ(a.vocabulary, b.vocabulary);
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (size_t i = 0; i < a.classes.size(); ++i) {
    EXPECT_EQ(a.classes[i].label, b.classes[i].label);
    EXPECT_EQ(a.classes[i].token_counts, b.classes[i].token_counts);
  }
}

TEST(TitleClassifierRestore, RejectsLabelsThatAreNotCategoryIds) {
  for (const char* label :
       {"cameras", "", "-1", "3x", " 3", "+3", "0x1F", "99999999999"}) {
    SCOPED_TRACE(std::string("label '") + label + "'");
    NaiveBayesModel model = TrainedModel();
    model.classes[1].label = label;
    TitleClassifier classifier;
    EXPECT_TRUE(classifier.RestoreModel(std::move(model)).IsInvalidArgument());
    // A failed restore leaves an untrained classifier, not a crash later.
    EXPECT_EQ(classifier.category_count(), 0u);
    EXPECT_TRUE(classifier.Classify("camera").status().IsFailedPrecondition());
  }
}

TEST(TitleClassifierRestore, RejectsClassesWithoutDocuments) {
  NaiveBayesModel all_zero = TrainedModel();
  for (auto& cls : all_zero.classes) cls.documents = 0;
  NaiveBayesModel bad_sum = TrainedModel();
  bad_sum.total_documents += 2;
  for (NaiveBayesModel* model : {&all_zero, &bad_sum}) {
    TitleClassifier classifier;
    ASSERT_TRUE(classifier.RestoreModel(TrainedModel()).ok());
    EXPECT_TRUE(classifier.RestoreModel(*model).IsInvalidArgument());
    EXPECT_EQ(classifier.category_count(), 0u);
    EXPECT_TRUE(classifier.Classify("drive").status().IsFailedPrecondition());
  }
}

TEST(TitleClassifierRestore, AddExampleIgnoresInvalidCategory) {
  TitleClassifier classifier;
  classifier.AddExample(kInvalidCategory, "mystery offer");
  EXPECT_EQ(classifier.category_count(), 0u);
  classifier.AddExample(4, "drive");
  EXPECT_EQ(classifier.category_count(), 1u);
  EXPECT_EQ(*classifier.Classify("anything"), 4);
}

}  // namespace
}  // namespace prodsyn
