// Round-trip properties of the snapshot subsystem (docs/PERSISTENCE.md):
// byte_io primitives, CRC32 vectors, codec encode→validate→decode
// equality, crash-safe Save/Load over a real file, and the pipeline-level
// contract — Load(Save(x)) yields bit-identical synthesis output and
// bit-identical LR weights for any thread count — plus graceful
// degradation when the snapshot is corrupt.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "src/datagen/world.h"
#include "src/pipeline/synthesizer.h"
#include "src/snapshot/byte_io.h"
#include "src/snapshot/codec.h"
#include "src/snapshot/format.h"
#include "src/snapshot/reader.h"
#include "src/snapshot/writer.h"
#include "src/util/checksum.h"
#include "src/util/mmap_file.h"

namespace prodsyn {
namespace {

// --- util primitives ---------------------------------------------------

TEST(Checksum, MatchesKnownCrc32Vectors) {
  // Standard IEEE CRC-32 check values (zlib-compatible).
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
}

TEST(Checksum, UpdateIsStreamable) {
  const char* data = "123456789";
  uint32_t crc = Crc32Update(0, data, 4);
  crc = Crc32Update(crc, data + 4, 5);
  EXPECT_EQ(crc, Crc32(data, 9));
}

TEST(MmapFileTest, OpensReadsAndReportsMissing) {
  const std::string path = ::testing::TempDir() + "/mmap_probe.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "hello mmap";
  }
  auto mapped = MmapFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  ASSERT_EQ(mapped->size(), 10u);
  EXPECT_EQ(std::memcmp(mapped->data(), "hello mmap", 10), 0);
  std::remove(path.c_str());

  auto missing = MmapFile::Open(::testing::TempDir() + "/no_such_file.bin");
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status();
}

TEST(MmapFileTest, EmptyFileMapsToZeroBytes) {
  const std::string path = ::testing::TempDir() + "/mmap_empty.bin";
  { std::ofstream out(path, std::ios::binary); }
  auto mapped = MmapFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(mapped->size(), 0u);
  std::remove(path.c_str());
}

TEST(ByteIo, RoundTripsScalarsAndStrings) {
  ByteWriter writer;
  writer.PutU32(0xDEADBEEFu);
  writer.PutU64(0x0123456789ABCDEFull);
  writer.PutF64(-0.0);
  writer.PutF64(std::nan(""));
  writer.PutString("snapshot");
  writer.PutString("");

  ByteReader reader(writer.bytes());
  auto u32 = reader.U32();
  ASSERT_TRUE(u32.ok());
  EXPECT_EQ(*u32, 0xDEADBEEFu);
  auto u64 = reader.U64();
  ASSERT_TRUE(u64.ok());
  EXPECT_EQ(*u64, 0x0123456789ABCDEFull);
  auto zero = reader.F64();
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(std::signbit(*zero));  // -0.0 bit pattern preserved
  auto nan = reader.F64();
  ASSERT_TRUE(nan.ok());
  EXPECT_TRUE(std::isnan(*nan));
  auto s = reader.String();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, "snapshot");
  auto empty = reader.String();
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, "");
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteIo, TruncatedReadsReturnParseErrorNotUb) {
  ByteWriter writer;
  writer.PutU32(7);
  ByteReader reader(writer.bytes());
  EXPECT_FALSE(reader.U64().ok());  // only 4 bytes available
  ASSERT_TRUE(reader.U32().ok());
  EXPECT_FALSE(reader.U32().ok());  // exhausted

  // A corrupt string length larger than the payload must not allocate.
  ByteWriter lying;
  lying.PutU64(1ull << 40);
  ByteReader liar(lying.bytes());
  auto s = liar.String();
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.status().IsParseError()) << s.status();
}

// --- codec -------------------------------------------------------------

// A small synthetic snapshot exercising every section with non-trivial
// content (including f64 edge bit patterns).
OfflineSnapshot MakeSampleSnapshot() {
  OfflineSnapshot snap;
  CandidateTuple tuple;
  tuple.catalog_attribute = "brand";
  tuple.offer_attribute = "mfr";
  tuple.merchant = 7;
  tuple.category = 3;
  snap.correspondences.push_back({tuple, 0.875});
  tuple.offer_attribute = "manufacturer";
  tuple.merchant = 8;
  snap.correspondences.push_back({tuple, -0.0});
  snap.lr_weights = {1.5, -2.25, 0.0};
  snap.lr_intercept = -0.5;
  snap.lr_iterations = 37;
  snap.scaler_means = {0.25, -0.0, 1e300};
  snap.scaler_stds = {1.0, 2.0, 0.5};

  NaiveBayesModel::ClassState cls;
  cls.label = "3";
  cls.documents = 5;
  cls.total_tokens = 9;
  cls.token_counts = {{"alpha", 4}, {"beta", 5}};
  snap.title_model.alpha = 1.0;
  snap.title_model.total_documents = 5;
  snap.title_model.classes.push_back(cls);
  snap.title_model.vocabulary = {"alpha", "beta"};
  return snap;
}

void ExpectSnapshotsEqual(const OfflineSnapshot& a, const OfflineSnapshot& b) {
  ASSERT_EQ(a.correspondences.size(), b.correspondences.size());
  for (size_t i = 0; i < a.correspondences.size(); ++i) {
    EXPECT_TRUE(a.correspondences[i].tuple == b.correspondences[i].tuple);
    // Bit identity, not approximate equality.
    uint64_t bits_a, bits_b;
    std::memcpy(&bits_a, &a.correspondences[i].score, sizeof(bits_a));
    std::memcpy(&bits_b, &b.correspondences[i].score, sizeof(bits_b));
    EXPECT_EQ(bits_a, bits_b);
  }
  EXPECT_EQ(a.lr_weights, b.lr_weights);
  EXPECT_EQ(a.lr_intercept, b.lr_intercept);
  EXPECT_EQ(a.lr_iterations, b.lr_iterations);
  EXPECT_EQ(a.scaler_means, b.scaler_means);
  EXPECT_EQ(a.scaler_stds, b.scaler_stds);

  EXPECT_EQ(a.title_model.alpha, b.title_model.alpha);
  EXPECT_EQ(a.title_model.total_documents, b.title_model.total_documents);
  ASSERT_EQ(a.title_model.classes.size(), b.title_model.classes.size());
  for (size_t i = 0; i < a.title_model.classes.size(); ++i) {
    EXPECT_EQ(a.title_model.classes[i].label, b.title_model.classes[i].label);
    EXPECT_EQ(a.title_model.classes[i].documents,
              b.title_model.classes[i].documents);
    EXPECT_EQ(a.title_model.classes[i].total_tokens,
              b.title_model.classes[i].total_tokens);
    EXPECT_EQ(a.title_model.classes[i].token_counts,
              b.title_model.classes[i].token_counts);
  }
  EXPECT_EQ(a.title_model.vocabulary, b.title_model.vocabulary);
}

// The section ids of a validated layout, in table order.
std::vector<uint32_t> SectionIds(const SnapshotLayout& layout) {
  std::vector<uint32_t> ids;
  for (const SnapshotSectionEntry& entry : layout.sections) {
    ids.push_back(entry.id);
  }
  return ids;
}

const std::vector<uint32_t> kV2SectionIds = {
    kSectionLrModel, kSectionCorrespondences, kSectionNaiveBayes};

TEST(SnapshotCodec, EncodeValidateDecodeRoundTrip) {
  const OfflineSnapshot original = MakeSampleSnapshot();
  const std::string bytes = EncodeSnapshotFile(original);
  ASSERT_GE(bytes.size(), kHeaderSize + kFooterSize);

  auto layout = ValidateSnapshotBytes(bytes.data(), bytes.size());
  ASSERT_TRUE(layout.ok()) << layout.status();
  EXPECT_EQ(layout->format_version, kFormatVersion);
  EXPECT_EQ(layout->file_size, bytes.size());
  EXPECT_EQ(SectionIds(*layout), kV2SectionIds);
  // Sections tile the payload region exactly, in canonical order.
  uint64_t expect_offset =
      kHeaderSize + layout->sections.size() * kSectionEntrySize;
  for (size_t i = 0; i < layout->sections.size(); ++i) {
    EXPECT_EQ(layout->sections[i].offset, expect_offset) << "section " << i;
    expect_offset += layout->sections[i].length;
  }
  EXPECT_EQ(expect_offset, bytes.size() - kFooterSize);

  auto decoded = DecodeSnapshotSections(bytes.data(), bytes.size(), *layout);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectSnapshotsEqual(original, *decoded);
}

TEST(SnapshotCodec, EncodeIsDeterministic) {
  const OfflineSnapshot snap = MakeSampleSnapshot();
  EXPECT_EQ(EncodeSnapshotFile(snap), EncodeSnapshotFile(snap));
}

TEST(SnapshotCodec, EmptySnapshotRoundTrips) {
  const OfflineSnapshot empty;
  const std::string bytes = EncodeSnapshotFile(empty);
  auto layout = ValidateSnapshotBytes(bytes.data(), bytes.size());
  ASSERT_TRUE(layout.ok()) << layout.status();
  auto decoded = DecodeSnapshotSections(bytes.data(), bytes.size(), *layout);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ExpectSnapshotsEqual(empty, *decoded);
}

// --- writer / reader ---------------------------------------------------

TEST(SnapshotFile, SaveThenLoadRoundTripsAndLeavesNoTempFile) {
  const std::string path = ::testing::TempDir() + "/roundtrip.snap";
  std::remove(path.c_str());
  const OfflineSnapshot original = MakeSampleSnapshot();
  Status saved = SaveOfflineSnapshot(original, path);
  ASSERT_TRUE(saved.ok()) << saved;
  {
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good()) << "temp file leaked after successful publish";
  }
  auto loaded = LoadOfflineSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSnapshotsEqual(original, *loaded);
  std::remove(path.c_str());
}

TEST(SnapshotFile, MissingFileIsNotFound) {
  auto loaded =
      LoadOfflineSnapshot(::testing::TempDir() + "/never_written.snap");
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound()) << loaded.status();
}

TEST(SnapshotFile, EmptyPathIsInvalidArgument) {
  EXPECT_FALSE(SaveOfflineSnapshot(OfflineSnapshot{}, "").ok());
}

TEST(SnapshotFile, SaveOverwritesAtomically) {
  const std::string path = ::testing::TempDir() + "/overwrite.snap";
  OfflineSnapshot first = MakeSampleSnapshot();
  ASSERT_TRUE(SaveOfflineSnapshot(first, path).ok());
  OfflineSnapshot second = MakeSampleSnapshot();
  second.lr_weights = {9.0};
  second.lr_iterations = 99;
  ASSERT_TRUE(SaveOfflineSnapshot(second, path).ok());
  auto loaded = LoadOfflineSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSnapshotsEqual(second, *loaded);
  std::remove(path.c_str());
}

// --- pipeline property tests ------------------------------------------

class SnapshotPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    WorldConfig config;
    config.seed = 13;
    config.categories_per_archetype = 1;
    config.merchants = 30;
    config.products_per_category = 15;
    world_ = new World(*World::Generate(config));
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  static World* world_;
};

World* SnapshotPipeline::world_ = nullptr;

bool ProductsEqual(const std::vector<SynthesizedProduct>& a,
                   const std::vector<SynthesizedProduct>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].category != b[i].category || a[i].key != b[i].key ||
        !(a[i].spec == b[i].spec) ||
        a[i].source_offers != b[i].source_offers) {
      return false;
    }
  }
  return true;
}

int64_t GaugeValue(const RegistrySnapshot& registry, const std::string& name) {
  for (const auto& gauge : registry.gauges) {
    if (gauge.name == name) return gauge.value;
  }
  return -1;
}

// Bit-exact weight comparison: the contract is Load(Save(x)) restores the
// exact f64 patterns, not approximately equal ones.
void ExpectBitIdenticalModels(const ProductSynthesizer& a,
                              const ProductSynthesizer& b) {
  ASSERT_EQ(a.model().weights().size(), b.model().weights().size());
  for (size_t i = 0; i < a.model().weights().size(); ++i) {
    uint64_t wa, wb;
    std::memcpy(&wa, &a.model().weights()[i], sizeof(wa));
    std::memcpy(&wb, &b.model().weights()[i], sizeof(wb));
    EXPECT_EQ(wa, wb) << "weight " << i;
  }
  uint64_t ia, ib;
  double da = a.model().intercept(), db = b.model().intercept();
  std::memcpy(&ia, &da, sizeof(ia));
  std::memcpy(&ib, &db, sizeof(ib));
  EXPECT_EQ(ia, ib);
  EXPECT_EQ(a.scaler().means(), b.scaler().means());
  EXPECT_EQ(a.scaler().stds(), b.scaler().stds());
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Rewrites the header's format version and re-seals the header and
// whole-file CRCs, so the result is a checksum-valid file of `version`.
std::string WithFormatVersion(std::string bytes, uint32_t version) {
  const auto put_u32 = [&bytes](size_t offset, uint32_t value) {
    for (int i = 0; i < 4; ++i) {
      bytes[offset + static_cast<size_t>(i)] =
          static_cast<char>((value >> (8 * i)) & 0xFFu);
    }
  };
  put_u32(8, version);
  put_u32(28, Crc32(bytes.data(), 28));
  put_u32(bytes.size() - kFooterSize,
          Crc32(bytes.data(), bytes.size() - kFooterSize));
  return bytes;
}

TEST_F(SnapshotPipeline, LoadedSnapshotReproducesSynthesisBitIdentically) {
  const std::string path = ::testing::TempDir() + "/pipeline.snap";
  std::remove(path.c_str());

  // Cold run: rebuild from feeds and save.
  SynthesizerOptions cold_options;
  cold_options.snapshot.path = path;
  ProductSynthesizer cold(&world_->catalog, cold_options);
  ASSERT_TRUE(cold.LearnOffline(world_->historical_offers,
                                world_->historical_matches)
                  .ok());
  EXPECT_EQ(GaugeValue(cold.learning_stats().registry, "snapshot.saved"), 1);
  {
    // The published file holds exactly the sections restore reads.
    const std::string bytes = ReadBytes(path);
    auto layout = ValidateSnapshotBytes(bytes.data(), bytes.size());
    ASSERT_TRUE(layout.ok()) << layout.status();
    EXPECT_EQ(layout->format_version, kFormatVersion);
    EXPECT_EQ(SectionIds(*layout), kV2SectionIds);
  }
  auto cold_result = cold.Synthesize(world_->incoming_offers, world_->pages);
  ASSERT_TRUE(cold_result.ok()) << cold_result.status();

  // Warm runs: every thread count (and so every chunk plan) loads the
  // same file and reproduces the cold output bit-identically.
  struct Plan {
    size_t offline_threads;
    size_t runtime_threads;
  };
  const std::vector<Plan> plans = {{1, 1}, {2, 2}, {3, 3}, {4, 4}, {0, 0}};
  for (const Plan& plan : plans) {
    SCOPED_TRACE("offline=" + std::to_string(plan.offline_threads) +
                 " runtime=" + std::to_string(plan.runtime_threads));
    SynthesizerOptions warm_options;
    warm_options.snapshot.path = path;
    warm_options.offline_threads = plan.offline_threads;
    warm_options.runtime_threads = plan.runtime_threads;
    ProductSynthesizer warm(&world_->catalog, warm_options);
    ASSERT_TRUE(warm.LearnOffline(world_->historical_offers,
                                  world_->historical_matches)
                    .ok());
    EXPECT_EQ(GaugeValue(warm.learning_stats().registry, "snapshot.loaded"),
              1);
    ASSERT_EQ(warm.correspondences().size(), cold.correspondences().size());
    ExpectBitIdenticalModels(cold, warm);
    auto warm_result =
        warm.Synthesize(world_->incoming_offers, world_->pages);
    ASSERT_TRUE(warm_result.ok()) << warm_result.status();
    EXPECT_TRUE(ProductsEqual(cold_result->products, warm_result->products));
    EXPECT_EQ(cold_result->stats.synthesized_attributes,
              warm_result->stats.synthesized_attributes);
  }
  std::remove(path.c_str());
}

TEST_F(SnapshotPipeline, CorruptSnapshotDegradesToRebuild) {
  const std::string path = ::testing::TempDir() + "/corrupt_pipeline.snap";
  std::remove(path.c_str());

  // Reference run without snapshotting.
  ProductSynthesizer reference(&world_->catalog, {});
  ASSERT_TRUE(reference
                  .LearnOffline(world_->historical_offers,
                                world_->historical_matches)
                  .ok());
  auto reference_result =
      reference.Synthesize(world_->incoming_offers, world_->pages);
  ASSERT_TRUE(reference_result.ok());

  SynthesizerOptions options;
  options.snapshot.path = path;
  {
    ProductSynthesizer seeder(&world_->catalog, options);
    ASSERT_TRUE(seeder
                    .LearnOffline(world_->historical_offers,
                                  world_->historical_matches)
                    .ok());
  }
  const std::string good = ReadBytes(path);
  ASSERT_GT(good.size(), kHeaderSize + kFooterSize);

  // Two planted inputs: a flipped payload byte, and a stale file of the
  // previous format version whose header and CRCs are all valid.
  std::string flipped = good;
  flipped[flipped.size() / 2] ^= 0x40;
  const std::string stale = WithFormatVersion(good, 1);
  {
    auto layout = ValidateSnapshotBytes(stale.data(), stale.size());
    ASSERT_FALSE(layout.ok());
    EXPECT_NE(layout.status().message().find("unsupported snapshot format "
                                             "version 1"),
              std::string::npos)
        << layout.status();
  }
  // Two more pass every CRC but carry an NBCL title model that would
  // crash at run time if restored: a class label that is not a category
  // id, and classes without documents (every score -inf). Decoded from
  // the good file, edited, re-encoded, so every checksum is valid.
  auto with_title_model = [&good](auto edit) {
    auto layout = ValidateSnapshotBytes(good.data(), good.size());
    EXPECT_TRUE(layout.ok()) << layout.status();
    auto decoded = DecodeSnapshotSections(good.data(), good.size(), *layout);
    EXPECT_TRUE(decoded.ok()) << decoded.status();
    OfflineSnapshot snapshot = std::move(decoded).ValueOrDie();
    EXPECT_FALSE(snapshot.title_model.classes.empty());
    edit(&snapshot.title_model);
    std::string bytes = EncodeSnapshotFile(snapshot);
    EXPECT_TRUE(ValidateSnapshotBytes(bytes.data(), bytes.size()).ok());
    return bytes;
  };
  const std::string bad_label = with_title_model([](NaiveBayesModel* m) {
    m->classes.back().label = "cameras";
  });
  const std::string no_documents = with_title_model([](NaiveBayesModel* m) {
    for (auto& cls : m->classes) cls.documents = 0;
  });
  const std::pair<const char*, const std::string*> planted[] = {
      {"flipped byte", &flipped},
      {"stale version 1", &stale},
      {"non-numeric title-classifier label", &bad_label},
      {"title-classifier classes without documents", &no_documents}};

  for (const auto& [name, bytes] : planted) {
    SCOPED_TRACE(name);
    WriteBytes(path, *bytes);

    // The unusable file degrades to a rebuild — and the rebuild
    // re-publishes a good snapshot over it.
    ProductSynthesizer fallback(&world_->catalog, options);
    ASSERT_TRUE(fallback
                    .LearnOffline(world_->historical_offers,
                                  world_->historical_matches)
                    .ok());
    EXPECT_EQ(GaugeValue(fallback.learning_stats().registry,
                         "snapshot.load_failed"),
              1);
    EXPECT_EQ(
        GaugeValue(fallback.learning_stats().registry, "snapshot.saved"), 1);
    auto fallback_result =
        fallback.Synthesize(world_->incoming_offers, world_->pages);
    ASSERT_TRUE(fallback_result.ok());
    EXPECT_TRUE(
        ProductsEqual(reference_result->products, fallback_result->products));
    EXPECT_TRUE(ReadBytes(path) == good)
        << "the rebuild did not republish the current-version snapshot";

    // Second learner finds the re-published snapshot healthy.
    ProductSynthesizer second(&world_->catalog, options);
    ASSERT_TRUE(second
                    .LearnOffline(world_->historical_offers,
                                  world_->historical_matches)
                    .ok());
    EXPECT_EQ(GaugeValue(second.learning_stats().registry, "snapshot.loaded"),
              1);
    auto second_result =
        second.Synthesize(world_->incoming_offers, world_->pages);
    ASSERT_TRUE(second_result.ok());
    EXPECT_TRUE(
        ProductsEqual(reference_result->products, second_result->products));
  }
  std::remove(path.c_str());
}

TEST_F(SnapshotPipeline, LoadDisabledAlwaysRebuilds) {
  const std::string path = ::testing::TempDir() + "/no_load.snap";
  std::remove(path.c_str());
  SynthesizerOptions options;
  options.snapshot.path = path;
  {
    ProductSynthesizer seeder(&world_->catalog, options);
    ASSERT_TRUE(seeder
                    .LearnOffline(world_->historical_offers,
                                  world_->historical_matches)
                    .ok());
  }
  options.snapshot.load_if_present = false;
  ProductSynthesizer rebuilt(&world_->catalog, options);
  ASSERT_TRUE(rebuilt
                  .LearnOffline(world_->historical_offers,
                                world_->historical_matches)
                  .ok());
  EXPECT_EQ(GaugeValue(rebuilt.learning_stats().registry, "snapshot.loaded"),
            -1);
  EXPECT_EQ(GaugeValue(rebuilt.learning_stats().registry, "snapshot.saved"),
            1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace prodsyn
