// Corruption fuzz of the snapshot loader: truncation to every prefix
// length (so at and around every structural boundary) plus hundreds of
// seeded single-byte flips. The
// contract (docs/PERSISTENCE.md): every mangled variant is rejected with
// a clean Status — no crash, no hang, no UB (the CI chaos leg runs this
// under asan-ubsan), and no silently wrong decode.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/snapshot/codec.h"
#include "src/snapshot/format.h"
#include "src/snapshot/offline_snapshot.h"
#include "src/snapshot/reader.h"
#include "src/util/interner.h"

namespace prodsyn {
namespace {

// A small but fully populated snapshot (every section non-empty) so a
// truncation or flip can land in any structural region.
OfflineSnapshot MakeSample() {
  OfflineSnapshot snap;
  CandidateTuple tuple;
  tuple.catalog_attribute = "brand";
  tuple.offer_attribute = "mfr";
  tuple.merchant = 1;
  tuple.category = 2;
  snap.correspondences.push_back({tuple, 0.75});
  tuple.offer_attribute = "maker";
  snap.correspondences.push_back({tuple, 0.5});
  snap.lr_weights = {0.5, -1.5};
  snap.lr_intercept = 0.25;
  snap.lr_iterations = 11;
  snap.scaler_means = {1.0, 2.0};
  snap.scaler_stds = {3.0, 4.0};
  NaiveBayesModel::ClassState cls;
  cls.label = "2";
  cls.documents = 3;
  cls.total_tokens = 4;
  cls.token_counts = {{"acme", 4}};
  snap.title_model.alpha = 1.0;
  snap.title_model.total_documents = 3;
  snap.title_model.classes.push_back(cls);
  snap.title_model.vocabulary = {"acme"};
  return snap;
}

// Validate + decode without touching the filesystem; returns the first
// failure, OkStatus on a full clean decode.
Status TryDecode(const std::string& bytes) {
  auto layout = ValidateSnapshotBytes(bytes.data(), bytes.size());
  if (!layout.ok()) return layout.status();
  auto decoded = DecodeSnapshotSections(bytes.data(), bytes.size(), *layout);
  return decoded.status();
}

class SnapshotCorruption : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bytes_ = new std::string(EncodeSnapshotFile(MakeSample()));
    auto layout = ValidateSnapshotBytes(bytes_->data(), bytes_->size());
    ASSERT_TRUE(layout.ok()) << layout.status();
    layout_ = new SnapshotLayout(*layout);
  }
  static void TearDownTestSuite() {
    delete bytes_;
    bytes_ = nullptr;
    delete layout_;
    layout_ = nullptr;
  }

  static std::string* bytes_;
  static SnapshotLayout* layout_;
};

std::string* SnapshotCorruption::bytes_ = nullptr;
SnapshotLayout* SnapshotCorruption::layout_ = nullptr;

TEST_F(SnapshotCorruption, PristineBytesDecode) {
  EXPECT_TRUE(TryDecode(*bytes_).ok());
}

TEST_F(SnapshotCorruption, TruncationAtEveryStructuralBoundary) {
  // Every prefix of the file, so every structural edge is among the cuts:
  // empty file, mid-header, each section-table row, each section payload
  // start/middle/end, mid-footer, off-by-one short.
  for (size_t cut = 0; cut < bytes_->size(); ++cut) {
    SCOPED_TRACE("truncated to " + std::to_string(cut) + " bytes");
    const Status st = TryDecode(bytes_->substr(0, cut));
    EXPECT_FALSE(st.ok()) << "truncated snapshot accepted";
    EXPECT_TRUE(st.IsParseError()) << st;
  }
}

TEST_F(SnapshotCorruption, EverySeededSingleByteFlipIsRejected) {
  // ≥256 deterministic flips: Mix64 spreads the offsets over the whole
  // file, the flipped bit cycles through all 8 positions. Every variant
  // must fail validation (full-file CRC catches any single-byte change).
  const size_t kFlips = 320;
  size_t rejected = 0;
  for (size_t i = 0; i < kFlips; ++i) {
    const size_t offset =
        static_cast<size_t>(Mix64(0x5EEDu + i) % bytes_->size());
    const unsigned char mask = static_cast<unsigned char>(1u << (i % 8));
    std::string mangled = *bytes_;
    mangled[offset] = static_cast<char>(
        static_cast<unsigned char>(mangled[offset]) ^ mask);
    SCOPED_TRACE("flip bit " + std::to_string(i % 8) + " at offset " +
                 std::to_string(offset));
    const Status st = TryDecode(mangled);
    EXPECT_FALSE(st.ok()) << "corrupt snapshot accepted";
    EXPECT_TRUE(st.IsParseError()) << st;
    if (!st.ok()) ++rejected;
  }
  EXPECT_EQ(rejected, kFlips);
}

TEST_F(SnapshotCorruption, HeaderFieldMutationsAreRejectedPrecisely) {
  auto mutate_u32 = [&](size_t offset, uint32_t value) {
    std::string mangled = *bytes_;
    std::memcpy(&mangled[offset], &value, sizeof(value));
    return mangled;
  };
  // Bad magic.
  {
    std::string mangled = *bytes_;
    mangled[0] = 'X';
    EXPECT_FALSE(TryDecode(mangled).ok());
  }
  // Unsupported future version (offset 8) — cache miss, not a crash.
  EXPECT_FALSE(TryDecode(mutate_u32(8, kFormatVersion + 1)).ok());
  // Byte-swapped endian tag (offset 12): a big-endian writer's output.
  EXPECT_FALSE(TryDecode(mutate_u32(12, 0x04030201u)).ok());
  // Lying section count (offset 24).
  EXPECT_FALSE(TryDecode(mutate_u32(24, 1000000u)).ok());
  EXPECT_FALSE(TryDecode(mutate_u32(24, 0u)).ok());
}

TEST_F(SnapshotCorruption, SectionTableMutationsAreRejected) {
  auto mutate_u64 = [&](size_t offset, uint64_t value) {
    std::string mangled = *bytes_;
    std::memcpy(&mangled[offset], &value, sizeof(value));
    return mangled;
  };
  const size_t first_row = kHeaderSize;
  // Offset pointing past the file.
  EXPECT_FALSE(TryDecode(mutate_u64(first_row + 8, bytes_->size())).ok());
  // Length overflowing the file.
  EXPECT_FALSE(TryDecode(mutate_u64(first_row + 16, ~0ull)).ok());
  // Offset/length whose sum wraps uint64.
  {
    std::string mangled = mutate_u64(first_row + 8, ~0ull - 8);
    const uint64_t huge = ~0ull;
    std::memcpy(&mangled[first_row + 16], &huge, sizeof(huge));
    EXPECT_FALSE(TryDecode(mangled).ok());
  }
}

TEST_F(SnapshotCorruption, GarbageAndTinyInputsAreRejected) {
  EXPECT_FALSE(TryDecode("").ok());
  EXPECT_FALSE(TryDecode("x").ok());
  EXPECT_FALSE(TryDecode(std::string(kHeaderSize - 1, '\0')).ok());
  EXPECT_FALSE(TryDecode(std::string(kHeaderSize + kFooterSize, '\0')).ok());
  std::string noise(4096, '\0');
  for (size_t i = 0; i < noise.size(); ++i) {
    noise[i] = static_cast<char>(Mix64(i) & 0xFF);
  }
  EXPECT_FALSE(TryDecode(noise).ok());
}

TEST_F(SnapshotCorruption, TrailingGarbageAfterFooterIsRejected) {
  EXPECT_FALSE(TryDecode(*bytes_ + std::string(16, '\0')).ok());
}

TEST_F(SnapshotCorruption, LoaderRejectsCorruptFileOnDisk) {
  // End-to-end through mmap: the same guarantees hold for a real file.
  const std::string path = ::testing::TempDir() + "/corrupt_fuzz.snap";
  std::string mangled = *bytes_;
  mangled[mangled.size() / 3] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(mangled.data(), static_cast<std::streamsize>(mangled.size()));
  }
  auto loaded = LoadOfflineSnapshot(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsParseError()) << loaded.status();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace prodsyn
