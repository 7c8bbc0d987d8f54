#include "src/snapshot/codec.h"

#include <cstring>
#include <iterator>
#include <utility>

#include "src/snapshot/byte_io.h"
#include "src/snapshot/format.h"
#include "src/util/checksum.h"

namespace prodsyn {

namespace {

// ---------------------------------------------------------------------
// Section encoders. Each produces one payload string; the canonical
// orders are established by the exporting structures (the
// score-descending correspondences, NaiveBayesModel), so encoding is a
// straight walk.

std::string EncodeLrModel(const OfflineSnapshot& snapshot) {
  ByteWriter w;
  w.PutU64(snapshot.lr_weights.size());
  for (double v : snapshot.lr_weights) w.PutF64(v);
  w.PutF64(snapshot.lr_intercept);
  w.PutU64(snapshot.lr_iterations);
  w.PutU64(snapshot.scaler_means.size());
  for (double v : snapshot.scaler_means) w.PutF64(v);
  for (double v : snapshot.scaler_stds) w.PutF64(v);
  return w.Take();
}

std::string EncodeCorrespondences(const OfflineSnapshot& snapshot) {
  ByteWriter w;
  w.PutU64(snapshot.correspondences.size());
  for (const auto& corr : snapshot.correspondences) {
    w.PutString(corr.tuple.catalog_attribute);
    w.PutString(corr.tuple.offer_attribute);
    w.PutU32(static_cast<uint32_t>(corr.tuple.merchant));
    w.PutU32(static_cast<uint32_t>(corr.tuple.category));
    w.PutF64(corr.score);
  }
  return w.Take();
}

std::string EncodeNaiveBayes(const NaiveBayesModel& model) {
  ByteWriter w;
  w.PutF64(model.alpha);
  w.PutU64(model.total_documents);
  w.PutU64(model.classes.size());
  for (const auto& state : model.classes) {
    w.PutString(state.label);
    w.PutU64(state.documents);
    w.PutU64(state.total_tokens);
    w.PutU64(state.token_counts.size());
    for (const auto& [token, count] : state.token_counts) {
      w.PutString(token);
      w.PutU64(count);
    }
  }
  w.PutU64(model.vocabulary.size());
  for (const auto& token : model.vocabulary) w.PutString(token);
  return w.Take();
}

// ---------------------------------------------------------------------
// Section decoders. `CheckCount` guards every element-count read: a
// count larger than the bytes left cannot be honest, and rejecting it
// before the reserve/resize keeps a corrupt length from driving an
// OOM-sized allocation.

Status CheckCount(uint64_t count, const ByteReader& r, const char* what) {
  if (count > r.remaining()) {
    return Status::ParseError("snapshot section claims " +
                              std::to_string(count) + " " + what + " but only " +
                              std::to_string(r.remaining()) +
                              " bytes remain");
  }
  return Status::OK();
}

Status CheckExhausted(const ByteReader& r, const char* section) {
  if (!r.exhausted()) {
    return Status::ParseError(std::string("snapshot section ") + section +
                              " has " + std::to_string(r.remaining()) +
                              " trailing bytes");
  }
  return Status::OK();
}

Status DecodeLrModel(ByteReader r, OfflineSnapshot* snapshot) {
  PRODSYN_ASSIGN_OR_RETURN(uint64_t weights, r.U64());
  PRODSYN_RETURN_NOT_OK(CheckCount(weights, r, "LR weights"));
  snapshot->lr_weights.reserve(static_cast<size_t>(weights));
  for (uint64_t i = 0; i < weights; ++i) {
    PRODSYN_ASSIGN_OR_RETURN(double v, r.F64());
    snapshot->lr_weights.push_back(v);
  }
  PRODSYN_ASSIGN_OR_RETURN(snapshot->lr_intercept, r.F64());
  PRODSYN_ASSIGN_OR_RETURN(snapshot->lr_iterations, r.U64());
  PRODSYN_ASSIGN_OR_RETURN(uint64_t dims, r.U64());
  PRODSYN_RETURN_NOT_OK(CheckCount(dims, r, "scaler dimensions"));
  snapshot->scaler_means.reserve(static_cast<size_t>(dims));
  snapshot->scaler_stds.reserve(static_cast<size_t>(dims));
  for (uint64_t i = 0; i < dims; ++i) {
    PRODSYN_ASSIGN_OR_RETURN(double v, r.F64());
    snapshot->scaler_means.push_back(v);
  }
  for (uint64_t i = 0; i < dims; ++i) {
    PRODSYN_ASSIGN_OR_RETURN(double v, r.F64());
    snapshot->scaler_stds.push_back(v);
  }
  return CheckExhausted(r, "LRMW");
}

Status DecodeCorrespondences(ByteReader r, OfflineSnapshot* snapshot) {
  PRODSYN_ASSIGN_OR_RETURN(uint64_t count, r.U64());
  PRODSYN_RETURN_NOT_OK(CheckCount(count, r, "correspondences"));
  snapshot->correspondences.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    AttributeCorrespondence corr;
    PRODSYN_ASSIGN_OR_RETURN(corr.tuple.catalog_attribute, r.String());
    PRODSYN_ASSIGN_OR_RETURN(corr.tuple.offer_attribute, r.String());
    PRODSYN_ASSIGN_OR_RETURN(uint32_t merchant, r.U32());
    PRODSYN_ASSIGN_OR_RETURN(uint32_t category, r.U32());
    corr.tuple.merchant = static_cast<MerchantId>(merchant);
    corr.tuple.category = static_cast<CategoryId>(category);
    PRODSYN_ASSIGN_OR_RETURN(corr.score, r.F64());
    snapshot->correspondences.push_back(std::move(corr));
  }
  return CheckExhausted(r, "CORR");
}

Status DecodeNaiveBayes(ByteReader r, NaiveBayesModel* model) {
  PRODSYN_ASSIGN_OR_RETURN(model->alpha, r.F64());
  PRODSYN_ASSIGN_OR_RETURN(model->total_documents, r.U64());
  PRODSYN_ASSIGN_OR_RETURN(uint64_t classes, r.U64());
  PRODSYN_RETURN_NOT_OK(CheckCount(classes, r, "NB classes"));
  model->classes.reserve(static_cast<size_t>(classes));
  for (uint64_t i = 0; i < classes; ++i) {
    NaiveBayesModel::ClassState state;
    PRODSYN_ASSIGN_OR_RETURN(state.label, r.String());
    PRODSYN_ASSIGN_OR_RETURN(state.documents, r.U64());
    PRODSYN_ASSIGN_OR_RETURN(state.total_tokens, r.U64());
    PRODSYN_ASSIGN_OR_RETURN(uint64_t tokens, r.U64());
    PRODSYN_RETURN_NOT_OK(CheckCount(tokens, r, "NB token counts"));
    state.token_counts.reserve(static_cast<size_t>(tokens));
    for (uint64_t t = 0; t < tokens; ++t) {
      PRODSYN_ASSIGN_OR_RETURN(std::string token, r.String());
      PRODSYN_ASSIGN_OR_RETURN(uint64_t count, r.U64());
      state.token_counts.emplace_back(std::move(token), count);
    }
    model->classes.push_back(std::move(state));
  }
  PRODSYN_ASSIGN_OR_RETURN(uint64_t vocab, r.U64());
  PRODSYN_RETURN_NOT_OK(CheckCount(vocab, r, "NB vocabulary"));
  model->vocabulary.reserve(static_cast<size_t>(vocab));
  for (uint64_t i = 0; i < vocab; ++i) {
    PRODSYN_ASSIGN_OR_RETURN(std::string token, r.String());
    model->vocabulary.push_back(std::move(token));
  }
  return CheckExhausted(r, "NBCL");
}

// Little-endian scalar peeks for header/footer fields (the ByteReader is
// used for payloads; the fixed-layout frame is simpler by offset).
uint32_t PeekU32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t PeekU64(const unsigned char* p) {
  return static_cast<uint64_t>(PeekU32(p)) |
         (static_cast<uint64_t>(PeekU32(p + 4)) << 32);
}

std::string FourCcName(uint32_t id) {
  std::string name(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((id >> (8 * i)) & 0xFFu);
    name[static_cast<size_t>(i)] = (c >= 0x20 && c < 0x7F) ? c : '?';
  }
  return name;
}

}  // namespace

std::string EncodeSnapshotFile(const OfflineSnapshot& snapshot) {
  // Payloads in canonical section order.
  const std::pair<uint32_t, std::string> sections[] = {
      {kSectionLrModel, EncodeLrModel(snapshot)},
      {kSectionCorrespondences, EncodeCorrespondences(snapshot)},
      {kSectionNaiveBayes, EncodeNaiveBayes(snapshot.title_model)},
  };
  const size_t section_count = std::size(sections);

  uint64_t payload_total = 0;
  for (const auto& [id, payload] : sections) {
    (void)id;
    payload_total += payload.size();
  }
  const uint64_t file_size = kHeaderSize +
                             section_count * kSectionEntrySize +
                             payload_total + kFooterSize;

  ByteWriter w;
  w.PutBytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  w.PutU32(kFormatVersion);
  w.PutU32(kEndianTag);
  w.PutU64(file_size);
  w.PutU32(static_cast<uint32_t>(section_count));
  w.PutU32(Crc32(w.bytes().data(), w.size()));  // header CRC over [0, 28)

  uint64_t offset = kHeaderSize + section_count * kSectionEntrySize;
  for (const auto& [id, payload] : sections) {
    w.PutU32(id);
    w.PutU32(Crc32(payload.data(), payload.size()));
    w.PutU64(offset);
    w.PutU64(payload.size());
    offset += payload.size();
  }
  for (const auto& [id, payload] : sections) {
    (void)id;
    w.PutBytes(payload.data(), payload.size());
  }
  w.PutU32(Crc32(w.bytes().data(), w.size()));  // file CRC over all prior
  w.PutU32(kFooterMagic);
  return w.Take();
}

Result<SnapshotLayout> ValidateSnapshotBytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  if (size < kHeaderSize + kFooterSize) {
    return Status::ParseError("snapshot too small to hold header + footer (" +
                              std::to_string(size) + " bytes)");
  }
  if (std::memcmp(bytes, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::ParseError("bad snapshot magic");
  }
  SnapshotLayout layout;
  layout.format_version = PeekU32(bytes + 8);
  if (layout.format_version != kFormatVersion) {
    return Status::ParseError(
        "unsupported snapshot format version " +
        std::to_string(layout.format_version) + " (this build reads " +
        std::to_string(kFormatVersion) + ")");
  }
  const uint32_t endian = PeekU32(bytes + 12);
  if (endian != kEndianTag) {
    return Status::ParseError("snapshot endianness mismatch");
  }
  layout.file_size = PeekU64(bytes + 16);
  if (layout.file_size != size) {
    return Status::ParseError("snapshot records " +
                              std::to_string(layout.file_size) +
                              " bytes but the file holds " +
                              std::to_string(size));
  }
  const uint32_t section_count = PeekU32(bytes + 24);
  const uint32_t header_crc = PeekU32(bytes + 28);
  if (header_crc != Crc32(bytes, 28)) {
    return Status::ParseError("snapshot header checksum mismatch");
  }
  // Past this point the header fields are trustworthy (CRC-covered).
  const uint64_t non_table = kHeaderSize + kFooterSize;
  if (section_count > (size - non_table) / kSectionEntrySize) {
    return Status::ParseError("snapshot section table does not fit the file");
  }
  const uint64_t payload_base =
      kHeaderSize + static_cast<uint64_t>(section_count) * kSectionEntrySize;

  const uint32_t footer_magic = PeekU32(bytes + size - 4);
  if (footer_magic != kFooterMagic) {
    return Status::ParseError("bad snapshot footer magic (truncated file?)");
  }
  const uint32_t file_crc = PeekU32(bytes + size - kFooterSize);
  if (file_crc != Crc32(bytes, size - kFooterSize)) {
    return Status::ParseError("snapshot file checksum mismatch");
  }

  layout.sections.reserve(section_count);
  uint64_t expected_offset = payload_base;
  for (uint32_t i = 0; i < section_count; ++i) {
    const unsigned char* row = bytes + kHeaderSize + i * kSectionEntrySize;
    SnapshotSectionEntry entry;
    entry.id = PeekU32(row);
    entry.payload_crc = PeekU32(row + 4);
    entry.offset = PeekU64(row + 8);
    entry.length = PeekU64(row + 16);
    // Sections must tile [payload_base, size - footer) exactly, in table
    // order — anything else is structural corruption.
    if (entry.offset != expected_offset || entry.length > size ||
        entry.offset > size - kFooterSize ||
        entry.offset + entry.length > size - kFooterSize) {
      return Status::ParseError("snapshot section " + FourCcName(entry.id) +
                                " has out-of-bounds extent");
    }
    expected_offset = entry.offset + entry.length;
    if (entry.payload_crc != Crc32(bytes + entry.offset, entry.length)) {
      return Status::ParseError("snapshot section " + FourCcName(entry.id) +
                                " checksum mismatch");
    }
    layout.sections.push_back(entry);
  }
  if (expected_offset != size - kFooterSize) {
    return Status::ParseError("snapshot payloads do not tile the file");
  }
  return layout;
}

Result<OfflineSnapshot> DecodeSnapshotSections(const void* data, size_t size,
                                               const SnapshotLayout& layout) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  (void)size;
  // The current format version defines exactly these sections, in this
  // order.
  constexpr uint32_t kExpected[] = {
      kSectionLrModel,
      kSectionCorrespondences,
      kSectionNaiveBayes,
  };
  constexpr size_t kExpectedCount = std::size(kExpected);
  if (layout.sections.size() != kExpectedCount) {
    return Status::ParseError("snapshot holds " +
                              std::to_string(layout.sections.size()) +
                              " sections; format version " +
                              std::to_string(kFormatVersion) + " defines " +
                              std::to_string(kExpectedCount));
  }
  for (size_t i = 0; i < kExpectedCount; ++i) {
    if (layout.sections[i].id != kExpected[i]) {
      return Status::ParseError("unexpected snapshot section '" +
                                FourCcName(layout.sections[i].id) +
                                "' at index " + std::to_string(i));
    }
  }
  const auto reader_of = [&](size_t i) {
    return ByteReader(bytes + layout.sections[i].offset,
                      static_cast<size_t>(layout.sections[i].length));
  };
  OfflineSnapshot snapshot;
  PRODSYN_RETURN_NOT_OK(DecodeLrModel(reader_of(0), &snapshot));
  PRODSYN_RETURN_NOT_OK(DecodeCorrespondences(reader_of(1), &snapshot));
  PRODSYN_RETURN_NOT_OK(DecodeNaiveBayes(reader_of(2), &snapshot.title_model));
  return snapshot;
}

}  // namespace prodsyn
