// On-disk layout of the offline-learning snapshot (docs/PERSISTENCE.md).
//
// All integers are little-endian. The file is:
//
//   header (32 bytes)
//     magic[8]          "PSYNSNAP"
//     u32 format_version  kFormatVersion
//     u32 endian_tag      kEndianTag (0x01020304 as written by LE)
//     u64 file_size       total file size, footer included
//     u32 section_count
//     u32 header_crc      CRC-32 of the 28 bytes above
//   section table (section_count × 24 bytes)
//     u32 id              fourcc, see kSection* below
//     u32 payload_crc     CRC-32 of the payload bytes
//     u64 offset          absolute payload offset
//     u64 length          payload length in bytes
//   payloads              concatenated, in table order
//   footer (8 bytes)
//     u32 file_crc        CRC-32 of every byte before the footer
//     u32 footer_magic    kFooterMagic
//
// Every byte of the file is covered by at least one checksum (header by
// header_crc, table and payloads by file_crc, payloads additionally by
// their payload_crc, footer by being the checksum), so any single
// flipped byte is detected. Versioning policy: readers accept exactly
// kFormatVersion; any layout change bumps it and old files are treated
// as a cache miss (rebuild from feeds), never migrated in place.

#ifndef PRODSYN_SNAPSHOT_FORMAT_H_
#define PRODSYN_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace prodsyn {

inline constexpr char kSnapshotMagic[8] = {'P', 'S', 'Y', 'N',
                                           'S', 'N', 'A', 'P'};
inline constexpr uint32_t kFormatVersion = 2;
/// Written as the literal u32 0x01020304; a big-endian writer would
/// produce bytes that read back as 0x04030201 here, which the loader
/// rejects (the format is little-endian only).
inline constexpr uint32_t kEndianTag = 0x01020304u;
inline constexpr uint32_t kFooterMagic = 0x50414E53u;  // "SNAP" LE

inline constexpr size_t kHeaderSize = 32;
inline constexpr size_t kSectionEntrySize = 24;
inline constexpr size_t kFooterSize = 8;

/// Section ids (fourcc, first character in the low byte). Version 2
/// holds exactly the three sections below, in declaration order.
inline constexpr uint32_t FourCc(char a, char b, char c, char d) {
  return static_cast<uint32_t>(static_cast<unsigned char>(a)) |
         (static_cast<uint32_t>(static_cast<unsigned char>(b)) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(c)) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(d)) << 24);
}

/// Trained LR weights + the standardizing scaler, as f64 bit patterns.
inline constexpr uint32_t kSectionLrModel = FourCc('L', 'R', 'M', 'W');
/// Scored attribute correspondences (the offline phase's output).
inline constexpr uint32_t kSectionCorrespondences = FourCc('C', 'O', 'R', 'R');
/// Title classifier's naive-Bayes state.
inline constexpr uint32_t kSectionNaiveBayes = FourCc('N', 'B', 'C', 'L');

}  // namespace prodsyn

#endif  // PRODSYN_SNAPSHOT_FORMAT_H_
