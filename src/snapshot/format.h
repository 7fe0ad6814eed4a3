#ifndef DIALITE_SNAPSHOT_FORMAT_H_
#define DIALITE_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace dialite {

/// On-disk layout of a dialite lake snapshot (see DESIGN.md "Snapshot
/// format"):
///
///   [0, 64)              fixed header (kSnapshotHeaderSize bytes)
///   [64, table_offset)   section payloads, each starting at a 64-byte-
///                        aligned offset, zero-padded between sections
///   [table_offset, ...)  section table: one entry per section, in write
///                        order — u32 name length + name bytes + u64 offset
///                        + u64 length + u32 payload CRC32
///
/// Header layout (all integers little-endian):
///   off  0  u8[8]  magic "DIALSNAP"
///   off  8  u32    format version (kSnapshotFormatVersion)
///   off 12  u32    endian tag (kSnapshotEndianTag; a byte-swapped value
///                  identifies a big-endian writer and is rejected)
///   off 16  u64    total file size in bytes
///   off 24  u64    section table offset
///   off 32  u64    section table length in bytes
///   off 40  u32    section count
///   off 44  u32    CRC32 of the section table bytes
///   off 48  u32    CRC32 of header bytes [0, 48)
///   off 52  zero padding to 64
inline constexpr char kSnapshotMagic[8] = {'D', 'I', 'A', 'L',
                                           'S', 'N', 'A', 'P'};
inline constexpr uint32_t kSnapshotFormatVersion = 1;
inline constexpr uint32_t kSnapshotEndianTag = 0x1A2B3C4Du;
inline constexpr size_t kSnapshotHeaderSize = 64;
inline constexpr size_t kSnapshotSectionAlign = 64;

/// One row of the section table. `offset`/`length` address the payload
/// bytes inside the file; `crc32` covers exactly those bytes.
struct SnapshotSection {
  std::string name;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc32 = 0;
};

/// Well-known section names. Tables get one section each ("tbl." + name);
/// the lake's token dictionary and column token sets one ("lake.tokens");
/// discovery indexes one each ("idx." + algorithm name).
inline constexpr char kSectionLakeManifest[] = "lake.manifest";
inline constexpr char kSectionLakeTokens[] = "lake.tokens";
inline constexpr char kSectionTablePrefix[] = "tbl.";
inline constexpr char kSectionIndexPrefix[] = "idx.";

}  // namespace dialite

#endif  // DIALITE_SNAPSHOT_FORMAT_H_
