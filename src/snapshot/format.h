// On-disk snapshot format (version 1): fixed-size structs, little-endian,
// CRC-32C checksums, every payload 64-byte aligned from the file start.
//
//   offset 0    FileHeader (64 B, crc-protected)
//   offset 64   section payloads, each starting on a 64 B boundary
//   table_offset  SectionEntry[section_count] (64 B each, crc-protected)
//
// The section table is self-describing: each entry names its section
// (prefix-composed, e.g. "s3/base/leaves"), records a kind tag, the
// payload's absolute file offset, byte size, and CRC-32C. Readers locate
// state by name, never by position, so writers may add sections freely
// within a format version. See docs/PERSISTENCE.md for the full layout
// diagram and versioning rules.

#ifndef LI_SNAPSHOT_FORMAT_H_
#define LI_SNAPSHOT_FORMAT_H_

#include <cstdint>
#include <type_traits>

namespace li::snapshot {

/// "LISNAP01" read as a little-endian u64. Bump the trailing digits (and
/// kFormatVersion) together on incompatible layout changes.
inline constexpr uint64_t kMagic = 0x3130'5041'4E53'494Cull;
inline constexpr uint32_t kFormatVersion = 1;
/// Alignment of every section payload's file offset.
inline constexpr uint64_t kSectionAlign = 64;
/// Longest section name, including prefixes, excluding the NUL.
inline constexpr size_t kMaxSectionName = 35;

struct FileHeader {
  uint64_t magic = kMagic;
  uint32_t version = kFormatVersion;
  uint32_t section_count = 0;
  uint64_t file_size = 0;     // total bytes; validated against the fd
  uint64_t table_offset = 0;  // absolute offset of SectionEntry[count]
  uint32_t table_crc = 0;     // CRC-32C of the section table bytes
  uint32_t header_crc = 0;    // CRC-32C of this struct with this field 0
  uint8_t reserved[24] = {};
};
static_assert(sizeof(FileHeader) == 64, "header is one cache line");
static_assert(std::is_trivially_copyable_v<FileHeader>);

/// Coarse payload classification for tooling (snapshot_inspect); readers
/// key on names, kinds are informational.
enum class SectionKind : uint32_t {
  kRaw = 0,       // uninterpreted bytes (strings, nested blobs)
  kMeta = 1,      // one POD metadata struct
  kKeys = 2,      // sorted key array
  kLeaves = 3,    // RMI leaf-model table
  kBitmap = 4,    // bloom bit words
  kSlots = 5,     // hash-map slot/overflow arrays
  kDelta = 6,     // packed delta-buffer entries
  kManifest = 7,  // composite-index manifest (shards, versions)
  kSegments = 8,  // range-filter segment table (per-segment CDF models)
  kRangeFilterMeta = 9,  // range-filter geometry meta (rangefilter/filter_meta.h)
  kRoute = 10,    // RMI routing-stage model table
};

inline const char* SectionKindName(SectionKind k) {
  switch (k) {
    case SectionKind::kRaw: return "raw";
    case SectionKind::kMeta: return "meta";
    case SectionKind::kKeys: return "keys";
    case SectionKind::kLeaves: return "leaves";
    case SectionKind::kBitmap: return "bitmap";
    case SectionKind::kSlots: return "slots";
    case SectionKind::kDelta: return "delta";
    case SectionKind::kManifest: return "manifest";
    case SectionKind::kSegments: return "segments";
    case SectionKind::kRangeFilterMeta: return "rf-meta";
    case SectionKind::kRoute: return "route";
  }
  return "unknown";
}

struct SectionEntry {
  char name[kMaxSectionName + 1] = {};  // NUL-terminated
  uint32_t kind = 0;                    // SectionKind
  uint64_t offset = 0;                  // absolute, kSectionAlign-aligned
  uint64_t size = 0;                    // payload bytes (before padding)
  uint32_t crc = 0;                     // CRC-32C of the payload
  uint32_t reserved = 0;
};
static_assert(sizeof(SectionEntry) == 64, "entry is one cache line");
static_assert(std::is_trivially_copyable_v<SectionEntry>);

}  // namespace li::snapshot

#endif  // LI_SNAPSHOT_FORMAT_H_
