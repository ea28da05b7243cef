// On-disk write-ahead-log format: a fixed 64-byte file header followed
// by a stream of length-prefixed, CRC-32C-framed records with strictly
// monotonic LSNs. The format is torn-write-safe by construction — every
// record is written with a single write() call and carries a checksum
// over its header fields and payload, so replay can stop cleanly at the
// first record that fails validation (a torn tail after a crash) without
// ever interpreting garbage bytes. Integrity layering mirrors the
// snapshot format (docs/PERSISTENCE.md); the recovery protocol that
// consumes this format is described in docs/DURABILITY.md.
//
// All integers are little-endian, as with src/snapshot/format.h.

#ifndef LI_WAL_WAL_FORMAT_H_
#define LI_WAL_WAL_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "snapshot/crc32c.h"

namespace li::wal {

/// "LIWAL001" interpreted as a little-endian u64 — distinct from the
/// snapshot magic so tools/snapshot_inspect can auto-detect which of the
/// two on-disk formats it was handed.
inline constexpr uint64_t kWalMagic = 0x3130'304C'4157'494CULL;

inline constexpr uint32_t kWalFormatVersion = 1;

/// Upper bound on a record payload. Real payloads are key-sized (8-16
/// bytes today); the cap exists so a corrupt length prefix can never
/// drive a multi-gigabyte allocation during replay.
inline constexpr uint32_t kMaxWalPayload = 1u << 20;

/// File header, 64 bytes. Written once (atomically, via tmp+rename) when
/// the log is created or rotated; records follow immediately after.
struct WalFileHeader {
  uint64_t magic = kWalMagic;
  uint32_t version = kWalFormatVersion;
  uint32_t payload_size = 0;  // fixed payload bytes per record; 0 = varied
  uint64_t base_lsn = 0;      // records in this file have lsn > base_lsn
  uint32_t header_crc = 0;    // CRC-32C of this struct with header_crc = 0
  uint8_t reserved[36] = {};

  uint32_t ComputeCrc() const {
    WalFileHeader tmp = *this;
    tmp.header_crc = 0;
    return snapshot::Crc32c(&tmp, sizeof(tmp));
  }
};
static_assert(sizeof(WalFileHeader) == 64, "WAL header layout is frozen");

/// Record kinds. Values are part of the on-disk format.
enum class WalRecordType : uint32_t {
  kInsert = 1,
  kErase = 2,
};

/// Per-record frame, 24 bytes, immediately followed by `len` payload
/// bytes. `crc` covers bytes [4, 24) of the header plus the payload, so
/// any torn or bit-flipped record fails validation as a unit.
struct WalRecordHeader {
  uint32_t crc = 0;
  uint32_t len = 0;   // payload bytes
  uint64_t lsn = 0;   // strictly monotonic: previous record's lsn + 1
  uint32_t type = 0;  // WalRecordType
  uint32_t reserved = 0;

  uint32_t ComputeCrc(const void* payload) const {
    const uint8_t* self = reinterpret_cast<const uint8_t*>(this);
    uint32_t c = snapshot::Crc32c(self + sizeof(crc), sizeof(*this) - sizeof(crc));
    return snapshot::Crc32c(payload, len, c);
  }
};
static_assert(sizeof(WalRecordHeader) == 24, "WAL record layout is frozen");

}  // namespace li::wal

#endif  // LI_WAL_WAL_FORMAT_H_
