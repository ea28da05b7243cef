// Write-ahead log: append-only record stream with monotonic LSNs,
// CRC-32C-per-record framing (wal_format.h) and group-commit fsync
// batching. The durability contract this implements:
//
//   * Append() returns only after the record bytes reached the file
//     (one write() per record) and, when the group-commit policy fired,
//     after fdatasync — so an acknowledged write survives process death
//     unconditionally and survives OS death up to the configured sync
//     policy.
//   * Replay() walks the log validating each frame (CRC, length bound,
//     strict lsn continuity) and stops cleanly at the first invalid
//     record: a torn tail yields the longest valid prefix and a clean
//     Status, never UB.
//   * ResetTo(covered) truncates the log behind a snapshot: records with
//     lsn <= covered are dropped by atomically rotating to a fresh file
//     (tmp + fsync + rename) that carries over any newer tail records.
//     A crash at any point leaves either the old or the new log, both
//     valid.
//
// Index classes wire this in via DurabilityConfig (EnableDurability /
// RecoverFromWal in src/dynamic/ and src/concurrent/, both through
// wal::IndexWal in index_wal.h); the protocol is documented in
// docs/DURABILITY.md.

#ifndef LI_WAL_WAL_H_
#define LI_WAL_WAL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "wal/file_backend.h"
#include "wal/wal_format.h"

namespace li::wal {

/// Group-commit + placement knobs, shared by every durable index class.
struct DurabilityConfig {
  /// WAL file path for single-log classes (DeltaRangeIndex,
  /// ConcurrentWritableIndex); directory for ShardedIndex, which routes
  /// per-shard logs (s<uid>.wal) plus per-shard snapshots beneath it.
  std::string path;
  /// fdatasync after every n-th appended record; 1 = sync-on-ack
  /// (strongest: acknowledged implies on-platter), 0 = never sync
  /// (page-cache durability only — survives SIGKILL, not power loss).
  size_t fsync_every_n = 1;
  /// I/O layer; nullptr = DefaultFileBackend(). Crash tests inject
  /// CrashFileBackend here.
  FileBackend* backend = nullptr;
};

/// Counters exposed through the index classes' DurabilityStats().
struct WalStats {
  uint64_t appends = 0;
  uint64_t syncs = 0;
  uint64_t resets = 0;          // truncation rotations
  uint64_t bytes_appended = 0;  // record bytes, excluding file headers
  uint64_t last_lsn = 0;        // last acknowledged record
  uint64_t last_synced_lsn = 0; // last record covered by an fdatasync
  uint64_t base_lsn = 0;        // current file's truncation watermark
};

/// POD persisted by durable index classes inside their snapshots (a
/// "<prefix>wal" section): the LSN watermark the snapshot covers.
/// Recovery replays only records past it.
struct WalSnapshotMeta {
  uint64_t covered_lsn = 0;
};
static_assert(sizeof(WalSnapshotMeta) == 8, "persisted verbatim");

/// Outcome of scanning a log file (Replay / WalWriter::Open).
struct WalReplayResult {
  uint64_t base_lsn = 0;
  uint64_t last_lsn = 0;   // == base_lsn when the file has no records
  uint64_t records = 0;
  bool torn_tail = false;  // stopped before EOF at an invalid record
  uint64_t valid_bytes = 0;  // offset just past the last valid record
  uint64_t file_bytes = 0;
};

/// Visitor for Replay: (type, lsn, payload, payload_len). A non-OK
/// return aborts the scan and is surfaced to the caller.
using WalRecordFn =
    std::function<Status(WalRecordType, uint64_t, const void*, size_t)>;

/// Scan `path`, invoking `fn` for each valid record in order. Stops
/// cleanly at the first invalid record (torn/corrupt tail) — that is an
/// OK outcome reported via WalReplayResult::torn_tail, not an error. A
/// missing file is kNotFound; an unreadable header (wrong magic/version
/// or header CRC mismatch) is kInvalidArgument, since nothing after it
/// can be trusted. `fn` may be null (pure validation scan).
Result<WalReplayResult> Replay(const std::string& path, const WalRecordFn& fn);

/// Single-file append handle. Not thread-safe: callers serialize appends
/// (the concurrent classes append under their writer mutex, which also
/// makes LSN order identical to write acknowledgement order).
class WalWriter {
 public:
  WalWriter() = default;  // empty shell; only assignment revives it
  ~WalWriter();
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Create a fresh log at `path` (atomically replacing any previous
  /// file) whose records will start at base_lsn + 1.
  static Result<WalWriter> Create(const std::string& path, uint64_t base_lsn,
                                  uint32_t payload_size,
                                  const DurabilityConfig& cfg);

  /// Open an existing log for appending. Scans the file first (same
  /// validation as Replay), truncates a torn tail so new records land on
  /// a valid boundary, and resumes LSNs after the last valid record.
  /// `scan` receives the scan outcome when non-null.
  static Result<WalWriter> Open(const std::string& path,
                                const DurabilityConfig& cfg,
                                WalReplayResult* scan);

  bool valid() const { return fd_ >= 0; }

  /// Append one record; returns its LSN. The record is acknowledged once
  /// written; the group-commit policy decides whether this call also
  /// pays the fdatasync.
  Result<uint64_t> Append(WalRecordType type, const void* payload,
                          size_t len);

  /// Force an fdatasync now (flushes the group-commit window).
  Status Sync();

  /// Truncate-behind: rotate to a fresh file whose base_lsn is
  /// `covered`, carrying over records with lsn > covered. Called after a
  /// snapshot publishing `covered` succeeds.
  Status ResetTo(uint64_t covered);

  const WalStats& stats() const { return stats_; }
  const std::string& path() const { return path_; }

 private:
  void Close();

  std::string path_;
  int fd_ = -1;
  DurabilityConfig cfg_;
  FileBackend* backend_ = nullptr;  // resolved from cfg_
  uint32_t payload_size_ = 0;
  WalStats stats_;
  uint64_t appends_since_sync_ = 0;
  Status io_error_;  // sticky: a failed append poisons the log
};

}  // namespace li::wal

#endif  // LI_WAL_WAL_H_
