// IndexWal — the write-ahead log of one single-log index
// (dynamic::DeltaRangeIndex, concurrent::ConcurrentWritableIndex), the
// index-side half of the durability protocol in docs/DURABILITY.md:
//
//   * Enable: attach a fresh log whose records start past the LSN the
//     index's snapshot covers;
//   * Recover: replay the log past that LSN through the index's own write
//     path (records at or below it are already in the snapshot), reject
//     a log that starts past it (a gap), then resume logging to the same
//     file — a stale log older than the snapshot is rotated so LSNs never
//     regress, a missing one starts fresh;
//   * Append: log-then-apply; the first failed append is kept as a
//     sticky status (the in-memory index keeps serving);
//   * snapshots: CaptureCovered names the LSN a snapshot covers,
//     TruncateAfterPublish drops the log behind it once the snapshot is
//     on disk, LoadCovered reads it back.
//
// Not thread-safe: the owner serializes every call (the concurrent index
// holds its writer mutex), except that Recover takes `mu` itself around
// its checks and installs and leaves the replay unlocked, because the
// replay re-enters the index's write path.

#ifndef LI_WAL_INDEX_WAL_H_
#define LI_WAL_INDEX_WAL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/status.h"
#include "snapshot/snapshot.h"
#include "wal/wal.h"

namespace li::wal {

class IndexWal {
 public:
  bool attached() const { return writer_ != nullptr; }
  /// Sticky status of the logging path since the last attach.
  const Status& status() const { return status_; }
  WalStats stats() const {
    return writer_ != nullptr ? writer_->stats() : WalStats{};
  }
  Status Sync() { return writer_ != nullptr ? writer_->Sync() : Status::OK(); }

  /// Attaches a fresh log at cfg.path for `payload_size`-byte records.
  Status Enable(const DurabilityConfig& cfg, uint32_t payload_size) {
    if (writer_ != nullptr) {
      return Status::FailedPrecondition("durability already enabled");
    }
    auto w = WalWriter::Create(cfg.path, covered_lsn_, payload_size, cfg);
    if (!w.ok()) return w.status();
    writer_ = std::make_unique<WalWriter>(w.take());
    status_ = Status::OK();
    return Status::OK();
  }

  /// Replays cfg.path past the covered LSN through
  /// `apply(type, payload)`, then resumes logging to it. `mu`, when
  /// given, is held around every check and install of the writer.
  template <typename Apply>
  Status Recover(const DurabilityConfig& cfg, uint32_t payload_size,
                 Apply&& apply, std::mutex* mu = nullptr) {
    auto lock = [mu] {
      return mu != nullptr ? std::unique_lock<std::mutex>(*mu)
                           : std::unique_lock<std::mutex>();
    };
    {
      const auto lk = lock();
      if (writer_ != nullptr) {
        return Status::FailedPrecondition("durability already enabled");
      }
    }
    const uint64_t covered = covered_lsn_;
    auto replay = Replay(
        cfg.path, [&](WalRecordType type, uint64_t lsn, const void* payload,
                      size_t len) -> Status {
          if (len != payload_size) {
            return Status::InvalidArgument("WAL record size mismatch");
          }
          if (lsn <= covered) return Status::OK();  // snapshot has it
          apply(type, payload);  // writer_ is null: nothing re-logs
          return Status::OK();
        });
    if (!replay.ok()) {
      if (replay.status().code() == StatusCode::kNotFound) {
        const auto lk = lock();
        return Enable(cfg, payload_size);  // no log yet: start one
      }
      return replay.status();
    }
    if (replay.value().base_lsn > covered) {
      return Status::InvalidArgument(
          "WAL gap: log starts past the snapshot's covered LSN");
    }
    auto w = WalWriter::Open(cfg.path, cfg, nullptr);
    if (!w.ok()) return w.status();
    const auto lk = lock();
    writer_ = std::make_unique<WalWriter>(w.take());
    status_ = Status::OK();
    if (writer_->stats().last_lsn < covered) {
      // Stale log older than the snapshot: rotate so LSNs cannot
      // regress below the watermark.
      LI_RETURN_IF_ERROR(writer_->ResetTo(covered));
    }
    covered_lsn_ = writer_->stats().last_lsn;
    return Status::OK();
  }

  /// Logs one record when attached; a failure poisons status().
  void Append(WalRecordType type, const void* payload, size_t len) {
    if (writer_ == nullptr) return;
    auto r = writer_->Append(type, payload, len);
    if (!r.ok()) status_ = r.status();
  }

  /// The watermark a snapshot taken now covers (every record appended so
  /// far), remembered for TruncateAfterPublish; nullopt when detached.
  std::optional<WalSnapshotMeta> CaptureCovered() {
    if (writer_ == nullptr) return std::nullopt;
    snapshot_covered_lsn_ = writer_->stats().last_lsn;
    return WalSnapshotMeta{snapshot_covered_lsn_};
  }

  /// Truncates the log behind the last captured watermark, once the
  /// snapshot carrying it is published. A crash in between leaves a
  /// longer log; replay filters by the covered LSN.
  Status TruncateAfterPublish() {
    return writer_ != nullptr ? writer_->ResetTo(snapshot_covered_lsn_)
                              : Status::OK();
  }

  /// Reads the "<prefix>wal" watermark section (absent in snapshots
  /// taken without durability) and detaches any log.
  Status LoadCovered(const snapshot::SnapshotReader& reader,
                     const std::string& prefix) {
    WalSnapshotMeta meta;
    const Status st = reader.GetPod(prefix + "wal", &meta);
    if (!st.ok() && st.code() != StatusCode::kNotFound) return st;
    *this = IndexWal();
    covered_lsn_ = st.ok() ? meta.covered_lsn : 0;
    return Status::OK();
  }

 private:
  std::unique_ptr<WalWriter> writer_;
  Status status_{};
  uint64_t covered_lsn_ = 0;  // watermark inherited from a snapshot
  uint64_t snapshot_covered_lsn_ = 0;  // stashed by CaptureCovered
};

}  // namespace li::wal

#endif  // LI_WAL_INDEX_WAL_H_
