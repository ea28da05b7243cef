#include "wal/wal.h"

#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace li::wal {
namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

Status ReadExact(int fd, uint64_t off, void* out, size_t n, bool* short_read) {
  *short_read = false;
  char* p = static_cast<char*>(out);
  size_t left = n;
  while (left > 0) {
    const ssize_t r = ::pread(fd, p, left, static_cast<off_t>(off));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("pread"));
    }
    if (r == 0) {  // EOF before n bytes
      *short_read = true;
      return Status::OK();
    }
    p += r;
    off += static_cast<uint64_t>(r);
    left -= static_cast<size_t>(r);
  }
  return Status::OK();
}

bool ValidRecordType(uint32_t t) {
  return t == static_cast<uint32_t>(WalRecordType::kInsert) ||
         t == static_cast<uint32_t>(WalRecordType::kErase);
}

/// Write a header-only log file at `path` atomically: tmp + fsync +
/// rename. After this returns OK, `path` always has a valid header.
Status PublishHeaderFile(const std::string& path, const WalFileHeader& hdr,
                         const void* tail, size_t tail_len) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC,
                        0644);
  if (fd < 0) return Status::Internal(Errno("open " + tmp));
  Status st = DefaultFileBackend()->Write(fd, &hdr, sizeof(hdr));
  if (st.ok() && tail_len > 0) {
    st = DefaultFileBackend()->Write(fd, tail, tail_len);
  }
  if (st.ok()) st = DefaultFileBackend()->Sync(fd);
  ::close(fd);
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::Internal(Errno("rename " + tmp));
  }
  return Status::OK();
}

Result<int> OpenAppendFd(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) return Status::Internal(Errno("open " + path));
  return fd;
}

}  // namespace

Result<WalReplayResult> Replay(const std::string& path,
                               const WalRecordFn& fn) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no WAL at " + path);
    return Status::Internal(Errno("open " + path));
  }
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};

  struct stat stbuf;
  if (::fstat(fd, &stbuf) != 0) return Status::Internal(Errno("fstat"));

  WalReplayResult out;
  out.file_bytes = static_cast<uint64_t>(stbuf.st_size);

  WalFileHeader hdr;
  bool short_read = false;
  LI_RETURN_IF_ERROR(ReadExact(fd, 0, &hdr, sizeof(hdr), &short_read));
  if (short_read) {
    return Status::InvalidArgument(path + ": truncated WAL header");
  }
  if (hdr.magic != kWalMagic) {
    return Status::InvalidArgument(path + ": not a WAL file (bad magic)");
  }
  if (hdr.version != kWalFormatVersion) {
    return Status::InvalidArgument(path + ": unsupported WAL version " +
                                   std::to_string(hdr.version));
  }
  if (hdr.header_crc != hdr.ComputeCrc()) {
    return Status::InvalidArgument(path + ": WAL header CRC mismatch");
  }

  out.base_lsn = hdr.base_lsn;
  out.last_lsn = hdr.base_lsn;
  out.valid_bytes = sizeof(hdr);

  std::vector<uint8_t> payload;
  uint64_t off = sizeof(hdr);
  while (off < out.file_bytes) {
    WalRecordHeader rec;
    if (out.file_bytes - off < sizeof(rec)) {
      out.torn_tail = true;  // partial frame header at EOF
      break;
    }
    LI_RETURN_IF_ERROR(ReadExact(fd, off, &rec, sizeof(rec), &short_read));
    if (short_read) {
      out.torn_tail = true;
      break;
    }
    // Validate the frame as a unit: length bound first (so a corrupt
    // length can never drive a huge allocation), then type, strict LSN
    // continuity, full payload presence, and finally the CRC.
    if (rec.len > kMaxWalPayload || !ValidRecordType(rec.type) ||
        rec.lsn != out.last_lsn + 1 ||
        (hdr.payload_size != 0 && rec.len != hdr.payload_size)) {
      out.torn_tail = true;
      break;
    }
    if (out.file_bytes - off - sizeof(rec) < rec.len) {
      out.torn_tail = true;
      break;
    }
    payload.resize(rec.len);
    LI_RETURN_IF_ERROR(
        ReadExact(fd, off + sizeof(rec), payload.data(), rec.len,
                  &short_read));
    if (short_read) {
      out.torn_tail = true;
      break;
    }
    if (rec.crc != rec.ComputeCrc(payload.data())) {
      out.torn_tail = true;
      break;
    }
    if (fn) {
      LI_RETURN_IF_ERROR(fn(static_cast<WalRecordType>(rec.type), rec.lsn,
                            payload.data(), rec.len));
    }
    out.last_lsn = rec.lsn;
    ++out.records;
    off += sizeof(rec) + rec.len;
    out.valid_bytes = off;
  }
  return out;
}

WalWriter::~WalWriter() { Close(); }

WalWriter::WalWriter(WalWriter&& other) noexcept { *this = std::move(other); }

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    Close();
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    cfg_ = std::move(other.cfg_);
    backend_ = other.backend_;
    payload_size_ = other.payload_size_;
    stats_ = other.stats_;
    appends_since_sync_ = other.appends_since_sync_;
    io_error_ = other.io_error_;
    other.fd_ = -1;
    other.backend_ = nullptr;
  }
  return *this;
}

void WalWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<WalWriter> WalWriter::Create(const std::string& path,
                                    uint64_t base_lsn, uint32_t payload_size,
                                    const DurabilityConfig& cfg) {
  WalFileHeader hdr;
  hdr.base_lsn = base_lsn;
  hdr.payload_size = payload_size;
  hdr.header_crc = hdr.ComputeCrc();
  LI_RETURN_IF_ERROR(PublishHeaderFile(path, hdr, nullptr, 0));

  auto fd = OpenAppendFd(path);
  if (!fd.ok()) return fd.status();

  WalWriter w;
  w.path_ = path;
  w.fd_ = fd.value();
  w.cfg_ = cfg;
  w.backend_ = cfg.backend != nullptr ? cfg.backend : DefaultFileBackend();
  w.payload_size_ = payload_size;
  w.stats_.base_lsn = base_lsn;
  w.stats_.last_lsn = base_lsn;
  w.stats_.last_synced_lsn = base_lsn;
  return w;
}

Result<WalWriter> WalWriter::Open(const std::string& path,
                                  const DurabilityConfig& cfg,
                                  WalReplayResult* scan) {
  auto replay = Replay(path, nullptr);
  if (!replay.ok()) return replay.status();
  const WalReplayResult& r = replay.value();
  if (scan != nullptr) *scan = r;

  auto fd = OpenAppendFd(path);
  if (!fd.ok()) return fd.status();
  if (r.valid_bytes < r.file_bytes) {
    // Torn or corrupt tail: cut it off so the next record lands on a
    // valid frame boundary (O_APPEND then writes at the new EOF).
    if (::ftruncate(fd.value(), static_cast<off_t>(r.valid_bytes)) != 0) {
      const Status st = Status::Internal(Errno("ftruncate " + path));
      ::close(fd.value());
      return st;
    }
  }

  WalWriter w;
  w.path_ = path;
  w.fd_ = fd.value();
  w.cfg_ = cfg;
  w.backend_ = cfg.backend != nullptr ? cfg.backend : DefaultFileBackend();
  // Re-derive the fixed payload size from the file so appends after a
  // reopen keep the same framing discipline.
  WalFileHeader hdr;
  {
    const int rfd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    bool short_read = false;
    if (rfd < 0 ||
        !ReadExact(rfd, 0, &hdr, sizeof(hdr), &short_read).ok() ||
        short_read) {
      if (rfd >= 0) ::close(rfd);
      ::close(fd.value());
      return Status::Internal("WAL header vanished during open: " + path);
    }
    ::close(rfd);
  }
  w.payload_size_ = hdr.payload_size;
  w.stats_.base_lsn = r.base_lsn;
  w.stats_.last_lsn = r.last_lsn;
  // The valid prefix is on disk; whether it was fsync'd by the previous
  // process is unknowable, so sync once now to make the baseline durable.
  if (::fdatasync(fd.value()) != 0) {
    const Status st = Status::Internal(Errno("fdatasync " + path));
    ::close(fd.value());
    return st;
  }
  w.stats_.last_synced_lsn = r.last_lsn;
  return w;
}

Result<uint64_t> WalWriter::Append(WalRecordType type, const void* payload,
                                   size_t len) {
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer not open");
  if (!io_error_.ok()) return io_error_;
  if (len > kMaxWalPayload) {
    return Status::InvalidArgument("WAL payload too large");
  }
  if (payload_size_ != 0 && len != payload_size_) {
    return Status::InvalidArgument("WAL payload size mismatch");
  }

  WalRecordHeader rec;
  rec.len = static_cast<uint32_t>(len);
  rec.lsn = stats_.last_lsn + 1;
  rec.type = static_cast<uint32_t>(type);
  rec.crc = rec.ComputeCrc(payload);

  // One write() per record: a crash mid-call tears at most this record,
  // which replay then drops as an invalid tail.
  uint8_t stack_buf[sizeof(rec) + 64];
  std::vector<uint8_t> heap_buf;
  uint8_t* buf = stack_buf;
  const size_t total = sizeof(rec) + len;
  if (total > sizeof(stack_buf)) {
    heap_buf.resize(total);
    buf = heap_buf.data();
  }
  std::memcpy(buf, &rec, sizeof(rec));
  if (len > 0) std::memcpy(buf + sizeof(rec), payload, len);

  const Status st = backend_->Write(fd_, buf, total);
  if (!st.ok()) {
    // A failed append poisons the log: we cannot know how much of the
    // frame landed, so no further record may be appended after it.
    io_error_ = st;
    return st;
  }
  stats_.last_lsn = rec.lsn;
  ++stats_.appends;
  stats_.bytes_appended += total;
  ++appends_since_sync_;

  if (cfg_.fsync_every_n != 0 && appends_since_sync_ >= cfg_.fsync_every_n) {
    LI_RETURN_IF_ERROR(Sync());
  }
  return rec.lsn;
}

Status WalWriter::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer not open");
  if (!io_error_.ok()) return io_error_;
  if (stats_.last_synced_lsn == stats_.last_lsn) {
    return Status::OK();  // group-commit window is empty
  }
  const Status st = backend_->Sync(fd_);
  if (!st.ok()) {
    io_error_ = st;
    return st;
  }
  stats_.last_synced_lsn = stats_.last_lsn;
  ++stats_.syncs;
  appends_since_sync_ = 0;
  return Status::OK();
}

Status WalWriter::ResetTo(uint64_t covered) {
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer not open");
  if (!io_error_.ok()) return io_error_;
  if (covered < stats_.base_lsn) {
    return Status::OK();  // log already starts after the watermark
  }

  // Collect the tail that outlives the snapshot (records the snapshot
  // does not cover). Appends are serialized by the caller, so the file
  // is stable during this scan.
  std::vector<uint8_t> tail;
  auto replay = Replay(
      path_,
      [&](WalRecordType type, uint64_t lsn, const void* payload,
          size_t len) -> Status {
        if (lsn <= covered) return Status::OK();
        WalRecordHeader rec;
        rec.len = static_cast<uint32_t>(len);
        rec.lsn = lsn;
        rec.type = static_cast<uint32_t>(type);
        rec.crc = rec.ComputeCrc(payload);
        const size_t at = tail.size();
        tail.resize(at + sizeof(rec) + len);
        std::memcpy(tail.data() + at, &rec, sizeof(rec));
        if (len > 0) std::memcpy(tail.data() + at + sizeof(rec), payload, len);
        return Status::OK();
      });
  if (!replay.ok()) return replay.status();

  WalFileHeader hdr;
  hdr.base_lsn = covered;
  hdr.payload_size = payload_size_;
  hdr.header_crc = hdr.ComputeCrc();
  // Atomic rotation: the rename is the commit point. A crash before it
  // leaves the old (longer) log — recovery filters by covered LSN; a
  // crash after it leaves the new log with the carried tail. Both valid.
  LI_RETURN_IF_ERROR(
      PublishHeaderFile(path_, hdr, tail.data(), tail.size()));

  auto fd = OpenAppendFd(path_);
  if (!fd.ok()) {
    io_error_ = fd.status();
    return fd.status();
  }
  ::close(fd_);
  fd_ = fd.value();
  stats_.base_lsn = covered;
  if (stats_.last_lsn < covered) stats_.last_lsn = covered;
  stats_.last_synced_lsn = stats_.last_lsn;  // rotation fsyncs everything
  ++stats_.resets;
  appends_since_sync_ = 0;
  return Status::OK();
}

}  // namespace li::wal
