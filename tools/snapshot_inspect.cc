// snapshot_inspect: dump an on-disk persistence artifact. Handed a
// snapshot, it prints the header and section table — names, kinds,
// offsets, sizes, stored CRCs — the stage sizes of every RMI in it, and
// optionally recomputes every payload checksum. Handed a WAL file (auto-detected from the leading magic), it
// walks the record stream and reports the record count, LSN range, and —
// for a torn or corrupt tail — the byte offset of the first record that
// fails validation. The debugging companion to docs/PERSISTENCE.md and
// docs/DURABILITY.md: when an OpenSnapshot or RecoverFromWal surprises,
// this shows which layer disagrees and where.
//
//   snapshot_inspect <file.snap>            dump header + section table
//   snapshot_inspect --verify <file.snap>   also recompute payload CRCs and
//                                           check every delta's cfg knobs
//                                           and its base keys
//   snapshot_inspect <file.wal>             dump WAL summary + tail state
//
// The delta check runs dynamic::CheckCfg on each <prefix>cfg and
// dynamic::CheckDelta on each <prefix>keys / <prefix>dkeys /
// <prefix>dmeta triple (the layout of dynamic/delta_snapshot.h), reading
// the keys as uint64 — the key type of every writable index the repo's
// tools and benches persist.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "dynamic/delta_snapshot.h"
#include "models/linear.h"
#include "rangefilter/filter_meta.h"
#include "rmi/rmi.h"
#include "snapshot/format.h"
#include "snapshot/snapshot.h"
#include "wal/wal.h"
#include "wal/wal_format.h"

namespace li {
namespace {

/// Reads the first 8 bytes so one tool serves both formats without the
/// caller having to know which artifact a stray file in a durability
/// directory is.
bool LooksLikeWal(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return false;
  uint64_t magic = 0;
  const bool got = std::fread(&magic, sizeof(magic), 1, f) == 1;
  std::fclose(f);
  return got && magic == wal::kWalMagic;
}

int InspectWal(const char* path) {
  // A null visitor makes Replay a pure validation scan; per-record type
  // counts ride along in a counting visitor instead.
  uint64_t inserts = 0, erases = 0;
  auto result = wal::Replay(
      path, [&](wal::WalRecordType t, uint64_t, const void*, size_t) {
        t == wal::WalRecordType::kInsert ? ++inserts : ++erases;
        return Status::OK();
      });
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", path, result.status().message().c_str());
    return 1;
  }
  const wal::WalReplayResult& r = result.value();
  std::printf("%s\n", path);
  std::printf("  magic         0x%016" PRIx64 "  (\"LIWAL001\")\n",
              wal::kWalMagic);
  std::printf("  base_lsn      %" PRIu64 "\n", r.base_lsn);
  std::printf("  records       %" PRIu64 "  (%" PRIu64 " insert, %" PRIu64
              " erase)\n",
              r.records, inserts, erases);
  if (r.records != 0) {
    std::printf("  lsn range     [%" PRIu64 ", %" PRIu64 "]\n",
                r.base_lsn + 1, r.last_lsn);
  } else {
    std::printf("  lsn range     (empty)\n");
  }
  std::printf("  valid_bytes   %" PRIu64 " of %" PRIu64 "\n", r.valid_bytes,
              r.file_bytes);
  if (r.torn_tail) {
    std::printf("  tail          TORN: first invalid record at offset %" PRIu64
                " (%" PRIu64 " trailing bytes ignored)\n",
                r.valid_bytes, r.file_bytes - r.valid_bytes);
  } else {
    std::printf("  tail          clean\n");
  }
  // A torn tail is a normal post-crash artifact (recovery truncates it),
  // not a tool failure.
  return 0;
}

/// CheckCfg and CheckDelta over every delta in the file; 0 when all pass
/// (or there are none).
int VerifyDeltas(const snapshot::SnapshotReader& reader) {
  constexpr std::string_view kDkeys = "dkeys";
  int bad = 0;
  for (const snapshot::SectionEntry& e : reader.sections()) {
    const std::string_view name = e.name;
    if (!name.ends_with(kDkeys)) continue;
    const std::string prefix(name.substr(0, name.size() - kDkeys.size()));
    auto keys = reader.GetArray<uint64_t>(prefix + "keys");
    auto dkeys = reader.GetArray<uint64_t>(prefix + "dkeys");
    auto dmeta = reader.GetArray<uint8_t>(prefix + "dmeta");
    dynamic::DeltaSnapshotCfg cfg;
    Status st = reader.GetPod(prefix + "cfg", &cfg);
    if (st.ok()) st = dynamic::CheckCfg(cfg);
    if (st.ok()) {
      st = !keys.ok()    ? keys.status()
           : !dkeys.ok() ? dkeys.status()
           : !dmeta.ok() ? dmeta.status()
                         : dynamic::CheckDelta(keys.value(), dkeys.value(),
                                               dmeta.value());
    }
    if (st.ok()) {
      std::printf("  delta  %-36s OK (%zu entries over %zu keys)\n",
                  prefix.empty() ? "(root)" : prefix.c_str(),
                  dkeys.value().size(), keys.value().size());
    } else {
      std::printf("  delta  %-36s FAILED: %s\n",
                  prefix.empty() ? "(root)" : prefix.c_str(),
                  st.message().c_str());
      ++bad;
    }
  }
  if (bad != 0) {
    std::fprintf(stderr, "%d delta(s) failed their cfg or base-key check\n",
                 bad);
    return 1;
  }
  return 0;
}

int Inspect(const char* path, bool verify) {
  if (LooksLikeWal(path)) return InspectWal(path);
  // Envelope checks (magic, version, header/table CRCs, bounds) run
  // unconditionally in Open; payload CRCs only under --verify.
  auto reader = snapshot::SnapshotReader::Open(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s: %s\n", path, reader.status().message().c_str());
    return 1;
  }
  const snapshot::FileHeader& h = reader.value().header();
  std::printf("%s\n", path);
  std::printf("  magic         0x%016" PRIx64 "  (\"LISNAP01\")\n", h.magic);
  std::printf("  version       %" PRIu32 "\n", h.version);
  std::printf("  file_size     %" PRIu64 " bytes\n", h.file_size);
  std::printf("  sections      %" PRIu32 "  (table at offset %" PRIu64 ")\n",
              h.section_count, h.table_offset);
  std::printf("  header_crc    0x%08" PRIx32 "   table_crc 0x%08" PRIx32 "\n",
              h.header_crc, h.table_crc);
  std::printf("\n  %-36s %-9s %10s %12s %10s\n", "name", "kind", "offset",
              "size", "crc32c");
  for (const snapshot::SectionEntry& e : reader.value().sections()) {
    std::printf("  %-36s %-9s %10" PRIu64 " %12" PRIu64 " 0x%08" PRIx32 "\n",
                e.name,
                snapshot::SectionKindName(
                    static_cast<snapshot::SectionKind>(e.kind)),
                e.offset, e.size, e.crc);
  }

  // RMI summaries: every <prefix>leaves table is one RMI, and its
  // routing stage is <prefix>route (absent: K = 1, the top routes to the
  // leaves directly).
  constexpr std::string_view kLeaves = "leaves";
  for (const snapshot::SectionEntry& e : reader.value().sections()) {
    const std::string_view name = e.name;
    if (static_cast<snapshot::SectionKind>(e.kind) !=
            snapshot::SectionKind::kLeaves ||
        !name.ends_with(kLeaves)) {
      continue;
    }
    const std::string prefix(name.substr(0, name.size() - kLeaves.size()));
    const snapshot::SectionEntry* route = reader.value().Find(prefix + "route");
    std::printf("\n  rmi %s\n", prefix.empty() ? "(root)" : prefix.c_str());
    std::printf("    leaves (M)       %" PRIu64 "\n", e.size / sizeof(rmi::Leaf));
    std::printf("    route models (K) %" PRIu64 "\n",
                route == nullptr ? uint64_t{1}
                                 : route->size / sizeof(models::LinearModel));
  }

  // Range-filter summaries: every kRangeFilterMeta section is a
  // construction-tagged geometry POD (rangefilter/filter_meta.h), so the
  // tool can say what kind of filter lives in the file and how its bits
  // are spent without loading the filter itself.
  for (const snapshot::SectionEntry& e : reader.value().sections()) {
    if (static_cast<snapshot::SectionKind>(e.kind) !=
        snapshot::SectionKind::kRangeFilterMeta) {
      continue;
    }
    rangefilter::RangeFilterSnapshotMeta meta;
    if (const Status st = reader.value().GetPod(e.name, &meta); !st.ok()) {
      std::fprintf(stderr, "  %s: unreadable range-filter meta: %s\n",
                   e.name, st.message().c_str());
      return 1;
    }
    std::printf("\n  range filter %s\n", e.name);
    std::printf("    kind        %s\n",
                rangefilter::FilterKindName(
                    static_cast<rangefilter::FilterKind>(meta.filter_kind)));
    std::printf("    keys        %" PRIu64 "\n", meta.num_keys);
    std::printf("    segments    %" PRIu64 "\n", meta.num_segments);
    std::printf("    bitmap_bits %" PRIu64 "\n", meta.bitmap_bits);
    std::printf("    domain      [%" PRIu64 ", %" PRIu64 "]\n",
                meta.domain_lo, meta.domain_hi);
    if (meta.block_width != 0) {
      std::printf("    block_width %" PRIu64 "\n", meta.block_width);
    }
    std::printf("    bits/key    %.2f configured, %.2f actual\n",
                meta.bits_per_key,
                meta.num_keys == 0
                    ? 0.0
                    : static_cast<double>(meta.bitmap_bits) /
                          static_cast<double>(meta.num_keys));
  }
  if (!verify) return 0;

  int bad = 0;
  for (const snapshot::SectionEntry& e : reader.value().sections()) {
    const Status st = reader.value().VerifySection(e.name);
    if (st.ok()) {
      std::printf("  verify %-36s OK\n", e.name);
    } else {
      std::printf("  verify %-36s FAILED: %s\n", e.name,
                  st.message().c_str());
      ++bad;
    }
  }
  if (bad != 0) {
    std::fprintf(stderr, "%d section(s) failed payload verification\n", bad);
  } else {
    std::printf("all payloads verified\n");
  }
  // The delta check runs either way: a bad payload CRC says the bytes
  // changed, this says whether the index would misanswer on them.
  return VerifyDeltas(reader.value()) != 0 || bad != 0 ? 1 : 0;
}

}  // namespace
}  // namespace li

int main(int argc, char** argv) {
  bool verify = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else {
      path = argv[i];
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: snapshot_inspect [--verify] <file.snap|file.wal>\n");
    return 2;
  }
  return li::Inspect(path, verify);
}
