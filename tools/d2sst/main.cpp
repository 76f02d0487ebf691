// d2sst — inspect sealed SSTable files (DESIGN.md §10).
//
//   d2sst verify <table.sst> [more.sst ...]
//     Full offline audit of each table: footer magic, index/bloom CRCs,
//     per-block CRCs, strict global key ordering, per-block range
//     agreement, entry count, min/max, and bloom completeness. Prints one
//     summary line per table plus every issue; exit 0 iff all clean.
//
//   d2sst dump <table.sst> [limit]
//     Opens the table and prints its header (entries, id range, path)
//     followed by one line per entry — id, kind, and for live records the
//     name/parent/type/version/mtime the storage codec decoded. `limit`
//     caps the entry lines (default 32; 0 = all).
//
// The tool reads through the same SSTableReader/AuditSSTable paths the
// engine and d2fsck use, so "d2sst verify says clean" means the engine
// will accept the file — useful for poking at ship/ leftovers and
// compaction outputs without spinning up a store.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "d2tree/storage/sstable.h"

using namespace d2tree;

namespace {

int Verify(int argc, char** argv) {
  bool all_clean = true;
  for (int i = 2; i < argc; ++i) {
    const SSTableAudit audit = AuditSSTable(argv[i]);
    std::printf("%s: %zu block(s), %zu entr%s, %zu tombstone(s): %s\n",
                argv[i], audit.blocks, audit.entries,
                audit.entries == 1 ? "y" : "ies", audit.tombstones,
                audit.clean() ? "clean" : "NOT CLEAN");
    for (const std::string& issue : audit.issues)
      std::printf("  FAIL %s\n", issue.c_str());
    all_clean = all_clean && audit.clean();
  }
  return all_clean ? 0 : 1;
}

int Dump(const char* path, std::size_t limit) {
  SSTableReader reader;
  if (!reader.Open(path)) {
    std::fprintf(stderr, "d2sst: cannot open %s (bad footer/index/bloom?)\n",
                 path);
    return 2;
  }
  std::printf("%s: %llu entries, ids [%u, %u]\n", path,
              static_cast<unsigned long long>(reader.entry_count()),
              static_cast<unsigned>(reader.min_id()),
              static_cast<unsigned>(reader.max_id()));
  std::size_t shown = 0;
  bool truncated = false;
  const bool ok = reader.Scan([&](const SSTableEntry& entry) {
    if (limit != 0 && shown >= limit) {
      truncated = true;
      return;
    }
    ++shown;
    if (entry.tombstone) {
      std::printf("  %u tombstone\n", static_cast<unsigned>(entry.id));
      return;
    }
    const InodeRecord& r = entry.record;
    std::printf("  %u %s name=\"%s\" parent=%u v%llu mtime=%llu\n",
                static_cast<unsigned>(entry.id),
                r.type == NodeType::kDirectory ? "dir " : "file",
                r.name.c_str(), static_cast<unsigned>(r.parent),
                static_cast<unsigned long long>(r.version),
                static_cast<unsigned long long>(r.attrs.mtime));
  });
  if (truncated)
    std::printf("  ... (%llu more; rerun with limit 0 for all)\n",
                static_cast<unsigned long long>(reader.entry_count() - shown));
  if (!ok) {
    std::fprintf(stderr, "d2sst: a data block failed its CRC mid-scan\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "verify") == 0)
    return Verify(argc, argv);
  if (argc >= 3 && std::strcmp(argv[1], "dump") == 0) {
    const std::size_t limit =
        argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3])) : 32;
    return Dump(argv[2], limit);
  }
  std::fprintf(stderr,
               "usage: d2sst verify <table.sst> [more.sst ...]\n"
               "       d2sst dump <table.sst> [limit (default 32, 0 = all)]\n");
  return 2;
}
