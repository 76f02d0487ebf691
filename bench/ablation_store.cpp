// Store-engine ablation (DESIGN.md §10): what the embedded LSM backend
// costs on the basic record ops, and what sealed-table shipping buys on
// the bulk path.
//
// Two halves:
//   1. Engine micro ops — Put / Get / Scan over the same seeded record
//      population, memory engine vs LSM engine (WAL + memtable + sealed
//      tables). The LSM write pays the group-committed journal; the read
//      pays bloom-gated table lookups after a flush.
//   2. The handoff ablation (the half BENCH_trajectory.json ratchets) —
//      a million-record subtree leaves one store for another, both ways
//      the cluster knows how to ship it:
//        * per-record: ExtractAll → InsertAll, the kPendingPoolPull wire
//          path — every record re-encoded into the destination's WAL;
//        * bulk: ExtractToTable → IngestTable, the kBulkTable path — the
//          subtree crosses as ONE sealed SSTable the destination links
//          in, O(1) in record count.
//      The gate asserts the bulk path is faster AND lands the identical
//      live set; the destination stores then pass the deep audit.
//
//   ablation_store [output.json]
//
// Exit code is nonzero if the destinations diverge or any audit fails,
// so the CI step doubles as a correctness gate.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "d2tree/mds/store.h"
#include "d2tree/storage/lsm_engine.h"
#include "d2tree/storage/memory_engine.h"

using namespace d2tree;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - t0)
             .count()) /
         1e6;
}

InodeRecord BenchRecord(NodeId id) {
  InodeRecord r;
  r.id = id;
  r.parent = id / 16;
  r.name = "entry_" + std::to_string(id);
  r.type = id % 8 == 0 ? NodeType::kDirectory : NodeType::kFile;
  r.attrs.mtime = id * 3 + 1;
  r.attrs.size = (id * 2654435761u) % (1 << 20);
  r.version = 1;
  return r;
}

struct EngineOpRow {
  double put_ns_op = 0;
  double get_ns_op = 0;
  double scan_ms = 0;
};

EngineOpRow MicroOps(StoreEngine& engine, std::size_t n) {
  EngineOpRow row;
  auto t0 = Clock::now();
  for (NodeId id = 0; id < n; ++id) engine.Put(BenchRecord(id));
  row.put_ns_op = MsSince(t0) * 1e6 / static_cast<double>(n);

  std::mt19937_64 rng(42);
  std::size_t hits = 0;
  t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i)
    hits += engine.Get(static_cast<NodeId>(rng() % (2 * n))).has_value();
  row.get_ns_op = MsSince(t0) * 1e6 / static_cast<double>(n);
  if (hits == 0) std::fprintf(stderr, "warning: no Get hits?\n");

  std::size_t scanned = 0;
  t0 = Clock::now();
  engine.Scan([&scanned](const InodeRecord&) { ++scanned; });
  row.scan_ms = MsSince(t0);
  if (scanned != n) std::fprintf(stderr, "warning: scan saw %zu/%zu\n", scanned, n);
  return row;
}

/// Both destinations must end on the identical live set — the property
/// suite's cross-backend claim, re-checked on the bench population.
bool StoresEqual(MetadataStore& a, MetadataStore& b) {
  if (a.size() != b.size()) return false;
  const auto sa = a.Snapshot();
  const auto sb = b.Snapshot();
  return sa == sb;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : nullptr;
  bench::PrintHeader("Ablation — store engine & sealed-table handoff",
                     "the DESIGN.md §10 storage layer (no paper figure)");

  std::string scratch = std::filesystem::temp_directory_path() /
                        ("d2t_bench_store_" + std::to_string(::getpid()) +
                         "_XXXXXX");
  if (::mkdtemp(scratch.data()) == nullptr) {
    std::fprintf(stderr, "cannot create scratch dir\n");
    return 2;
  }

  // ---- 1. Engine micro ops over the same seeded population.
  const auto micro_n =
      static_cast<std::size_t>(200000 * bench::BenchScale());
  MemoryEngine memory;
  LsmEngine lsm(scratch + "/micro");
  const EngineOpRow mem_row = MicroOps(memory, micro_n);
  const EngineOpRow lsm_row = MicroOps(lsm, micro_n);
  lsm.Flush();  // seal, then re-measure reads against tables + blooms
  std::mt19937_64 rng(43);
  auto t0 = Clock::now();
  std::size_t hits = 0;
  for (std::size_t i = 0; i < micro_n; ++i)
    hits += lsm.Get(static_cast<NodeId>(rng() % (2 * micro_n))).has_value();
  const double lsm_sealed_get_ns =
      MsSince(t0) * 1e6 / static_cast<double>(micro_n);
  const bool micro_audit = lsm.AuditStorage().empty() && hits > 0;

  std::printf("engine micro ops, %zu records (ns/op; scan ms):\n", micro_n);
  std::printf("%-8s %12s %12s %12s\n", "engine", "put", "get", "scan ms");
  std::printf("%-8s %12.1f %12.1f %12.3f\n", "memory", mem_row.put_ns_op,
              mem_row.get_ns_op, mem_row.scan_ms);
  std::printf("%-8s %12.1f %12.1f %12.3f  (get after seal: %.1f)\n", "lsm",
              lsm_row.put_ns_op, lsm_row.get_ns_op, lsm_row.scan_ms,
              lsm_sealed_get_ns);

  // ---- 2. Million-record handoff: per-record vs sealed-table shipping.
  //
  // Both wire paths start from the same extracted record vector (the
  // cluster's PREPARE leg extracts identically either way); they differ
  // in what crosses the wire and what the destination pays to apply it.
  const auto handoff_n = static_cast<std::size_t>(4000000 * bench::BenchScale());
  std::vector<NodeId> ids(handoff_n);
  for (std::size_t i = 0; i < handoff_n; ++i) ids[i] = static_cast<NodeId>(i);

  MetadataStore source(std::make_unique<LsmEngine>(scratch + "/src"));
  {
    std::vector<InodeRecord> records;
    records.reserve(handoff_n);
    for (NodeId id : ids) records.push_back(BenchRecord(id));
    source.InsertAll(records);
  }
  const std::vector<InodeRecord> shipped = source.ExtractAll(ids);

  // Per-record path (kPendingPoolPull): the record vector crosses and
  // the destination journals every record back into its own WAL —
  // re-encoding the whole subtree plus the flush/compaction churn the
  // incoming volume triggers.
  MetadataStore dst_per(std::make_unique<LsmEngine>(scratch + "/dst_per"));
  t0 = Clock::now();
  dst_per.InsertAll(shipped);
  const double per_record_ms = MsSince(t0);

  // Bulk path (kBulkTable): the source seals the vector into ONE SSTable
  // and the destination links the file in — the encode happens once, the
  // apply is O(1) in record count.
  MetadataStore dst_bulk(std::make_unique<LsmEngine>(scratch + "/dst_bulk"));
  const std::string table = scratch + "/handoff.sst";
  t0 = Clock::now();
  const bool table_sealed = WriteRecordsTable(shipped, table);
  const std::size_t ingested = table_sealed ? dst_bulk.IngestTable(table) : 0;
  const double bulk_ms = MsSince(t0);

  const bool dest_equal = shipped.size() == handoff_n &&
                          ingested == handoff_n &&
                          StoresEqual(dst_per, dst_bulk);
  const bool bulk_faster = bulk_ms < per_record_ms;
  const bool audit_clean = micro_audit && dst_per.AuditStorage().empty() &&
                           dst_bulk.AuditStorage().empty() &&
                           source.size() == 0;
  const double speedup = bulk_ms > 0 ? per_record_ms / bulk_ms : 0.0;

  std::printf("\nsubtree handoff, %zu records (LSM source → LSM dest):\n",
              handoff_n);
  std::printf("%-32s %12.1f ms\n", "per-record (vector, InsertAll)",
              per_record_ms);
  std::printf("%-32s %12.1f ms   (%.1fx)\n",
              "bulk (seal one SSTable, link in)", bulk_ms, speedup);
  std::printf("destinations identical: %s; audits: %s\n",
              dest_equal ? "yes" : "NO", audit_clean ? "CLEAN" : "BROKEN");

  const bool ok = dest_equal && bulk_faster && audit_clean;
  if (out_path != nullptr) {
    std::string json = "{\n  \"bench\": \"ablation_store\",\n";
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"micro_records\": %zu,\n"
                  "  \"put\": {\"memory_ns_op\": %.1f, \"lsm_ns_op\": %.1f},\n"
                  "  \"get\": {\"memory_ns_op\": %.1f, \"lsm_ns_op\": %.1f, "
                  "\"lsm_sealed_ns_op\": %.1f},\n"
                  "  \"scan\": {\"memory_ms\": %.3f, \"lsm_ms\": %.3f},\n",
                  micro_n, mem_row.put_ns_op, lsm_row.put_ns_op,
                  mem_row.get_ns_op, lsm_row.get_ns_op, lsm_sealed_get_ns,
                  mem_row.scan_ms, lsm_row.scan_ms);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"handoff\": {\"records\": %zu, "
                  "\"per_record_ms\": %.1f, \"bulk_ms\": %.1f, "
                  "\"speedup\": %.2f, \"bulk_faster\": %s, "
                  "\"dest_equal\": %s},\n  \"audit_clean\": %s\n}\n",
                  handoff_n, per_record_ms, bulk_ms, speedup,
                  bulk_faster ? "true" : "false", dest_equal ? "true" : "false",
                  audit_clean ? "true" : "false");
    json += buf;
    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path);
      return 2;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
  }

  std::error_code ec;
  std::filesystem::remove_all(scratch, ec);
  return ok ? 0 : 1;
}
