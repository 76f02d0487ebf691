// Pluggable backing engine behind MetadataStore (DESIGN.md §10).
//
// The MDS-facing store API (mds/store.h) is a thin, mutex-guarded façade;
// the engine underneath decides where records actually live. Two
// implementations exist:
//
//   * MemoryEngine (storage/memory_engine.h) — an ordered in-RAM map, the
//     default. Semantics match the original unordered_map store exactly;
//     Scan order is ascending id.
//   * LsmEngine (storage/lsm_engine.h) — an embedded LSM tree: sorted
//     memtable + group-committed on-disk WAL + immutable SSTables with
//     block index and bloom filter, size-tiered compaction, and bulk
//     seal/ingest of whole subtrees as sealed table files.
//
// Engines are NOT internally required to be thread-safe for the basic
// record operations: MetadataStore serializes every call under its rank-40
// mutex. LsmEngine still carries its own (higher-ranked) locks because the
// bench and tools drive it directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "d2tree/mds/inode.h"

namespace d2tree {

/// Counters an engine exposes for benches and audits. Memory engines
/// leave the file-backed fields at zero.
struct StoreEngineStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t removes = 0;
  std::uint64_t wal_group_commits = 0;  // batched WAL syncs (LSM)
  std::uint64_t wal_bytes = 0;          // bytes framed into the live WAL
  std::uint64_t flushes = 0;            // memtable → SSTable seals
  std::uint64_t compactions = 0;        // size-tiered merges
  std::uint64_t tables = 0;             // live SSTables right now
  std::uint64_t table_ingests = 0;      // sealed tables linked in
  std::uint64_t bloom_skips = 0;        // reads a bloom filter short-cut
};

/// What (re)opening an engine from its durable state found. Memory
/// engines report a trivially clean open.
struct StoreRecoveryInfo {
  bool opened_existing = false;       // durable state was present on open
  std::size_t tables_opened = 0;      // SSTables listed by the manifest
  std::size_t wal_records_replayed = 0;
  bool wal_torn_tail = false;         // WAL ended mid-frame (crash footprint)
  std::size_t wal_torn_bytes = 0;     // bytes truncated off the tear
};

class StoreEngine {
 public:
  virtual ~StoreEngine() = default;

  virtual const char* name() const noexcept = 0;

  virtual void Put(const InodeRecord& record) = 0;
  virtual std::optional<InodeRecord> Get(NodeId id) const = 0;
  [[nodiscard]] virtual bool Contains(NodeId id) const = 0;
  /// Removes a record; returns it if present.
  virtual std::optional<InodeRecord> Remove(NodeId id) = 0;
  virtual std::size_t Size() const = 0;
  virtual void Clear() = 0;

  /// Visits every live record in ascending id order.
  virtual void Scan(
      const std::function<void(const InodeRecord&)>& fn) const = 0;

  /// Bulk insert/extract. The defaults loop over Put/Get+Remove; LsmEngine
  /// overrides them to journal the whole batch under one WAL group commit.
  virtual void InsertAll(const std::vector<InodeRecord>& records);
  virtual std::vector<InodeRecord> ExtractAll(const std::vector<NodeId>& ids);

  /// Bulk-ingests a sealed SSTable file; returns the number of records it
  /// carried. The caller guarantees the table's keys are disjoint from the
  /// engine's live set (the migration protocol's ownership invariant).
  /// Default: decode the table and Put record-by-record (memory engines);
  /// LsmEngine links the file in and registers it — O(1) in record count.
  virtual std::size_t IngestTableFile(const std::string& path);

  /// Persists any volatile buffered state (LSM: seals the memtable).
  virtual void Flush() {}

  /// Drops volatile state and re-reads durable state, as if the process
  /// had crashed and restarted (LSM: manifest + table reopen + WAL replay
  /// with torn-tail truncation). No-op for memory engines: their volatile
  /// loss is modelled by the cluster's Clear()-and-rebuild recovery.
  virtual StoreRecoveryInfo Reopen() { return {}; }

  /// Crash injection: tears the last `bytes` bytes off the engine's live
  /// WAL, as if the process died mid-append. No-op for memory engines.
  virtual void TearWalTail(std::size_t bytes) { (void)bytes; }

  /// Deep storage audit: verifies every on-disk invariant the engine
  /// claims (footer magic/CRCs, block CRCs, key ordering, bloom
  /// completeness, manifest/table agreement). Returns human-readable
  /// issues; empty = clean. Memory engines are trivially clean.
  virtual std::vector<std::string> AuditStorage() const { return {}; }

  virtual StoreEngineStats Stats() const { return {}; }
};

/// How a MetadataStore's engine is chosen (cluster + daemon config).
struct StoreSpec {
  enum class Backend { kMemory, kLsm };
  Backend backend = Backend::kMemory;
  /// LSM root directory for this store instance; created on demand.
  std::string data_dir;

  /// True when the spec actually produces a durable engine: the LSM
  /// backend degrades to the memory engine without a data directory.
  bool persistent() const noexcept {
    return backend == Backend::kLsm && !data_dir.empty();
  }
};

/// Builds the engine a spec names; `instance` becomes a subdirectory of
/// `spec.data_dir` so one server can keep several stores apart. Returns a
/// MemoryEngine for kMemory (or when the spec has no data dir).
std::unique_ptr<StoreEngine> MakeStoreEngine(const StoreSpec& spec,
                                             const std::string& instance);

}  // namespace d2tree
