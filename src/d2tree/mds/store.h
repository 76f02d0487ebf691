// Per-MDS metadata store: the authoritative records a server owns plus its
// replica of the global layer.
//
// The store is a thin, mutex-guarded façade over a pluggable StoreEngine
// (storage/store_engine.h): the default in-RAM map, or the embedded LSM
// engine (storage/lsm_engine.h) when the cluster/daemon is configured
// with a data directory. Record semantics are identical across backends —
// pinned by the backend-parameterized property suite.
//
// Thread-safe (one mutex per store): the functional cluster serves
// concurrent client threads in tests and examples. The store mutex is the
// outermost storage lock (rank 40): it is taken with the placement-epoch
// and GL locks already held and never the other way around, and the LSM
// engine's internal locks (ranks 42/43) nest inside it — enforced by the
// annotated wrappers + scripts/check_lock_order.py.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "d2tree/common/mutex.h"
#include "d2tree/mds/inode.h"
#include "d2tree/storage/store_engine.h"

namespace d2tree {

class MetadataStore {
 public:
  /// Default: in-memory engine.
  MetadataStore();
  /// Custom backing engine (nullptr falls back to the memory engine).
  explicit MetadataStore(std::unique_ptr<StoreEngine> engine);

  // Neither movable nor copyable: the mutex member already deletes the
  // implicit copy operations, and the moves are deleted explicitly here.
  MetadataStore(MetadataStore&&) = delete;
  MetadataStore& operator=(MetadataStore&&) = delete;

  /// Inserts or overwrites a record.
  void Put(const InodeRecord& record);

  /// Record by node id; nullopt if this store does not hold it.
  std::optional<InodeRecord> Get(NodeId id) const;

  [[nodiscard]] bool Contains(NodeId id) const;

  /// Removes a record; returns it if present.
  std::optional<InodeRecord> Remove(NodeId id);

  /// Applies a mutation to a held record: bumps version, stamps mtime.
  /// Returns the new version, or nullopt if not held.
  std::optional<std::uint64_t> Mutate(NodeId id, std::uint64_t mtime);

  /// Applies one versioned global-layer write to a held record: renames
  /// it to `name` when that is non-empty, else stamps `mtime`, and sets
  /// its version to `version` — only if `version` is newer than the held
  /// record's. This is the per-node fence every GL replica applies a
  /// commit through. False when the record is not held or not older.
  bool ApplyVersioned(NodeId id, std::uint64_t version, std::uint64_t mtime,
                      const std::string& name);

  /// Extracts all records of a subtree given its member ids (migration
  /// source side); missing ids are skipped.
  std::vector<InodeRecord> ExtractAll(const std::vector<NodeId>& ids);

  /// Bulk insert (migration target side).
  void InsertAll(const std::vector<InodeRecord>& records);

  /// Copy of every held record (replica rebuild source side), ascending
  /// id order.
  std::vector<InodeRecord> Snapshot() const;

  /// Drops every record (a crashed server loses its volatile state).
  void Clear();

  std::size_t size() const;

  /// Snapshot of all held ids (audit/consistency checks), ascending.
  std::vector<NodeId> HeldIds() const;

  // --- bulk subtree shipping (DESIGN.md §10) -----------------------------

  /// Extracts the given subtree and seals it into one SSTable at `path`
  /// (migration/rename PREPARE). Returns the number of records sealed;
  /// 0 when none of the ids were held or the file could not be written
  /// (in which case nothing is removed).
  std::size_t ExtractToTable(const std::vector<NodeId>& ids,
                             const std::string& path);

  /// Bulk-ingests a sealed table (migration target side). The LSM engine
  /// links the file in — O(1) in record count; the memory engine decodes
  /// it. Returns records ingested. Keys must be disjoint from held ids.
  std::size_t IngestTable(const std::string& path);

  // --- durability / audit hooks ------------------------------------------

  /// Persists buffered engine state (LSM: seals the memtable).
  void Flush();

  /// Drops volatile engine state and re-reads durable state, as after a
  /// process restart (LSM: WAL replay with torn-tail truncation).
  StoreRecoveryInfo Reopen();

  /// Crash injection: tears the engine WAL's tail (no-op for memory).
  void TearWalTail(std::size_t bytes);

  /// Deep on-disk audit of the backing engine; empty = clean.
  std::vector<std::string> AuditStorage() const;

  const char* engine_name() const;
  StoreEngineStats EngineStats() const;

 private:
  /// Backing-store lock: outermost storage lock in the cluster hierarchy
  /// (DESIGN.md "Lock hierarchy"); engine-internal locks nest inside it.
  mutable Mutex mu_ D2T_LOCK_RANK(40);
  std::unique_ptr<StoreEngine> engine_ D2T_GUARDED_BY(mu_);
};

}  // namespace d2tree
