// Embedded LSM-tree StoreEngine (DESIGN.md §10).
//
// Write path: every mutation is journaled into a group-committed WAL
// (storage/log_file.h, durability/wal framing) and applied to a sorted
// memtable. When the memtable crosses its size limit it is sealed into an
// immutable SSTable (storage/sstable.h), the manifest is rewritten
// atomically (tmp + rename), and the WAL is reset. Size-tiered compaction
// merges contiguous runs of similar-sized tables, dropping tombstones
// only when the run includes the oldest table (nothing older left to
// shadow).
//
// Read path: memtable first, then tables newest → oldest, each gated by
// its bloom filter. A tombstone anywhere shadows everything older.
//
// Bulk shipping: IngestTableFile() links a sealed table into the
// directory and registers it as the newest table — O(1) in record count.
// The memtable is flushed first so no stale memtable entry (e.g. a
// tombstone from a prior extraction) can shadow the ingested records.
//
// Crash recovery: open reads the manifest, reopens every listed table,
// and replays the WAL into a fresh memtable; a torn WAL tail is detected
// by the CRC framing and truncated (StoreRecoveryInfo reports it).
//
// Locking: one engine mutex (rank 42) over memtable + table list +
// manifest, taken after the MetadataStore mutex (40); the WAL's own leaf
// lock is rank 43. See DESIGN.md §6.
#pragma once

#include <map>

#include "d2tree/common/mutex.h"
#include "d2tree/storage/log_file.h"
#include "d2tree/storage/sstable.h"
#include "d2tree/storage/store_engine.h"

namespace d2tree {

struct LsmOptions {
  std::size_t memtable_limit_bytes = 4 << 20;
  SSTableOptions table;        // data-block size, bloom bits per key
  std::size_t tier_fanout = 4; // compact a contiguous run of this many
                               // similar-sized tables into one
  bool sync_on_commit = false; // fsync each WAL group commit (power-loss
                               // durability; default is process-crash)
};

class LsmEngine final : public StoreEngine {
 public:
  /// Opens (or creates) the store rooted at `dir` and recovers its
  /// durable state; `last_recovery()` reports what was found.
  explicit LsmEngine(std::string dir, LsmOptions options = {});

  const char* name() const noexcept override { return "lsm"; }

  void Put(const InodeRecord& record) override;
  std::optional<InodeRecord> Get(NodeId id) const override;
  [[nodiscard]] bool Contains(NodeId id) const override;
  std::optional<InodeRecord> Remove(NodeId id) override;
  std::size_t Size() const override;
  void Clear() override;
  void Scan(const std::function<void(const InodeRecord&)>& fn) const override;

  void InsertAll(const std::vector<InodeRecord>& records) override;
  std::vector<InodeRecord> ExtractAll(const std::vector<NodeId>& ids) override;
  std::size_t IngestTableFile(const std::string& path) override;

  void Flush() override;
  StoreRecoveryInfo Reopen() override;
  void TearWalTail(std::size_t bytes) override;
  std::vector<std::string> AuditStorage() const override;
  StoreEngineStats Stats() const override;

  StoreRecoveryInfo last_recovery() const;
  const std::string& dir() const noexcept { return dir_; }

 private:
  struct Table {
    std::uint64_t seq = 0;
    std::string file;  // basename within dir_
    std::uint64_t entries = 0;
    SSTableReader reader;
  };

  [[nodiscard]] bool OpenLocked(StoreRecoveryInfo* info) D2T_REQUIRES(mu_);
  void JournalPutLocked(const InodeRecord& record) D2T_REQUIRES(mu_);
  void JournalRemoveLocked(NodeId id) D2T_REQUIRES(mu_);
  /// Memtable lookup, then tables newest → oldest (bloom-gated).
  std::optional<SSTableEntry> LookupLocked(NodeId id) const
      D2T_REQUIRES(mu_);
  /// Merged live view (oldest table → newest → memtable, tombstones out).
  std::map<NodeId, InodeRecord> MergedLocked() const D2T_REQUIRES(mu_);
  void MaybeFlushLocked() D2T_REQUIRES(mu_);
  [[nodiscard]] bool FlushLocked() D2T_REQUIRES(mu_);
  void MaybeCompactLocked() D2T_REQUIRES(mu_);
  void RewriteManifestLocked() D2T_REQUIRES(mu_);
  std::string TablePath(const std::string& file) const;

  std::string dir_;
  LsmOptions options_;

  /// Engine lock, rank 42: after the store façade's lock (40), before the
  /// WAL leaf lock (43). See DESIGN.md §6.
  mutable Mutex mu_ D2T_LOCK_RANK(42);
  /// Sorted memtable; nullopt value = tombstone.
  std::map<NodeId, std::optional<InodeRecord>> mem_ D2T_GUARDED_BY(mu_);
  std::size_t mem_bytes_ D2T_GUARDED_BY(mu_) = 0;
  /// Oldest → newest. Mutable: reads seek within table files.
  mutable std::vector<Table> tables_ D2T_GUARDED_BY(mu_);
  std::uint64_t next_seq_ D2T_GUARDED_BY(mu_) = 1;
  std::size_t live_count_ D2T_GUARDED_BY(mu_) = 0;
  StoreRecoveryInfo recovery_ D2T_GUARDED_BY(mu_);
  mutable StoreEngineStats stats_ D2T_GUARDED_BY(mu_);
  LogFile wal_;  // internally locked (rank 43)
};

}  // namespace d2tree
