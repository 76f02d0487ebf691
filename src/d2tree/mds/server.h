// A functional metadata server: owns local-layer records, holds a replica
// of the global layer, performs POSIX-style permission checks along the
// ancestor chain, and answers or forwards requests (Sec. IV-A2 access
// logic, executed for real rather than simulated in virtual time).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "d2tree/common/mutex.h"
#include "d2tree/mds/store.h"
#include "d2tree/partition/partition.h"

namespace d2tree {

struct MdsOpResult {
  MdsStatus status = MdsStatus::kNotFound;
  InodeRecord record;  // valid when status == kOk
};

class MdsServer {
 public:
  explicit MdsServer(MdsId id) : id_(id) {}

  /// Server whose authoritative local store is backed per `spec` (the LSM
  /// engine when a data dir is configured). The GL replica always stays in
  /// memory: it is derived state, rebuilt from the owners on boot/revive.
  MdsServer(MdsId id, const StoreSpec& spec)
      : id_(id), local_(MakeStoreEngine(spec, "local")) {}

  MdsId id() const noexcept { return id_; }

  /// Authoritative local-layer records this server owns.
  MetadataStore& local() noexcept { return local_; }
  const MetadataStore& local() const noexcept { return local_; }

  /// This server's replica of the global layer.
  MetadataStore& global_replica() noexcept { return global_; }
  const MetadataStore& global_replica() const noexcept { return global_; }

  /// Version of the global layer this replica has applied.
  std::uint64_t gl_version() const noexcept { return gl_version_.load(); }
  void set_gl_version(std::uint64_t v) noexcept { gl_version_.store(v); }
  /// Raises gl_version() to `v` if that is newer (a commit arrived).
  void AdvanceGlVersion(std::uint64_t v) noexcept {
    std::uint64_t seen = gl_version_.load();
    while (seen < v && !gl_version_.compare_exchange_weak(seen, v)) {
    }
  }

  /// Liveness: a dead server answers nothing (the cluster's fault layer
  /// flips this on KillServer/ReviveServer).
  bool alive() const noexcept {
    return alive_.load(std::memory_order_acquire);
  }
  void set_alive(bool alive) noexcept {
    alive_.store(alive, std::memory_order_release);
  }

  /// While suppressed, the server's heartbeats never reach the Monitor, so
  /// an adjustment round treats it like a failed MDS and drains it.
  bool heartbeats_suppressed() const noexcept {
    return hb_suppressed_.load(std::memory_order_acquire);
  }
  void set_heartbeats_suppressed(bool suppressed) noexcept {
    hb_suppressed_.store(suppressed, std::memory_order_release);
  }

  /// Reads `target` after checking every ancestor is readable *from this
  /// server* (each must be in the GL replica or owned locally): the
  /// pathname traversal + permission check of Sec. III-A.
  /// kWrongServer = this server cannot see the target (caller forwards).
  MdsOpResult Stat(NodeId target, std::span<const NodeId> ancestors) const;

  /// Mutates a locally-owned record (local-layer update). Global-layer
  /// updates go through the locked round of MdsService (mds/service.h).
  MdsOpResult UpdateLocal(NodeId target, std::span<const NodeId> ancestors,
                          std::uint64_t mtime);

  /// Applies one pending-pool pull: inserts `records` into the local
  /// store and remembers `migration_id` as applied. Returns false —
  /// without touching the store — when that id was already applied: the
  /// receiver-side dedup that makes retransmitted pulls (retry/backoff,
  /// or a pull re-issued after a Monitor⇄MDS partition heals) safe.
  bool ApplyPull(std::uint64_t migration_id,
                 const std::vector<InodeRecord>& records);

  /// Bulk variant of ApplyPull: ingests a sealed SSTable file (LSM: file
  /// link-in, O(1) in record count) instead of per-record inserts. Same
  /// migration-id dedup contract. `records_ingested` (optional) reports
  /// how many records the table carried.
  bool ApplyPullTable(std::uint64_t migration_id, const std::string& path,
                      std::size_t* records_ingested = nullptr);

  /// Restores the applied-pull dedup set from a WAL replay (crash
  /// recovery: the ids come from this server's journaled kPullApplied
  /// records, so re-delivered pulls stay deduplicated across restarts).
  void RestoreAppliedPulls(const std::vector<std::uint64_t>& ids);

  /// Volatile-state loss on crash: the GL replica and the in-memory dedup
  /// set always vanish (recovery rebuilds them from donors and the WAL).
  /// With `reopen_durable_local` the local store survives as whatever its
  /// engine made durable — memtable gone, store WAL replayed with
  /// torn-tail truncation, tables intact — exactly a process kill; the
  /// returned info reports that replay. Without it the local store is
  /// cleared too (the memory-backend model: everything was volatile).
  StoreRecoveryInfo LoseVolatileState(bool reopen_durable_local = false);

  /// Operations served (monitoring).
  std::uint64_t ops_served() const noexcept { return ops_.load(); }

 private:
  bool CanRead(NodeId id) const {
    return global_.Contains(id) || local_.Contains(id);
  }
  bool CheckAncestors(std::span<const NodeId> ancestors) const;

  MdsId id_;
  MetadataStore local_;
  MetadataStore global_;
  /// Guards the pull dedup set; rank 35 sits between the cluster's GL
  /// lock (30) and the per-store lock (40): ApplyPull holds it while
  /// inserting into the local store.
  mutable Mutex pulls_mu_ D2T_LOCK_RANK(35);
  std::unordered_set<std::uint64_t> applied_pulls_ D2T_GUARDED_BY(pulls_mu_);
  std::atomic<std::uint64_t> gl_version_{0};
  std::atomic<bool> alive_{true};
  std::atomic<bool> hb_suppressed_{false};
  mutable std::atomic<std::uint64_t> ops_{0};
};

}  // namespace d2tree
