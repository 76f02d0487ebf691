// The functional MDS cluster: D2-Tree partitioning executed for real.
//
// Wraps M MdsServers, materializes a namespace into their stores (global
// layer replicated everywhere, each local-layer subtree on its owner),
// implements the client access logic of Sec. IV-A2 against live servers,
// and *physically* executes the Monitor's dynamic-adjustment migrations by
// moving records between stores. A consistency auditor verifies the
// cluster invariants after any sequence of operations.
//
// Message path: every client/MDS/Monitor interaction travels as a typed
// message (net/message.h) over an injected Transport. The class splits
// into a *client-side stub* — Stat/StatVia/Update route via the shared
// local-index helper (core/routing.h), Call kStatRequest/kUpdateRequest/
// kForward and accumulate per-op simulated latency and jump counts into
// ClientResult — and the *server side*, which is not in this class: each
// server and the Monitor are the library handlers of mds/service.h,
// bound on the transport, the same ones an mdsd daemon binds to its
// socket. A global-layer update is their locked, versioned round
// (kGlWriteLock, kGlCommit fan-out, release), so GL state reaches a
// replica only in a message. Heartbeats (kHeartbeat) and the subtree
// transfers (kPendingPoolPush/kPendingPoolPull/kBulkTable) ride the same
// wire as priced legs of the Monitor-driven transaction. On
// InProcessTransport (the default) every leg is free and delivered; on
// SimNetTransport the jump counts of the paper become latency
// distributions and the network is a fault surface: a dropped client⇄MDS
// leg triggers the same bounded failover as a dead server (counted in
// failover_redirects()), and a Monitor⇄MDS partition suppresses
// heartbeats so adjustment rounds drain the server. A dead server has no
// handler bound, so calls to it are undeliverable.
//
// Failure semantics (Sec. IV-A3/IV-B "owners out of range → pending
// pool", executed for real): a killed MDS stops answering and loses its
// volatile stores; the next adjustment round plans it at capacity 0, so
// its subtrees re-place through the pending pool and lost records are
// rebuilt from the backing store (the namespace tree). Revived and added
// servers rebuild their GL replica before they take traffic. See the
// fault operations below.
//
// Durability & crash recovery (DESIGN.md §7): the Monitor journals every
// control-plane transition to its WAL before applying it — placement and
// capacity checkpoints, GL versions, and every subtree transfer (a
// migration or a rename) as one INTENT → PREPARE → COMMIT/ABORT
// transaction; each MDS journals the transfers it applied. ArmCrash takes
// the whole service down at a named protocol site until Recover() replays
// the journal. A pull the network cannot deliver parks its transaction
// until a later round re-issues it (receiver dedup on the txn id).
// Control-plane messages ride a RetryPolicy (net/retry.h).
//
// Threading contract: any number of client threads may call Stat / StatVia
// / Update concurrently with each other and with RunAdjustmentRound /
// CheckConsistency / the fault operations (KillServer, ReviveServer,
// AddServer). Two locks coordinate them (always acquired in this order —
// client_mu_ → topo_mu_ — declared as a D2T_ACQUIRED_BEFORE edge on the
// members below and enforced at compile time by Clang's -Wthread-safety
// plus scripts/check_lock_order.py):
//   * client_mu_   — client-side bookkeeping: popularity charging on the
//                    private tree copy and the shared rng.
//   * topo_mu_     — a shared-mutex "placement epoch" lock. Clients hold it
//                    shared while routing and calling servers; an
//                    adjustment round — and every fault operation and the
//                    auditor — holds it exclusive while it mutates (or
//                    reads whole) the scheme/assignment, membership,
//                    liveness and replicas, so nobody observes a record
//                    mid-migration, a server mid-crash or a GL round
//                    mid-fan-out.
// Handlers run on the calling thread (InProcess/SimNet Call), so they run
// under the caller's placement hold. Writers of one GL node exclude each
// other through the Monitor's lease lock (MonitorService::mu_, rank 30,
// held only inside one lock-table step). Below these nest the per-server
// pull-dedup lock (MdsServer::pulls_mu_, rank 35), the per-store locks
// (MetadataStore::mu_, rank 40), the WAL buffer locks (Wal::mu_, rank 45 —
// journal appends are leaf operations) and the transport's locks (ranks
// 46–60) — see DESIGN.md "Lock hierarchy" for the full rank table.
//
// tree_ is deliberately *not* GUARDED_BY one mutex: its structure is
// immutable after construction (read freely under topo_mu_ shared), while
// its popularity counters are only mutated under client_mu_ (AddAccess,
// RecomputeSubtreePopularity — the latter additionally under topo_mu_
// exclusive so no reader observes aggregates mid-recompute). A single
// capability cannot express that field-disjoint protocol; the split is
// documented here and exercised race-free under TSan.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "d2tree/common/mutex.h"
#include "d2tree/core/d2tree.h"
#include "d2tree/durability/crash_point.h"
#include "d2tree/durability/wal.h"
#include "d2tree/mds/server.h"
#include "d2tree/mds/service.h"
#include "d2tree/metrics/metrics.h"
#include "d2tree/net/retry.h"
#include "d2tree/net/transport.h"
#include "d2tree/nstree/tree.h"
#include "d2tree/storage/store_engine.h"

namespace d2tree {

class FunctionalCluster {
 public:
  /// Partitions `tree` (popularity must be charged) across `mds_count`
  /// servers and loads every record into the right stores. Messages travel
  /// over `transport` (nullptr → a private InProcessTransport: zero
  /// latency, no loss — the classic direct-call behavior). `store` picks
  /// the per-server local-store backend: the default in-memory map, or
  /// the LSM engine under `store.data_dir/mds<k>/` — in which case a
  /// restart with the same directory resumes from the durable namespace
  /// (Materialize only fills what the stores do not already hold) and
  /// subtree handoffs ship as sealed SSTables (one kBulkTable leg +
  /// file link-in) instead of per-record streams.
  FunctionalCluster(const NamespaceTree& tree, std::size_t mds_count,
                    D2TreeConfig config = {},
                    std::shared_ptr<Transport> transport = nullptr,
                    StoreSpec store = {});
  /// Unbinds every handler from the transport, which may outlive this.
  ~FunctionalCluster();

  /// Total servers ever part of the cluster (dead ones included).
  std::size_t mds_count() const;
  /// Servers currently alive.
  std::size_t alive_count() const;
  /// The server object is stable (held by unique_ptr), but indexing the
  /// membership vector takes the placement lock shared: AddServer may be
  /// growing it concurrently.
  MdsServer& server(MdsId id) {
    ReaderMutexLock topo(&topo_mu_);
    return *servers_[static_cast<std::size_t>(id)];
  }
  const MdsServer& server(MdsId id) const {
    ReaderMutexLock topo(&topo_mu_);
    return *servers_[static_cast<std::size_t>(id)];
  }
  /// Reference stays valid for the cluster's lifetime; its *contents*
  /// shift whenever an adjustment round commits, so snapshot what you
  /// compare. The shared hold only fences the read against a round
  /// mid-commit.
  const D2TreeScheme& scheme() const {
    ReaderMutexLock topo(&topo_mu_);
    return scheme_;
  }
  const Assignment& assignment() const {
    ReaderMutexLock topo(&topo_mu_);
    return assignment_;
  }

  struct ClientResult {
    MdsStatus status = MdsStatus::kNotFound;
    InodeRecord record;
    MdsId served_by = -1;
    int hops = 1;   // servers contacted (failover retries included)
    int jumps = 0;  // server→server forwards (Def. 1; D2-Tree bound: ≤ 1)
    /// Accumulated simulated network latency of every message leg this op
    /// paid, µs (0 on InProcessTransport).
    double sim_latency_us = 0.0;
    OpClass op_class = OpClass::kGlHit;
    /// The transport-leg failure behind a kUnavailable outcome (kNone on a
    /// clean op): kUndeliverable = dead/partitioned/unknown peer, kTimeout
    /// = a lost leg that may have executed. The taxonomy is identical on
    /// every transport (tests/test_transport_conformance.cpp).
    DeliveryError net_error = DeliveryError::kNone;
  };

  /// Client read (Sec. IV-A2): consult the cached local index; a hit goes
  /// straight to the subtree owner, a miss means global layer → any
  /// server. Also charges the access for dynamic adjustment.
  ClientResult Stat(const std::string& path);

  /// Like Stat but deliberately entering at `via` — exercises the
  /// forwarding path (stale client knowledge). An out-of-range `via`
  /// (no such server) returns kUnavailable with hops == 0.
  ClientResult StatVia(const std::string& path, MdsId via);

  /// Client update: local-layer targets mutate at the owner; global-layer
  /// targets take the GL lock, bump the master version and write every
  /// live replica before returning (Sec. IV-A3).
  ClientResult Update(const std::string& path, std::uint64_t mtime);

  // --- Renames: subtree-transfer transactions with a name change
  // --- (DESIGN.md §7). ---

  struct RenameResult {
    MdsStatus status = MdsStatus::kNotFound;
    /// Transaction id (the one counter every transfer draws from);
    /// 0 when the transaction never started (validation failure).
    std::uint64_t rename_id = 0;
    /// True when the transaction re-homed the subtree to another MDS.
    bool cross_server = false;
    /// Records shipped source → destination (0 for in-place renames —
    /// the D2-Tree claim the bench ratchets).
    std::size_t records_moved = 0;
    /// Accumulated simulated network latency of every message leg, µs.
    double sim_latency_us = 0.0;
  };

  /// Renames `path`'s final component in place, as one journaled
  /// transaction with from == to (INTENT → PREPARE → apply → COMMIT,
  /// nothing transferred): a GL-resident target updates every live replica
  /// under the GL write lock; a local-layer target mutates at its owner.
  /// Either way the commit bumps the GL master version so cached client
  /// indexes and leases invalidate. No records change owner — the
  /// structure-keyed placement claim of Sec. II, executed for real.
  RenameResult Rename(const std::string& path, const std::string& new_name);

  /// Cross-MDS rename: renames `path` AND re-homes its subtree to `dest`
  /// in the same transaction a migration runs (the source owner extracts
  /// the subtree records, the destination applies them under a
  /// deduplicated txn id, ownership indexes and the GL version flip at
  /// commit) — but an undeliverable transfer aborts instead of parking.
  /// `path` must root a registered local-layer subtree — the unit of
  /// distribution — and `dest` must be alive; kNotPermitted otherwise.
  /// This is the operation hash-keyed schemes pay for on every directory
  /// rename; here it runs only when placement policy asks for it.
  RenameResult RenameTo(const std::string& path, const std::string& new_name,
                        MdsId dest);

  // --- Fault operations (the injector's hook points; each takes the
  // --- placement-epoch lock exclusively, so faults never fire mid-op).

  /// Crashes server `mds`: it stops answering and loses both stores.
  /// Refuses to kill the last alive server (false; also false when `mds`
  /// is out of range or already dead).
  bool KillServer(MdsId mds);

  /// Restarts a dead server: rebuilds its GL replica at the master
  /// version (from a live replica, else from the backing store) before it
  /// is marked alive. Subtrees it still owns — a fast restart, before any
  /// adjustment round re-placed them — come back with it, their records
  /// re-materialized from the backing store (counted in
  /// recovered_records()); subtrees already re-placed stay where they
  /// are, so after a drain it restarts empty and pulls from the pending
  /// pool like a fresh server. False if out of range or alive.
  bool ReviveServer(MdsId mds);

  /// Adds a fresh server (GL replica pre-built at the master version) and
  /// returns its id. It acquires subtrees via the pending pool, exactly
  /// like the paper's "newly added MDS" (Sec. IV-B).
  MdsId AddServer(double capacity = 1.0);

  /// While suppressed, `mds` is reported to the Monitor as capacity 0
  /// (missed heartbeats ⇒ presumed failed), so adjustment rounds drain
  /// it; it keeps serving what it still owns. False if out of range.
  bool SetHeartbeatSuppressed(MdsId mds, bool suppressed);

  /// Network faults (need a transport that models a network — false on
  /// InProcessTransport, so scheduled events are counted as skipped).
  /// Sets the drop probability of the client⇄`mds` link; while > 0,
  /// requests and responses are lost at that rate and clients pay the
  /// bounded failover path.
  bool SetClientLinkDrop(MdsId mds, double probability);
  /// Cuts (or heals) the Monitor⇄`mds` link. While partitioned the
  /// server's heartbeats never arrive, so adjustment rounds treat it as
  /// failed and drain it — exactly like SetHeartbeatSuppressed, but
  /// imposed by the network rather than the server.
  bool SetMonitorPartition(MdsId mds, bool partitioned);

  bool IsServerAlive(MdsId mds) const;

  /// One dynamic-adjustment round: recompute popularity from charged
  /// accesses, plan with the Monitor (dead and heartbeat-silent servers
  /// reported with capacity 0, so their subtrees route through the
  /// pending pool to survivors), and *physically move* the affected
  /// subtree records between stores — recovering from the backing store
  /// any record the source server lost in a crash. Also rebuilds stale GL
  /// replicas on revived/added servers before they take traffic.
  /// Serializes against concurrent clients via the placement lock.
  /// Returns the number of migrated records.
  std::size_t RunAdjustmentRound();

  /// Audits the invariants over the *alive* servers: every namespace node
  /// whose owner is alive is stored exactly once in local stores XOR on
  /// every live server's GL replica; nodes orphaned by a crash (owner
  /// dead, not yet re-placed) are held by nobody; every live GL replica
  /// holds the same record (version, mtime, name) of each GL node and has
  /// applied the same GL version, none behind the master version;
  /// record/namespace agreement. Safe to call while client threads are
  /// active (it waits for the ops in flight and holds new ones off).
  /// Returns true when clean; otherwise fills `error`.
  bool CheckConsistency(std::string* error) const;

  // --- Durability & crash recovery (DESIGN.md §7). ---

  /// Arms a one-shot crash at `site`: the next time the protocol reaches
  /// that point the whole metadata service goes down (crashed() flips,
  /// every client op answers kUnavailable, the in-flight round unwinds).
  /// With `torn_tail` the crash additionally rips the last bytes off the
  /// Monitor WAL, as if the process died mid-append — replay must detect
  /// the torn record and treat it as never written.
  void ArmCrash(CrashSite site, bool torn_tail = false);

  /// True between a crash firing and Recover() completing.
  bool crashed() const noexcept {
    return crashed_.load(std::memory_order_acquire);
  }

  struct RecoveryReport {
    std::size_t wal_records_replayed = 0;
    bool torn_tail_detected = false;
    std::size_t torn_bytes_discarded = 0;
    /// Prepared-but-uncommitted transactions completed at their grantee
    /// (a rename's name applied and the GL version bumped).
    std::size_t txns_rolled_forward = 0;
    /// Intent-only transactions aborted (nothing had moved; a rename's
    /// pre-rename name restored).
    std::size_t txns_rolled_back = 0;
    /// Records rebuilt into local stores from the backing namespace.
    std::size_t records_rematerialized = 0;
    /// GL master version recovered from the WAL.
    std::uint64_t gl_version = 0;
    /// Persistent-store replay (LSM backend only; zero on memory stores):
    /// local-store WALs whose tail was torn mid-append and truncated, and
    /// the total memtable records their group-commit WALs replayed.
    std::size_t store_wals_torn = 0;
    std::size_t store_wal_records_replayed = 0;
  };

  /// Restarts the metadata service after a crash: replays the Monitor WAL
  /// (truncating any torn tail), folds it through the same TxnFold d2fsck
  /// audits with, resolves in-flight transactions — intent only →
  /// journaled abort, prepared or later → journaled commit at the
  /// grantee — rebuilds every volatile store from the backing namespace at
  /// the recovered placement, restores each MDS's pull-dedup set from its
  /// own journal, resynchronizes the planner, and writes a fresh placement
  /// checkpoint. Idempotent: recovering an uncrashed cluster is a no-op
  /// rebuild. Dead servers stay dead (their subtrees remain orphaned until
  /// an adjustment round or ReviveServer).
  RecoveryReport Recover();

  /// The Monitor's journal (internally locked; safe without the placement
  /// lock).
  const Wal& monitor_wal() const noexcept { return monitor_wal_; }
  /// Server `id`'s applied-pull journal.
  const Wal& mds_wal(MdsId id) const {
    ReaderMutexLock topo(&topo_mu_);
    return *mds_wals_[static_cast<std::size_t>(id)];
  }

  /// Transactions whose pull is parked in the pending pool awaiting a
  /// deliverable link, and a snapshot of their member nodes (d2fsck).
  std::vector<std::uint64_t> ParkedTxnIds() const {
    ReaderMutexLock topo(&topo_mu_);
    std::vector<std::uint64_t> ids;
    for (const Txn& txn : parked_) ids.push_back(txn.intent.txn_id);
    return ids;
  }
  std::vector<NodeId> ParkedNodes() const {
    ReaderMutexLock topo(&topo_mu_);
    return {parked_nodes_.begin(), parked_nodes_.end()};
  }

  std::uint64_t gl_master_version() const { return monitor_.version(); }
  std::uint64_t total_forwards() const noexcept { return forwards_.load(); }

  /// Number of global-layer updates acknowledged (lock acquisitions).
  std::uint64_t gl_updates() const noexcept { return gl_updates_.load(); }
  /// Aggregate wall time GL rounds spent waiting on a busy node lock —
  /// the live-cluster analogue of SimResult::lock_wait_total.
  double gl_lock_wait_seconds() const;
  /// Completed adjustment rounds (monotone).
  std::uint64_t adjustment_rounds() const noexcept {
    return adjustment_rounds_.load();
  }
  /// Client redirects after contacting a dead server (stale-cache
  /// invalidation + failover, Lustre-style).
  std::uint64_t failover_redirects() const noexcept {
    return failover_redirects_.load();
  }
  /// Records rebuilt from the backing store because their owner crashed
  /// before they migrated.
  std::uint64_t recovered_records() const noexcept {
    return recovered_records_.load();
  }

  /// The message layer everything above rides on.
  Transport& transport() noexcept { return *transport_; }
  const Transport& transport() const noexcept { return *transport_; }

  /// Heartbeats that never reached the Monitor (dropped or partitioned
  /// link) — each one makes an adjustment round treat its sender as
  /// failed.
  std::uint64_t heartbeats_lost() const noexcept {
    return heartbeats_lost_.load();
  }
  /// Simulated latency of control-plane traffic (heartbeats, pending-pool
  /// push/pull, replica rebuilds), µs — kept separate from the per-op
  /// client latency in ClientResult.
  double control_latency_us() const noexcept {
    return static_cast<double>(control_ns_.load()) * 1e-3;
  }

  /// Control-plane retransmissions under the retry/backoff policy, and
  /// operations that exhausted their per-op deadline despite them.
  std::uint64_t retries_total() const noexcept { return retries_total_.load(); }
  std::uint64_t deadline_exceeded_total() const noexcept {
    return deadline_exceeded_total_.load();
  }
  /// Re-delivered pulls the receiver dropped via txn-id dedup — each
  /// one is a double-apply that did not happen.
  std::uint64_t duplicate_pulls_dropped() const noexcept {
    return duplicate_pulls_dropped_.load();
  }
  /// Subtree handoffs that travelled as one sealed SSTable (kBulkTable
  /// leg + file link-in at the destination) rather than a per-record
  /// stream, and the records those tables carried. Nonzero only with a
  /// persistent store backend.
  std::uint64_t bulk_tables_shipped() const noexcept {
    return bulk_tables_shipped_.load();
  }
  std::uint64_t bulk_records_shipped() const noexcept {
    return bulk_records_shipped_.load();
  }
  /// Armed crashes that fired / Recover() calls that completed.
  std::uint64_t crashes_injected() const noexcept {
    return crashes_injected_.load();
  }
  std::uint64_t recoveries_completed() const noexcept {
    return recoveries_.load();
  }

  /// Rename transactions that committed / aborted (live runs and
  /// recovery resolutions both count).
  std::uint64_t renames_committed() const noexcept {
    return renames_committed_.load();
  }
  std::uint64_t renames_aborted() const noexcept {
    return renames_aborted_.load();
  }

  /// Path-integrity audit (d2fsck's "no path resolves to two owners"):
  /// for every node, the path reconstructed from the live tree must
  /// resolve back to exactly that node — renames must never alias two
  /// nodes onto one path or strand a path without a resolver. Returns
  /// the number of violations, filling `error` with the first.
  std::size_t CheckPathIntegrity(std::string* error) const;

 private:
  InodeRecord MakeRecord(NodeId id) const;
  /// Loads every record into the right store. Called from the constructor
  /// under the exclusive placement hold it takes for initialization.
  void Materialize() D2T_REQUIRES(topo_mu_);
  /// Client-side stub: sends the request leg(s) for `target` entering at
  /// `at`, drives the server-side handler, pays forward/failover legs and
  /// fills the per-op telemetry.
  ClientResult StatAt(NodeId target, MdsId at) D2T_REQUIRES_SHARED(topo_mu_);
  /// Ends a client op in an outage: counts the failover redirect (the
  /// client invalidates its cached route) and fills the verdict.
  ClientResult& Unavailable(ClientResult& out, DeliveryError error) noexcept {
    failover_redirects_.fetch_add(1, std::memory_order_relaxed);
    out.status = MdsStatus::kUnavailable;
    out.op_class = OpClass::kFailover;
    out.net_error = error;
    return out;
  }
  /// Accounts one control-plane leg (heartbeat/migration/rebuild traffic).
  void AccountControl(const Delivery& d) noexcept {
    control_ns_.fetch_add(static_cast<std::uint64_t>(d.latency_us * 1e3),
                          std::memory_order_relaxed);
  }
  /// Membership and liveness checks.
  bool KnownLocked(MdsId mds) const D2T_REQUIRES_SHARED(topo_mu_) {
    return mds >= 0 && static_cast<std::size_t>(mds) < servers_.size();
  }
  bool AliveLocked(MdsId mds) const D2T_REQUIRES_SHARED(topo_mu_) {
    return KnownLocked(mds) && servers_[mds]->alive();
  }
  MdsId AnyAliveLocked() const D2T_REQUIRES_SHARED(topo_mu_);
  std::size_t AliveCountLocked() const D2T_REQUIRES_SHARED(topo_mu_);
  /// Capacities the Monitor plans with, derived from one heartbeat round
  /// *as messages*: dead and suppressed servers send nothing; a heartbeat
  /// lost on the wire (drop or Monitor⇄MDS partition) silences its sender
  /// just the same — either way the Monitor plans with capacity 0 and the
  /// server drains.
  MdsCluster CollectHeartbeats() D2T_REQUIRES(topo_mu_);
  /// Re-fills `mds`'s GL replica at the master version.
  void RebuildGlReplicaLocked(MdsId mds) D2T_REQUIRES(topo_mu_);
  /// Rebuilds every live GL replica whose version is not the master's.
  void SweepGlReplicasLocked() D2T_REQUIRES(topo_mu_);
  /// Binds server `mds`'s handler on the transport, or (`serving` false:
  /// a crashed server) unbinds it so calls to it are undeliverable.
  void BindLocked(MdsId mds, bool serving) D2T_REQUIRES(topo_mu_);
  /// The Monitor's handler plus the kAfterGlBump crash site. Runs inside
  /// a Call, i.e. under the caller's placement hold (see the threading
  /// contract), which the analysis cannot see through the transport.
  Message ServeMonitor(const Address& from, const Message& req)
      D2T_NO_THREAD_SAFETY_ANALYSIS;
  /// The live servers other than `mds` (a GL commit's fan-out). Runs
  /// inside a handler, under the caller's placement hold.
  std::vector<MdsId> GlPeersOf(MdsId mds) const D2T_NO_THREAD_SAFETY_ANALYSIS;
  /// Brings `mds`'s local store in line with the placement: drops durable
  /// records placed elsewhere (persistent backend), fills missing or stale
  /// ones from the backing store. Returns the records filled.
  std::size_t ReconcileLocalStoreLocked(MdsId mds) D2T_REQUIRES(topo_mu_);
  /// Rebuilds `mds`'s pull-dedup set from its own journal.
  void RestoreAppliedPullsLocked(MdsId mds) D2T_REQUIRES(topo_mu_);
  /// Control-plane send under `policy`: retries with capped backoff,
  /// charges the accumulated simulated latency to control_ns_ and the
  /// retry/deadline counters, returns the final delivery verdict.
  bool SendControl(const Address& from, const Address& to, const Message& msg,
                   const RetryPolicy& policy, std::uint64_t nonce);
  /// Fires an armed crash if `site` matches: flips crashed_, optionally
  /// tears the Monitor WAL tail *and* every server's local-store WAL tail
  /// (the power cut mid-append everywhere at once). Returns true when the
  /// caller must unwind. Needs at least a shared placement hold to walk
  /// the membership for the store-WAL tear; each store's own lock
  /// serializes the tear against concurrent appends.
  bool MaybeCrash(CrashSite site) D2T_REQUIRES_SHARED(topo_mu_);
  /// Checkpoints the planner's subtree owners + GL version to the WAL.
  void JournalPlacementLocked() D2T_REQUIRES(topo_mu_);
  /// Checkpoints the configured per-MDS capacities to the WAL.
  void JournalCapacitiesLocked() D2T_REQUIRES(topo_mu_);
  /// Re-issues the pull of every parked transaction whose link heals;
  /// aborts those whose grantee died. Returns records delivered.
  std::size_t CompleteParkedLocked() D2T_REQUIRES(topo_mu_);
  /// The rename driver behind Rename/RenameTo. `dest` empty = in-place
  /// rename; set = cross-server re-home.
  RenameResult RenameImpl(const std::string& path, const std::string& new_name,
                          std::optional<MdsId> dest);

  // --- The subtree-transfer transaction (DESIGN.md §7): the steps the
  // --- adjustment round, the parked re-issue and the rename all share.

  /// One transaction in flight. Every record it journals is a copy of
  /// `intent` (id, root, from → to, a rename's name pair).
  struct Txn {
    WalRecord intent;
    std::vector<NodeId> members;
    std::vector<InodeRecord> records;
    /// Sealed SSTable in the ship directory (persistent backend; a
    /// re-issued pull re-sends it), or empty on the per-record path.
    std::string table;
  };
  /// Assigns the next txn id and journals INTENT.
  Txn BeginTxnLocked(NodeId root, MdsId from, MdsId to, std::string name = {},
                     std::string prev_name = {}) D2T_REQUIRES(topo_mu_);
  /// For a transfer (from != to): extracts the subtree's records from
  /// `from` (lost ones rebuilt from the backing store, a rename's new name
  /// pre-applied). Then journals PREPARE.
  void ExtractTxnLocked(Txn& txn) D2T_REQUIRES(topo_mu_);
  /// Ships the records `sender` → `to` (one sealed table when the backend
  /// allows, else a per-record pull) under the control-plane retry
  /// policy. False when undeliverable; otherwise the destination applies
  /// them at most once (dedup on the txn id).
  bool DeliverTxnLocked(Txn& txn, const Address& sender)
      D2T_REQUIRES(topo_mu_);
  /// Counts a transfer the destination `to` applied (journals
  /// kPullApplied, `count` records) or dropped as a duplicate.
  void NoteTransferLocked(MdsId to, std::uint64_t id, std::size_t count,
                          bool applied_now) D2T_REQUIRES(topo_mu_);
  /// Journals COMMIT (`version` = GL version a rename bumped), moves
  /// ownership of a transferred subtree to `to` and unpins it.
  void CommitTxnLocked(const Txn& txn, std::uint64_t version = 0)
      D2T_REQUIRES(topo_mu_);
  /// Journals ABORT, drops any sealed table, unpins the subtree and hands
  /// the records (pre-rename name restored) back to the subtree's owner if
  /// it is alive; otherwise the backing store regenerates them later.
  void AbortTxnLocked(Txn& txn) D2T_REQUIRES(topo_mu_);
  /// Journals a copy of `intent` as a `type` record (and counts a
  /// rename's terminal record).
  void JournalTxn(const WalRecord& intent, WalRecordType type,
                  std::uint64_t count = 0, std::uint64_t version = 0);
  /// Idempotently applies a committed/rolled-forward rename to the
  /// backing tree. False (skip) if another node already holds the name —
  /// only reachable replaying a journal against a later namespace.
  bool ApplyRenameLocked(NodeId id, const std::string& new_name)
      D2T_REQUIRES(topo_mu_);

  /// Per-server local-store spec: `store_spec_.data_dir/mds<k>` is server
  /// k's engine root. Set once in the ctor, then read-only.
  StoreSpec ServerStoreSpec(MdsId id) const;

  // tree_ is protocol-guarded, not capability-guarded — see the threading
  // contract at the top of this file.
  NamespaceTree tree_;  // private copy: accrues access popularity
  std::shared_ptr<Transport> transport_;  // set once in the ctor, then const
  StoreSpec store_spec_;                  // set once in the ctor, then const

  /// Guards the client-side bookkeeping (popularity charging, rng) so
  /// multiple client threads can drive the cluster concurrently; server
  /// stores have their own locks. First in the cluster's acquisition
  /// order.
  mutable Mutex client_mu_ D2T_ACQUIRED_BEFORE(topo_mu_) D2T_LOCK_RANK(10);
  Rng rng_ D2T_GUARDED_BY(client_mu_){0xC1057E2ULL};

  /// Placement epoch lock (see threading contract above).
  mutable SharedMutex topo_mu_ D2T_LOCK_RANK(20);
  MdsCluster capacities_ D2T_GUARDED_BY(topo_mu_);
  D2TreeScheme scheme_ D2T_GUARDED_BY(topo_mu_);
  Assignment assignment_ D2T_GUARDED_BY(topo_mu_);
  std::vector<std::unique_ptr<MdsServer>> servers_ D2T_GUARDED_BY(topo_mu_);
  /// servers_[k]'s handler, bound at MdsAddress(k) while k is alive.
  std::vector<std::unique_ptr<MdsService>> services_ D2T_GUARDED_BY(topo_mu_);

  // --- Durability state (DESIGN.md §7). The Monitor WAL is internally
  // --- locked (rank 45) so journal reads never need the placement lock;
  // --- the per-MDS journals live behind topo_mu_ like the servers.
  Wal monitor_wal_;
  /// The Monitor's handler: GL lock table and version counter, journaling
  /// every version to monitor_wal_.
  MonitorService monitor_{&monitor_wal_};
  std::vector<std::unique_ptr<Wal>> mds_wals_ D2T_GUARDED_BY(topo_mu_);
  std::uint64_t next_txn_id_ D2T_GUARDED_BY(topo_mu_) = 1;
  /// Transactions whose pull the network refused to deliver: records
  /// wait in the pending pool, member nodes are pinned unreachable, the
  /// next round re-issues the pull (or aborts if the grantee died).
  std::vector<Txn> parked_ D2T_GUARDED_BY(topo_mu_);
  std::unordered_set<NodeId> parked_nodes_ D2T_GUARDED_BY(topo_mu_);
  /// Default control-plane retry discipline (set once, then read-only).
  RetryPolicy control_policy_{};

  std::atomic<std::uint64_t> forwards_{0};
  std::atomic<std::uint64_t> gl_updates_{0};
  std::atomic<std::uint64_t> adjustment_rounds_{0};
  std::atomic<std::uint64_t> failover_redirects_{0};
  std::atomic<std::uint64_t> recovered_records_{0};
  std::atomic<std::uint64_t> heartbeats_lost_{0};
  std::atomic<std::uint64_t> control_ns_{0};

  /// Armed crash site (-1 = none) + torn-tail flag; one-shot, consumed by
  /// MaybeCrash with a compare-exchange so exactly one site fires.
  std::atomic<int> armed_site_{-1};
  std::atomic<bool> armed_torn_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<std::uint64_t> retries_total_{0};
  std::atomic<std::uint64_t> deadline_exceeded_total_{0};
  std::atomic<std::uint64_t> duplicate_pulls_dropped_{0};
  std::atomic<std::uint64_t> bulk_tables_shipped_{0};
  std::atomic<std::uint64_t> bulk_records_shipped_{0};
  std::atomic<std::uint64_t> crashes_injected_{0};
  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> renames_committed_{0};
  std::atomic<std::uint64_t> renames_aborted_{0};
};

}  // namespace d2tree
