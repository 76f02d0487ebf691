#include "d2tree/mds/cluster.h"

#include <algorithm>
#include <cassert>
#include <filesystem>
#include <string>
#include <unordered_set>
#include <utility>

#include "d2tree/core/routing.h"
#include "d2tree/durability/fsck.h"
#include "d2tree/storage/sstable.h"

namespace d2tree {
namespace {

/// Position of the registered subtree rooted at `root`, or
/// `subtrees.size()` when `root` roots none.
std::size_t SubtreeIndexOf(const std::vector<Subtree>& subtrees, NodeId root) {
  std::size_t i = 0;
  while (i < subtrees.size() && subtrees[i].root != root) ++i;
  return i;
}

}  // namespace

FunctionalCluster::FunctionalCluster(const NamespaceTree& tree,
                                     std::size_t mds_count,
                                     D2TreeConfig config,
                                     std::shared_ptr<Transport> transport,
                                     StoreSpec store)
    : tree_(tree),
      transport_(transport != nullptr
                     ? std::move(transport)
                     : std::make_shared<InProcessTransport>()),
      store_spec_(std::move(store)) {
  assert(mds_count > 0);
  // Nobody else can reach `this` yet, but the guarded members are
  // initialized under the placement lock so every access carries its
  // capability.
  WriterMutexLock topo(&topo_mu_);
  capacities_ = MdsCluster::Homogeneous(mds_count);
  scheme_ = D2TreeScheme(std::move(config));
  assignment_ = scheme_.Partition(tree_, capacities_);
  servers_.reserve(mds_count);
  mds_wals_.reserve(mds_count);
  for (std::size_t k = 0; k < mds_count; ++k) {
    const auto id = static_cast<MdsId>(k);
    servers_.push_back(std::make_unique<MdsServer>(id, ServerStoreSpec(id)));
    services_.push_back(std::make_unique<MdsService>(
        *servers_.back(), tree_, assignment_, *transport_,
        [this, id] { return GlPeersOf(id); }));
    mds_wals_.push_back(std::make_unique<Wal>());
    BindLocked(id, true);
  }
  (void)transport_->Bind(MonitorAddress(),
                         [this](const Address& from, const Message& req) {
                           return ServeMonitor(from, req);
                         });
  for (const auto& service : services_) {
    service->LoadGlReplica();
    service->LoadShard();
  }
  // Genesis checkpoint: a crash before the first adjustment round must
  // recover to the initial partition.
  JournalCapacitiesLocked();
  JournalPlacementLocked();
}

FunctionalCluster::~FunctionalCluster() {
  WriterMutexLock topo(&topo_mu_);
  for (std::size_t k = 0; k < servers_.size(); ++k)
    BindLocked(static_cast<MdsId>(k), false);
  (void)transport_->Bind(MonitorAddress(), nullptr);
}

void FunctionalCluster::BindLocked(MdsId mds, bool serving) {
  Transport::Handler handler;
  if (serving) {
    MdsService* service = services_[static_cast<std::size_t>(mds)].get();
    handler = [service](const Address& from, const Message& req) {
      return service->Handle(from, req);
    };
  }
  (void)transport_->Bind(MdsAddress(mds), std::move(handler));
}

Message FunctionalCluster::ServeMonitor(const Address& from,
                                       const Message& req) {
  Message refused = req;
  refused.status = MdsStatus::kNotPermitted;
  if (crashed_.load(std::memory_order_acquire)) return refused;
  Message resp = monitor_.Handle(from, req);
  // The grant journaled a version bump; a crash here leaves it durable
  // with no replica applied (Recover() rebuilds every replica at it).
  if (req.type == MsgType::kGlWriteLock && resp.status == MdsStatus::kOk &&
      MaybeCrash(CrashSite::kAfterGlBump))
    return refused;
  return resp;
}

std::vector<MdsId> FunctionalCluster::GlPeersOf(MdsId mds) const {
  std::vector<MdsId> peers;
  for (const auto& server : servers_)
    if (server->alive() && server->id() != mds) peers.push_back(server->id());
  return peers;
}

double FunctionalCluster::gl_lock_wait_seconds() const {
  ReaderMutexLock topo(&topo_mu_);
  std::uint64_t ns = 0;
  for (const auto& service : services_) ns += service->lock_wait_ns();
  return static_cast<double>(ns) * 1e-9;
}

StoreSpec FunctionalCluster::ServerStoreSpec(MdsId id) const {
  StoreSpec spec = store_spec_;
  if (spec.persistent()) spec.data_dir += "/mds" + std::to_string(id);
  return spec;
}

std::size_t FunctionalCluster::mds_count() const {
  ReaderMutexLock topo(&topo_mu_);
  return servers_.size();
}

std::size_t FunctionalCluster::alive_count() const {
  ReaderMutexLock topo(&topo_mu_);
  return AliveCountLocked();
}

bool FunctionalCluster::IsServerAlive(MdsId mds) const {
  ReaderMutexLock topo(&topo_mu_);
  return AliveLocked(mds);
}

MdsId FunctionalCluster::AnyAliveLocked() const {
  for (const auto& server : servers_)
    if (server->alive()) return server->id();
  return -1;
}

std::size_t FunctionalCluster::AliveCountLocked() const {
  std::size_t n = 0;
  for (const auto& server : servers_) n += server->alive();
  return n;
}

MdsCluster FunctionalCluster::CollectHeartbeats() {
  MdsCluster effective = capacities_;
  const Message hb{.type = MsgType::kHeartbeat};
  for (std::size_t k = 0; k < servers_.size(); ++k) {
    if (!servers_[k]->alive() || servers_[k]->heartbeats_suppressed()) {
      effective.capacities[k] = 0.0;  // dead/silenced servers send nothing
      continue;
    }
    // Heartbeats get one tight retransmit (RetryPolicy::Heartbeat) so a
    // single stray drop does not fail a healthy server; the budget stays
    // well inside the heartbeat interval because *absence* is the failure
    // detector — a partition defeats every retry and the server is still
    // planned at capacity 0.
    if (!SendControl(MdsAddress(static_cast<MdsId>(k)), MonitorAddress(), hb,
                     RetryPolicy::Heartbeat(), k)) {
      effective.capacities[k] = 0.0;
      heartbeats_lost_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return effective;
}

bool FunctionalCluster::SendControl(const Address& from, const Address& to,
                                    const Message& msg,
                                    const RetryPolicy& policy,
                                    std::uint64_t nonce) {
  const RetryOutcome out =
      SendWithRetry(*transport_, from, to, msg, policy, nonce);
  control_ns_.fetch_add(
      static_cast<std::uint64_t>(out.delivery.latency_us * 1e3),
      std::memory_order_relaxed);
  retries_total_.fetch_add(static_cast<std::uint64_t>(out.retries()),
                           std::memory_order_relaxed);
  if (out.deadline_exceeded)
    deadline_exceeded_total_.fetch_add(1, std::memory_order_relaxed);
  return out.delivery.delivered;
}

void FunctionalCluster::ArmCrash(CrashSite site, bool torn_tail) {
  armed_torn_.store(torn_tail, std::memory_order_release);
  armed_site_.store(static_cast<int>(site), std::memory_order_release);
}

bool FunctionalCluster::MaybeCrash(CrashSite site) {
  int want = static_cast<int>(site);
  if (armed_site_.load(std::memory_order_acquire) != want) return false;
  if (!armed_site_.compare_exchange_strong(want, -1,
                                           std::memory_order_acq_rel))
    return false;  // another thread consumed the arm
  if (armed_torn_.exchange(false, std::memory_order_acq_rel)) {
    // Tear the freshest record mid-frame, as if the power cut during the
    // append: replay stops at the damaged frame and recovery truncates it.
    const std::size_t size = monitor_wal_.size_bytes();
    if (size > 0) monitor_wal_.TruncateTail(std::min<std::size_t>(size, 5));
    // The same cut hits every persistent local store mid-append: rip a few
    // bytes off each engine WAL so Recover()'s per-store Reopen must
    // detect and truncate the torn group-commit frames too (no-op on the
    // memory backend).
    for (auto& server : servers_) server->local().TearWalTail(5);
  }
  crashed_.store(true, std::memory_order_release);
  crashes_injected_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void FunctionalCluster::JournalPlacementLocked() {
  WalRecord record;
  record.type = WalRecordType::kPlacementSnapshot;
  record.owners = scheme_.subtree_owners();
  record.version = monitor_.version();
  monitor_wal_.Append(record);
}

void FunctionalCluster::JournalCapacitiesLocked() {
  WalRecord record;
  record.type = WalRecordType::kCapacitySnapshot;
  record.capacities = capacities_.capacities;
  monitor_wal_.Append(record);
}

void FunctionalCluster::RestoreAppliedPullsLocked(MdsId mds) {
  std::vector<std::uint64_t> applied;
  for (const WalRecord& r : mds_wals_[mds]->Replay())
    if (r.type == WalRecordType::kPullApplied) applied.push_back(r.txn_id);
  servers_[mds]->RestoreAppliedPulls(applied);
}

void FunctionalCluster::NoteTransferLocked(MdsId to, std::uint64_t id,
                                           std::size_t count,
                                           bool applied_now) {
  if (!applied_now) {
    duplicate_pulls_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  WalRecord applied;
  applied.type = WalRecordType::kPullApplied;
  applied.txn_id = id;
  applied.count = count;
  mds_wals_[to]->Append(applied);
}

void FunctionalCluster::SweepGlReplicasLocked() {
  const std::uint64_t master = monitor_.version();
  for (const auto& server : servers_)
    if (server->alive() && server->gl_version() != master)
      RebuildGlReplicaLocked(server->id());
}

void FunctionalCluster::RebuildGlReplicaLocked(MdsId mds) {
  const std::uint64_t master = monitor_.version();
  MetadataStore& replica = servers_[mds]->global_replica();
  replica.Clear();
  // Donor: the live replica that has seen the newest GL version (0: it
  // holds nothing yet). Even it may lag the master, when a lock grant was
  // answered into a lost leg and the version it handed out never applied,
  // but an acked write has reached every live replica, so it has them all.
  const MdsServer* donor = nullptr;
  for (const auto& server : servers_) {
    if (server->id() != mds && server->alive() && server->gl_version() > 0 &&
        (donor == nullptr || server->gl_version() > donor->gl_version()))
      donor = server.get();
  }
  Message rebuild{.type = MsgType::kGlCommit};
  if (donor != nullptr) {
    const auto snapshot = donor->global_replica().Snapshot();
    rebuild.payload_records = snapshot.size();
    replica.InsertAll(snapshot);
  } else {
    // No live replica to copy from: re-materialize from the backing store
    // (update history is lost, but the namespace itself is durable).
    rebuild.payload_records = services_[mds]->LoadGlReplica();
  }
  // The bulk transfer rides the wire (donor replica, else the Monitor's
  // backing store); the rebuild itself is fenced by the placement epoch,
  // so an undeliverable leg only loses the latency, not the data.
  AccountControl(transport_->SendReliable(
      donor != nullptr ? MdsAddress(donor->id()) : MonitorAddress(),
      MdsAddress(mds), rebuild));
  servers_[mds]->set_gl_version(master);
}

FunctionalCluster::ClientResult FunctionalCluster::StatAt(NodeId target,
                                                          MdsId at) {
  ClientResult out;
  if (crashed_.load(std::memory_order_acquire) ||
      parked_nodes_.contains(target)) {
    // The metadata service is down (crash armed and fired), or the
    // target's subtree is parked mid-handoff in the pending pool: nobody
    // may answer until Recover() / the re-issued pull lands.
    out.hops = 0;  // nothing was contacted
    return Unavailable(out, DeliveryError::kUndeliverable);
  }
  out.hops = 1;
  out.served_by = at;
  bool failed_over = false;

  const Message req{.type = MsgType::kStatRequest, .target = target};
  Message resp;
  Delivery d = transport_->Call(ClientAddress(), MdsAddress(at), req, &resp);
  out.sim_latency_us += d.latency_us;
  if (!d.delivered) {
    // The contact failed — a dead server (undeliverable) or a lost leg
    // (timeout): the client invalidates its cached route and retries once
    // against the authoritative placement (bounded failover).
    failover_redirects_.fetch_add(1, std::memory_order_relaxed);
    failed_over = true;
    out.net_error = d.error;
    const MdsId owner = assignment_.OwnerOf(target);
    const MdsId retry = owner == kReplicated ? AnyAliveLocked() : owner;
    if (!AliveLocked(retry)) {
      // The authoritative owner is down too: nobody can answer until an
      // adjustment round re-places the orphaned subtree.
      out.status = MdsStatus::kUnavailable;
      out.op_class = OpClass::kFailover;
      return out;
    }
    at = retry;
    out.hops = 2;
    out.served_by = at;
    d = transport_->Call(ClientAddress(), MdsAddress(at), req, &resp);
    out.sim_latency_us += d.latency_us;
    if (!d.delivered) {
      // One failover is the bound — a second lost leg means the op fails.
      out.status = MdsStatus::kUnavailable;
      out.op_class = OpClass::kFailover;
      out.net_error = d.error;
      return out;
    }
  }

  if (resp.status == MdsStatus::kWrongServer) {
    // The entry server cannot serve the target: it forwards the request
    // to the authoritative owner (the 1-jump of Def. 1).
    ++forwards_;
    const MdsId owner = assignment_.OwnerOf(target);
    const MdsId retry = owner == kReplicated ? at : owner;
    if (retry != at) {
      ++out.hops;
      ++out.jumps;
      out.served_by = retry;
      if (!AliveLocked(retry)) {
        // Owner crashed and its subtree has not been re-placed yet.
        return Unavailable(out, DeliveryError::kUndeliverable);
      }
      const Message fwd{.type = MsgType::kForward, .target = target};
      const Delivery leg =
          transport_->Call(MdsAddress(at), MdsAddress(retry), fwd, &resp);
      out.sim_latency_us += leg.latency_us;
      if (!leg.delivered) {
        // The forward was lost between servers; the client times out and
        // gives up (its next attempt would go straight to the owner).
        return Unavailable(out, leg.error);
      }
    }
  }

  out.status = resp.status;
  out.record = resp.record;
  out.op_class = failed_over                        ? OpClass::kFailover
                 : assignment_.IsReplicated(target) ? OpClass::kGlHit
                 : out.jumps == 0                   ? OpClass::kLl0Jump
                                                    : OpClass::kLl1Jump;
  return out;
}

FunctionalCluster::ClientResult FunctionalCluster::Stat(
    const std::string& path) {
  NodeId target;
  std::uint64_t entropy;
  {
    MutexLock lock(&client_mu_);
    target = tree_.Resolve(path);
    if (target == kInvalidNode) return {};
    tree_.AddAccess(target);
    entropy = rng_();
  }
  ReaderMutexLock topo(&topo_mu_);
  const RouteDecision route =
      DecideRoute(tree_, scheme_.local_index(), target);
  // Entry for GL-resident targets: any server (picked under the placement
  // lock, since AddServer may grow the cluster concurrently).
  const MdsId fallback = static_cast<MdsId>(entropy % servers_.size());
  return StatAt(target, route.owner.value_or(fallback));
}

FunctionalCluster::ClientResult FunctionalCluster::StatVia(
    const std::string& path, MdsId via) {
  NodeId target;
  {
    MutexLock lock(&client_mu_);
    target = tree_.Resolve(path);
    if (target == kInvalidNode) return {};
    tree_.AddAccess(target);
  }
  ReaderMutexLock topo(&topo_mu_);
  if (!KnownLocked(via)) {
    // No such server: reject instead of indexing servers_ out of range.
    ClientResult out;
    out.status = MdsStatus::kUnavailable;
    out.served_by = via;
    out.hops = 0;  // nothing was contacted
    out.op_class = OpClass::kFailover;
    out.net_error = DeliveryError::kUndeliverable;
    return out;
  }
  return StatAt(target, via);
}

FunctionalCluster::ClientResult FunctionalCluster::Update(
    const std::string& path, std::uint64_t mtime) {
  ClientResult out;
  NodeId target;
  {
    MutexLock lock(&client_mu_);
    target = tree_.Resolve(path);
    if (target == kInvalidNode) return out;
    tree_.AddAccess(target);
  }

  ReaderMutexLock topo(&topo_mu_);
  if (crashed_.load(std::memory_order_acquire) ||
      parked_nodes_.contains(target)) {
    // Service crashed, or the target's subtree is parked mid-handoff.
    return Unavailable(out, DeliveryError::kUndeliverable);
  }
  const RouteDecision route = DecideRoute(tree_, scheme_.local_index(), target);
  // A local-layer write has a single authority, its owner. A global-layer
  // write enters at any live replica, which coordinates the locked,
  // versioned round (Sec. IV-A3) and acks once every live replica has it;
  // dead replicas catch up via the rebuild at revive.
  const MdsId at = route.gl_resident() ? AnyAliveLocked() : *route.owner;
  out.served_by = at;
  if (!AliveLocked(at)) {
    // With the owner down the client can only invalidate its cache and
    // report the outage.
    return Unavailable(out, DeliveryError::kUndeliverable);
  }
  const Message req{
      .type = MsgType::kUpdateRequest, .target = target, .mtime = mtime};
  Message resp;
  const Delivery d =
      transport_->Call(ClientAddress(), MdsAddress(at), req, &resp);
  out.sim_latency_us += d.latency_us;
  if (!d.delivered) return Unavailable(out, d.error);
  out.status = resp.status;
  out.record = resp.record;
  if (resp.status == MdsStatus::kUnavailable) {
    // The GL round could not finish (lock unobtainable, the service
    // crashed mid-round, or a replica never acked): not acknowledged.
    out.op_class = OpClass::kFailover;
    return out;
  }
  if (route.gl_resident() && resp.status == MdsStatus::kOk) ++gl_updates_;
  out.op_class = route.gl_resident() ? OpClass::kGlHit : OpClass::kLl0Jump;
  return out;
}

FunctionalCluster::RenameResult FunctionalCluster::Rename(
    const std::string& path, const std::string& new_name) {
  return RenameImpl(path, new_name, std::nullopt);
}

FunctionalCluster::RenameResult FunctionalCluster::RenameTo(
    const std::string& path, const std::string& new_name, MdsId dest) {
  return RenameImpl(path, new_name, dest);
}

bool FunctionalCluster::ApplyRenameLocked(NodeId id,
                                          const std::string& new_name) {
  if (tree_.node(id).name == new_name) return true;  // already applied
  if (tree_.FindChild(tree_.node(id).parent, new_name) != kInvalidNode)
    return false;  // a later transaction took the name; keep its outcome
  tree_.Rename(id, new_name);
  return true;
}

FunctionalCluster::RenameResult FunctionalCluster::RenameImpl(
    const std::string& path, const std::string& new_name,
    std::optional<MdsId> dest_opt) {
  RenameResult out;
  const auto fail = [&out](MdsStatus status) {
    out.status = status;
    return out;
  };
  // A rename is a placement-epoch transition, not a data-plane op: it
  // freezes popularity charging and holds the placement lock exclusively
  // for the whole transaction, exactly like an adjustment round (lock
  // order client_mu_ → topo_mu_), so clients never observe a
  // half-renamed namespace.
  MutexLock client(&client_mu_);
  WriterMutexLock topo(&topo_mu_);
  if (crashed_.load(std::memory_order_acquire))
    return fail(MdsStatus::kUnavailable);
  const NodeId target = tree_.Resolve(path);
  if (target == kInvalidNode) return out;  // kNotFound
  if (target == tree_.root() || new_name.empty() ||
      new_name.find('/') != std::string::npos)
    return fail(MdsStatus::kNotPermitted);
  const NodeId sibling = tree_.FindChild(tree_.node(target).parent, new_name);
  // Renaming to the current name is a no-op; a sibling collision is not.
  if (sibling == target) return fail(MdsStatus::kOk);
  if (sibling != kInvalidNode) return fail(MdsStatus::kNotPermitted);
  // Pinned to an in-flight handoff: nobody may touch the subtree until
  // the parked pull lands or aborts.
  if (parked_nodes_.contains(target)) return fail(MdsStatus::kUnavailable);
  tree_.AddAccess(target);  // a rename charges popularity like any access

  const RenameRoute route =
      DecideRenameRoute(tree_, scheme_.local_index(), target);
  const MdsId src = route.owner.value_or(kReplicated);
  MdsId dst = src;
  if (dest_opt.has_value()) {
    dst = *dest_opt;
    // Re-homing is only meaningful at the unit of distribution (a
    // registered local-layer subtree root), and onto a live server.
    if (route.gl_resident() || !route.subtree_root || !KnownLocked(dst))
      return fail(MdsStatus::kNotPermitted);
    if (!AliveLocked(dst)) return fail(MdsStatus::kUnavailable);
  }
  const bool cross = dst != src;
  out.cross_server = cross;

  // Coordinator: the source owner when it lives; the destination when a
  // cross-server rename drains a crashed owner (its records are recovered
  // from the backing store below); any replica for a GL-resident target.
  MdsId coord;
  if (route.gl_resident()) {
    coord = AnyAliveLocked();
    if (coord < 0) return fail(MdsStatus::kUnavailable);
  } else if (AliveLocked(src)) {
    coord = src;
  } else if (cross) {
    coord = dst;
  } else {
    // In-place rename needs its single write authority.
    failover_redirects_.fetch_add(1, std::memory_order_relaxed);
    return fail(MdsStatus::kUnavailable);
  }

  // Request leg; a lost leg fails the op before anything was journaled.
  const Message req{.type = MsgType::kRenameRequest, .target = target};
  const Delivery d = transport_->Send(ClientAddress(), MdsAddress(coord), req);
  out.sim_latency_us += d.latency_us;
  if (!d.delivered) {
    failover_redirects_.fetch_add(1, std::memory_order_relaxed);
    return fail(MdsStatus::kUnavailable);
  }
  // --- INTENT: the transaction exists, nothing changed. Crash in this
  // window → Recover() rolls it back (journaled abort).
  Txn txn =
      BeginTxnLocked(target, src, dst, new_name, tree_.node(target).name);
  out.rename_id = txn.intent.txn_id;
  if (MaybeCrash(CrashSite::kAfterIntent)) return fail(MdsStatus::kUnavailable);
  // --- PREPARE: a cross-server rename extracts the subtree from the
  // source; an in-place one extracts nothing. From here the transaction
  // rolls *forward* after a crash.
  ExtractTxnLocked(txn);
  if (MaybeCrash(CrashSite::kAfterPrepare))
    return fail(MdsStatus::kUnavailable);
  // --- GL WRITE (GL-resident target only): the coordinator's locked,
  // versioned round renames every live replica, the new name riding
  // Message::name; the lock grant bumps (and journals) the GL version. The
  // transaction runs at the coordinator, so it invokes the handler there
  // directly; the legs of the round are priced on this thread's clock. A
  // round that applied nothing (no lock, or fenced out by a newer write)
  // aborts; once the coordinator applied, the rename rolls forward and a
  // peer that never acked is rebuilt below, like a missed announcement.
  std::uint64_t version = 0;
  if (route.gl_resident()) {
    const double round_start = Transport::ThreadClockUs();
    const Message round = services_[coord]->Handle(
        ClientAddress(), Message{.type = MsgType::kRenameRequest,
                                 .target = target,
                                 .name = new_name});
    out.sim_latency_us += Transport::ThreadClockUs() - round_start;
    if (round.migration_id == 0) {
      AbortTxnLocked(txn);
      return fail(MdsStatus::kUnavailable);
    }
    version = round.migration_id;
  }
  // --- TRANSFER (cross-server only), on the direct source → destination
  // leg. A rename is a synchronous client-facing op, so an undeliverable
  // leg aborts the transaction and restores the source — nothing parks.
  if (cross && !DeliverTxnLocked(txn, MdsAddress(src))) {
    AbortTxnLocked(txn);
    return fail(MdsStatus::kUnavailable);
  }
  // --- APPLY: the backing tree takes the new name (idempotent — recovery
  // and journal replay re-apply it). Crash in this window → roll forward.
  ApplyRenameLocked(target, new_name);
  if (cross) {
    out.records_moved = txn.records.size();
  } else if (!route.gl_resident()) {
    // In-place local-layer rename: rewrite the record at its owner. (A
    // GL-resident rename rewrote every live replica in its GL round.)
    auto rec = servers_[src]->local().Get(target);
    if (rec.has_value()) {
      rec->name = new_name;
      ++rec->version;
      servers_[src]->local().Put(*rec);
    }
  }
  if (MaybeCrash(CrashSite::kAfterApply)) return fail(MdsStatus::kUnavailable);

  // --- COMMIT: the GL master version has bumped (a GL rename's grant; for
  // a local-layer rename the Monitor bumps it here, journaled, and the
  // coordinator announces it to every replica in a record-less kGlCommit)
  // so every cached client index and lease invalidates; then the commit
  // record flips ownership and makes the transaction terminal. Crash after
  // the commit record → replay is idempotent.
  if (!route.gl_resident()) {
    version = monitor_.BumpVersion(target);
    const double fanout_start = Transport::ThreadClockUs();
    (void)services_[coord]->Replicate(Message{
        .type = MsgType::kGlCommit, .target = target, .migration_id = version});
    out.sim_latency_us += Transport::ThreadClockUs() - fanout_start;
  }
  // A live replica the round or the announcement missed lags the master
  // version: rebuild it from one that has it.
  SweepGlReplicasLocked();
  CommitTxnLocked(txn, version);
  // Crash here: durable but unacknowledged — the client sees an outage;
  // replaying the journaled commit is a no-op.
  if (MaybeCrash(CrashSite::kAfterCommit))
    return fail(MdsStatus::kUnavailable);

  const Message resp{.type = MsgType::kRenameResponse,
                     .target = target,
                     .status = MdsStatus::kOk,
                     .migration_id = txn.intent.txn_id};
  const Delivery back =
      transport_->Send(MdsAddress(coord), ClientAddress(), resp);
  out.sim_latency_us += back.latency_us;
  if (!back.delivered) {
    // Committed but unacknowledged: the client sees a timeout.
    failover_redirects_.fetch_add(1, std::memory_order_relaxed);
    return fail(MdsStatus::kUnavailable);
  }
  return fail(MdsStatus::kOk);
}

std::size_t FunctionalCluster::CheckPathIntegrity(std::string* error) const {
  // Names mutate only under client_mu_ + exclusive topo_mu_ (the rename
  // transaction's hold), so holding client_mu_ alone fences this audit
  // against every writer.
  MutexLock client(&client_mu_);
  std::size_t violations = 0;
  for (NodeId id = 0; id < tree_.size(); ++id) {
    const std::string path = tree_.PathOf(id);
    const NodeId resolved = tree_.Resolve(path);
    if (resolved != id) {
      ++violations;
      if (error != nullptr && violations == 1)
        *error = "path " + path + " resolves to node " +
                 std::to_string(resolved) + ", expected " + std::to_string(id);
    }
  }
  return violations;
}

bool FunctionalCluster::KillServer(MdsId mds) {
  WriterMutexLock topo(&topo_mu_);
  if (!AliveLocked(mds)) return false;
  if (AliveCountLocked() <= 1) return false;  // keep the namespace reachable
  servers_[mds]->set_alive(false);
  BindLocked(mds, false);  // a crashed server answers nothing
  // A crash loses the volatile stores *and* the in-memory pull-dedup set;
  // orphaned local records are recovered from the backing store when
  // their subtrees are re-placed, the dedup set from the server's WAL at
  // revive. A persistent local store keeps its durable state — memtable
  // gone, WAL replayed — exactly what a SIGKILL leaves behind.
  servers_[mds]->LoseVolatileState(store_spec_.persistent());
  return true;
}

bool FunctionalCluster::ReviveServer(MdsId mds) {
  WriterMutexLock topo(&topo_mu_);
  if (!KnownLocked(mds) || servers_[mds]->alive()) return false;
  // Replica first, liveness second: the server never serves a stale or
  // empty global layer.
  RebuildGlReplicaLocked(mds);
  // Fast restart: if the crash window closed before any adjustment round,
  // this server is still the assigned owner of its subtrees — once alive
  // again nobody would re-place them, so their records come back with it,
  // re-materialized from the backing store; whatever was re-placed while
  // it was dead must not resurface here as a second copy.
  recovered_records_.fetch_add(services_[mds]->LoadShard(parked_nodes_),
                               std::memory_order_relaxed);
  // The pull-dedup set is volatile; rebuild it from this server's journal
  // so a pull retransmitted across the crash is still dropped.
  RestoreAppliedPullsLocked(mds);
  servers_[mds]->set_heartbeats_suppressed(false);
  servers_[mds]->set_alive(true);
  BindLocked(mds, true);
  return true;
}

MdsId FunctionalCluster::AddServer(double capacity) {
  WriterMutexLock topo(&topo_mu_);
  const MdsId id = static_cast<MdsId>(servers_.size());
  servers_.push_back(std::make_unique<MdsServer>(id, ServerStoreSpec(id)));
  services_.push_back(std::make_unique<MdsService>(
      *servers_.back(), tree_, assignment_, *transport_,
      [this, id] { return GlPeersOf(id); }));
  mds_wals_.push_back(std::make_unique<Wal>());
  capacities_.capacities.push_back(capacity);
  // Membership change is a control-plane transition: checkpoint the new
  // capacity vector so recovery plans with the grown cluster.
  JournalCapacitiesLocked();
  RebuildGlReplicaLocked(id);
  BindLocked(id, true);
  return id;
}

bool FunctionalCluster::SetHeartbeatSuppressed(MdsId mds, bool suppressed) {
  WriterMutexLock topo(&topo_mu_);
  if (!KnownLocked(mds)) return false;
  servers_[mds]->set_heartbeats_suppressed(suppressed);
  return true;
}

bool FunctionalCluster::SetClientLinkDrop(MdsId mds, double probability) {
  WriterMutexLock topo(&topo_mu_);
  if (!KnownLocked(mds)) return false;
  return transport_->SetLinkDropRate(ClientAddress(), MdsAddress(mds),
                                     probability);
}

bool FunctionalCluster::SetMonitorPartition(MdsId mds, bool partitioned) {
  WriterMutexLock topo(&topo_mu_);
  if (!KnownLocked(mds)) return false;
  return transport_->SetPartitioned(MonitorAddress(), MdsAddress(mds),
                                    partitioned);
}

void FunctionalCluster::JournalTxn(const WalRecord& intent,
                                   WalRecordType type, std::uint64_t count,
                                   std::uint64_t version) {
  WalRecord record = intent;
  record.type = type;
  record.count = count;
  record.version = version;
  monitor_wal_.Append(record);
  if (intent.name.empty()) return;
  if (type == WalRecordType::kTxnCommit)
    renames_committed_.fetch_add(1, std::memory_order_relaxed);
  else if (type == WalRecordType::kTxnAbort)
    renames_aborted_.fetch_add(1, std::memory_order_relaxed);
}

FunctionalCluster::Txn FunctionalCluster::BeginTxnLocked(
    NodeId root, MdsId from, MdsId to, std::string name,
    std::string prev_name) {
  Txn txn;
  txn.intent.type = WalRecordType::kTxnIntent;
  txn.intent.txn_id = next_txn_id_++;
  txn.intent.root = root;
  txn.intent.from = from;
  txn.intent.to = to;
  txn.intent.name = std::move(name);
  txn.intent.prev_name = std::move(prev_name);
  monitor_wal_.Append(txn.intent);
  return txn;
}

void FunctionalCluster::ExtractTxnLocked(Txn& txn) {
  const WalRecord& intent = txn.intent;
  if (intent.from != intent.to) {
    txn.members.reserve(tree_.SubtreeSize(intent.root));
    tree_.VisitSubtree(intent.root,
                       [&](NodeId v) { txn.members.push_back(v); });
    if (KnownLocked(intent.from))
      txn.records = servers_[intent.from]->local().ExtractAll(txn.members);
    if (txn.records.size() < txn.members.size()) {
      // Crash recovery: whatever the failed owner lost is rebuilt from
      // the backing store before the subtree lands on its new server.
      std::unordered_set<NodeId> extracted;
      extracted.reserve(txn.records.size());
      for (const InodeRecord& r : txn.records) extracted.insert(r.id);
      for (NodeId v : txn.members)
        if (!extracted.contains(v))
          txn.records.push_back(MakeRecord(tree_, v));
      recovered_records_.fetch_add(txn.members.size() - extracted.size(),
                                   std::memory_order_relaxed);
    }
    // A rename's records land post-rename: the in-flight copy carries the
    // new name (a sealed table is linked in at the destination untouched).
    if (!intent.name.empty())
      for (InodeRecord& r : txn.records)
        if (r.id == intent.root) {
          r.name = intent.name;
          ++r.version;
        }
  }
  // The records are now parked in the pending pool — durable by
  // construction (the backing store can always regenerate them), so from
  // here the transaction rolls *forward* after a crash.
  JournalTxn(intent, WalRecordType::kTxnPrepare, txn.records.size());
}

bool FunctionalCluster::DeliverTxnLocked(Txn& txn, const Address& sender) {
  const std::uint64_t id = txn.intent.txn_id;
  const MdsId to = txn.intent.to;
  // With a persistent backend the subtree travels as one sealed SSTable
  // (under <data_dir>/ship) the destination ingests by file link-in;
  // otherwise the pull carries the records. A seal failure (disk trouble)
  // silently degrades to the per-record path.
  if (txn.table.empty() && store_spec_.persistent() && !txn.records.empty()) {
    const std::string ship = store_spec_.data_dir + "/ship";
    std::error_code ec;
    std::filesystem::create_directories(ship, ec);
    txn.table = ship + "/txn" + std::to_string(id) + ".sst";
    if (!WriteRecordsTable(txn.records, txn.table)) {
      std::filesystem::remove(txn.table, ec);
      txn.table.clear();
    }
  }
  const Message pull{.type = txn.table.empty() ? MsgType::kPendingPoolPull
                                               : MsgType::kBulkTable,
                     .target = txn.intent.root,
                     .payload_records = txn.records.size(),
                     .migration_id = id,
                     .name = txn.table};
  if (!SendControl(sender, MdsAddress(to), pull, control_policy_, id))
    return false;
  // The pull may be a re-delivery of one the destination already applied
  // (e.g. its ack was the lost leg): dedup on the txn id decides.
  NoteTransferLocked(
      to, id, txn.records.size(),
      txn.table.empty() ? servers_[to]->ApplyPull(id, txn.records)
                        : servers_[to]->ApplyPullTable(id, txn.table));
  if (!txn.table.empty()) {
    bulk_tables_shipped_.fetch_add(1, std::memory_order_relaxed);
    bulk_records_shipped_.fetch_add(txn.records.size(),
                                    std::memory_order_relaxed);
    std::error_code ec;
    std::filesystem::remove(txn.table, ec);  // the engine link-in holds it
    txn.table.clear();
  }
  return true;
}

void FunctionalCluster::CommitTxnLocked(const Txn& txn,
                                        std::uint64_t version) {
  JournalTxn(txn.intent, WalRecordType::kTxnCommit, 0, version);
  if (txn.intent.from == txn.intent.to) return;
  // Ownership flips at the unit of distribution. An adjustment round's
  // planner already points at `to`; a rename's re-home flips it here.
  scheme_.SetSubtreeOwner(
      SubtreeIndexOf(scheme_.layers().subtrees, txn.intent.root),
      txn.intent.to);
  for (NodeId v : txn.members) {
    assignment_.owner[v] = txn.intent.to;
    parked_nodes_.erase(v);
  }
}

void FunctionalCluster::AbortTxnLocked(Txn& txn) {
  JournalTxn(txn.intent, WalRecordType::kTxnAbort);
  if (!txn.table.empty()) {
    std::error_code ec;
    std::filesystem::remove(txn.table, ec);
  }
  for (NodeId v : txn.members) parked_nodes_.erase(v);
  const MdsId owner = assignment_.OwnerOf(txn.intent.root);
  if (txn.records.empty() || !AliveLocked(owner)) return;
  for (InodeRecord& r : txn.records)
    if (r.id == txn.intent.root && !txn.intent.prev_name.empty()) {
      r.name = txn.intent.prev_name;  // undo the pre-applied rename
      --r.version;
    }
  servers_[owner]->local().InsertAll(txn.records);
}

std::size_t FunctionalCluster::CompleteParkedLocked() {
  std::size_t moved = 0;
  std::vector<Txn> still_parked;
  for (Txn& txn : parked_) {
    if (!AliveLocked(txn.intent.to)) {
      // The grantee died while the pull was parked: abort the handoff.
      // The subtree is re-placed through the pending pool like any orphan
      // (its planner owner still points at the dead grantee).
      AbortTxnLocked(txn);
    } else if (!DeliverTxnLocked(txn, MonitorAddress())) {
      still_parked.push_back(std::move(txn));  // link still down
    } else {
      CommitTxnLocked(txn);
      moved += txn.records.size();
    }
  }
  parked_ = std::move(still_parked);
  return moved;
}

std::size_t FunctionalCluster::RunAdjustmentRound() {
  // Freeze popularity charging, then enter an exclusive placement epoch:
  // no client routes or touches a store while records are in flight
  // between servers (lock order: client_mu_ → topo_mu_).
  MutexLock client(&client_mu_);
  WriterMutexLock topo(&topo_mu_);
  if (crashed_.load(std::memory_order_acquire)) return 0;

  // Any live server whose GL replica lags the master (revived or added
  // under unusual interleavings, or a GL commit lost on the wire) is
  // rebuilt before it can take subtree traffic.
  SweepGlReplicasLocked();

  // Re-issue the pull of any transaction a partition parked in an earlier
  // round (dedup on the txn id makes a re-delivery safe).
  std::size_t moved_records = CompleteParkedLocked();

  const MdsCluster effective = CollectHeartbeats();
  if (effective.TotalCapacity() <= 0.0)
    return moved_records;  // nobody can take load
  JournalCapacitiesLocked();

  tree_.RecomputeSubtreePopularity();
  const auto owners_before = scheme_.subtree_owners();
  const RebalanceResult plan =
      scheme_.Rebalance(tree_, effective, assignment_);
  const auto& owners_after = scheme_.subtree_owners();
  const auto& subtrees = scheme_.layers().subtrees;

  // Physically move each migrated subtree's records as one transaction:
  // INTENT (planned, nothing moved) → PREPARE (records extracted into the
  // pending pool) → pull delivered + applied (the receiver journals it) →
  // COMMIT. A crash between any two steps lands on exactly one side:
  // intent-only rolls back, prepared-or-later rolls forward — never a
  // duplicate, never an orphan.
  std::vector<std::size_t> repinned;
  for (std::size_t i = 0; i < subtrees.size(); ++i) {
    const MdsId from = owners_before[i];
    const MdsId to = owners_after[i];
    if (from == to) continue;
    if (parked_nodes_.contains(subtrees[i].root)) {
      // In-flight handoff: the subtree stays pinned to its parked grantee
      // until that pull lands or aborts — re-planning it mid-flight would
      // put the same records in two transactions at once.
      scheme_.SetSubtreeOwner(i, from);
      repinned.push_back(i);
      continue;
    }
    Txn txn = BeginTxnLocked(subtrees[i].root, from, to);
    if (MaybeCrash(CrashSite::kAfterIntent)) return moved_records;
    ExtractTxnLocked(txn);
    // The migration is a pending-pool round trip (Sec. IV-B): the donor
    // pushes the subtree into the pool, the Monitor grants it to the
    // puller. An unreachable donor (crashed, or Monitor⇄MDS partition)
    // still drains — its lost records were just recovered above.
    const Message push{.type = MsgType::kPendingPoolPush,
                       .target = subtrees[i].root,
                       .payload_records = txn.records.size(),
                       .migration_id = txn.intent.txn_id};
    if (AliveLocked(from))
      SendControl(MdsAddress(from), MonitorAddress(), push, control_policy_,
                  txn.intent.txn_id);
    if (MaybeCrash(CrashSite::kAfterPrepare)) return moved_records;
    if (!DeliverTxnLocked(txn, MonitorAddress())) {
      // The grant cannot reach the puller (Monitor⇄MDS partition outlasted
      // every retry): park the transaction instead of committing blind.
      // The records wait in the pool (sealed table included), the member
      // nodes answer kUnavailable, and the next round re-issues the pull.
      for (NodeId v : txn.members) parked_nodes_.insert(v);
      parked_.push_back(std::move(txn));
      continue;
    }
    if (MaybeCrash(CrashSite::kAfterApply)) return moved_records;
    CommitTxnLocked(txn);
    if (MaybeCrash(CrashSite::kAfterCommit)) return moved_records;
    moved_records += txn.records.size();
  }
  assignment_ = plan.assignment;
  // A repinned subtree's committed owner is its parked grantee, not the
  // owner this round planned: restore it in the fresh assignment too.
  for (std::size_t i : repinned)
    tree_.VisitSubtree(subtrees[i].root, [&](NodeId v) {
      assignment_.owner[v] = owners_before[i];
    });
  // Round checkpoint: the next recovery replays from this placement plus
  // whatever transaction records follow it.
  JournalPlacementLocked();
  adjustment_rounds_.fetch_add(1, std::memory_order_relaxed);
  return moved_records;
}

bool FunctionalCluster::CheckConsistency(std::string* error) const {
  // Exclusive placement lock: no migration in flight, and no client op —
  // so no GL round — mid-way.
  WriterMutexLock topo(&topo_mu_);
  const auto fail = [&](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  if (crashed_.load(std::memory_order_acquire))
    return fail("metadata service crashed; Recover() before auditing");
  std::vector<const MdsServer*> live;
  for (const auto& server : servers_)
    if (server->alive()) live.push_back(server.get());
  if (live.empty()) return fail("no server is alive");
  // Cross-replica: replicas learn GL writes only from commits, so a lost
  // or misapplied one shows up as a replica that differs from the first.
  const auto first = live.front()->global_replica().Snapshot();
  for (const MdsServer* server : live)
    if (server->global_replica().Snapshot() != first)
      return fail("GL replica on server " + std::to_string(server->id()) +
                  " differs from server " + std::to_string(live.front()->id()));
  // Replica versions (live replicas only; the dead catch up on revive):
  // all at one version, none behind the master.
  const std::uint64_t master = monitor_.version();
  for (const MdsServer* server : live) {
    if (server->gl_version() < master ||
        server->gl_version() != live.front()->gl_version())
      return fail("server " + std::to_string(server->id()) +
                  " GL replica at stale version");
  }
  // Each live server holds what the placement gives it, and no more: so
  // a node whose owner is dead (orphaned until a round re-places it) or
  // parked mid-handoff is held by nobody.
  for (const MdsServer* server : live)
    if (!services_[server->id()]->Audit(parked_nodes_, error)) return false;
  return true;
}

FunctionalCluster::RecoveryReport FunctionalCluster::Recover() {
  // Full quiesce: recovery rebuilds everything the locks guard.
  MutexLock client(&client_mu_);
  WriterMutexLock topo(&topo_mu_);
  RecoveryReport report;
  // Disarm any crash that was planted but never tripped: recovery restarts
  // the service from its journal, which supersedes a still-pending arm.
  armed_site_.store(-1, std::memory_order_release);
  armed_torn_.store(false, std::memory_order_release);

  // 1. Replay the Monitor WAL; a torn tail (crash mid-append) is detected
  //    by the framing CRC, reported, and truncated so future appends start
  //    on a clean frame boundary.
  WalReplayStats stats;
  const std::vector<WalRecord> journal = monitor_wal_.Replay(&stats);
  report.wal_records_replayed = journal.size();
  report.torn_tail_detected = stats.torn_tail;
  report.torn_bytes_discarded = stats.torn_bytes;
  if (stats.torn_tail) monitor_wal_.TruncateTail(stats.torn_bytes);

  // 2. Fold the journal into placement, capacities, the GL version and
  //    the transaction states — in journal order, so a placement snapshot
  //    overrides the commits before it and a node renamed twice ends at
  //    the later name (each application is idempotent).
  const auto& subtrees = scheme_.layers().subtrees;
  std::vector<MdsId> owners = scheme_.subtree_owners();  // fallback
  const auto transfer = [&](const WalRecord& intent) {
    const std::size_t i = SubtreeIndexOf(subtrees, intent.root);
    if (intent.from != intent.to && i < owners.size()) owners[i] = intent.to;
  };
  std::vector<double> caps;
  std::uint64_t gl_version = 1;
  TxnFold fold;
  for (const WalRecord& r : journal) {
    const TxnFold::Txn* txn = fold.Apply(r);
    if (r.type == WalRecordType::kPlacementSnapshot) {
      if (r.owners.size() == owners.size()) owners = r.owners;
      gl_version = std::max(gl_version, r.version);
    } else if (r.type == WalRecordType::kCapacitySnapshot) {
      caps = r.capacities;
    } else if (r.type == WalRecordType::kGlVersion) {
      gl_version = std::max(gl_version, r.version);
    } else if (r.type == WalRecordType::kTxnCommit && txn != nullptr) {
      if (!txn->intent.name.empty())
        ApplyRenameLocked(txn->intent.root, txn->intent.name);
      transfer(txn->intent);
    }
  }

  // 3. Restart every server from its durable state. A persistent local
  //    store replays its engine WAL with torn-tail truncation (the crash
  //    may have cut a group-commit frame mid-append — MaybeCrash injects
  //    exactly that) and gets its sealed tables back as written; the
  //    pull-dedup sets are rebuilt from each server's own journal, so a
  //    pull retransmitted across the crash is still dropped. Sealed tables
  //    of handoffs in flight at the crash are orphans now.
  const bool persistent = store_spec_.persistent();
  for (auto& server : servers_) {
    const StoreRecoveryInfo info = server->LoseVolatileState(persistent);
    if (info.wal_torn_tail) ++report.store_wals_torn;
    report.store_wal_records_replayed += info.wal_records_replayed;
    server->set_gl_version(0);
    RestoreAppliedPullsLocked(server->id());
  }
  if (persistent) {
    std::error_code ec;
    std::filesystem::remove_all(store_spec_.data_dir + "/ship", ec);
  }
  monitor_.Reset(gl_version);  // leases of rounds the crash cut are void

  // 4. Resolve in-flight transactions. Intent-only: nothing had moved —
  //    journal the abort (a torn PREPARE can demote a rename whose apply
  //    step already ran, so restore the journaled pre-rename name).
  //    Prepared or later: the records were durably parked in the pending
  //    pool and the WAL carries the destination and new name — apply the
  //    rename, re-point ownership, re-deliver the transfer (its records
  //    rematerialize below; the destination's dedup set drops it if it
  //    journaled the pull before the crash), bump the GL version of a
  //    rename (cached client indexes must invalidate) and journal the
  //    commit. Both decisions are idempotent under re-replay (a crash
  //    *during* recovery resolves to the same outcome).
  for (const auto& [id, txn] : fold.txns()) {
    const WalRecord& intent = txn.intent;
    if (txn.state == TxnFold::State::kIntent) {
      if (!intent.prev_name.empty())
        ApplyRenameLocked(intent.root, intent.prev_name);
      JournalTxn(intent, WalRecordType::kTxnAbort);
      ++report.txns_rolled_back;
    } else if (txn.state == TxnFold::State::kPrepared) {
      if (!intent.name.empty()) ApplyRenameLocked(intent.root, intent.name);
      transfer(intent);
      if (intent.from != intent.to && KnownLocked(intent.to))
        NoteTransferLocked(intent.to, id, 0,
                           servers_[intent.to]->ApplyPull(id, {}));
      JournalTxn(intent, WalRecordType::kTxnCommit, 0,
                 intent.name.empty() ? 0 : monitor_.BumpVersion(intent.root));
      ++report.txns_rolled_forward;
    }
  }

  // 5. Rebuild the volatile world at the recovered placement. Every store
  //    was lost in the crash; the namespace itself is durable, so local
  //    records re-materialize from the backing store and GL replicas
  //    rebuild at the recovered master version.
  if (!fold.txns().empty())
    next_txn_id_ = std::max(next_txn_id_, fold.txns().rbegin()->first + 1);
  parked_.clear();
  parked_nodes_.clear();
  if (caps.size() == capacities_.capacities.size())
    capacities_.capacities = caps;
  for (std::size_t i = 0; i < subtrees.size() && i < owners.size(); ++i)
    scheme_.SetSubtreeOwner(i, owners[i]);
  assignment_.owner.assign(tree_.size(), kReplicated);
  assignment_.mds_count = servers_.size();
  for (std::size_t i = 0; i < subtrees.size() && i < owners.size(); ++i) {
    const MdsId owner = owners[i];
    tree_.VisitSubtree(subtrees[i].root,
                       [&](NodeId v) { assignment_.owner[v] = owner; });
  }
  for (const auto& server : servers_) {
    if (!server->alive()) continue;
    RebuildGlReplicaLocked(server->id());
    report.records_rematerialized +=
        services_[server->id()]->LoadShard(parked_nodes_);
  }
  recovered_records_.fetch_add(report.records_rematerialized,
                               std::memory_order_relaxed);
  // Fresh checkpoint: the next crash replays from here instead of from
  // genesis.
  JournalPlacementLocked();
  report.gl_version = monitor_.version();
  crashed_.store(false, std::memory_order_release);
  recoveries_.fetch_add(1, std::memory_order_relaxed);
  return report;
}

}  // namespace d2tree
