#include "d2tree/mds/service.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

namespace d2tree {
namespace {

using SteadyClock = std::chrono::steady_clock;

/// Attempts per leg before a lost answer counts as a failure.
constexpr int kLegTries = 4;
/// How long a coordinator keeps asking for a busy lock: past one lease,
/// so a holder that died mid-round is outlived.
constexpr auto kLockWait =
    std::chrono::microseconds(2 * MonitorService::kLeaseUs);

std::uint64_t SteadyMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          SteadyClock::now().time_since_epoch())
          .count());
}

std::uint64_t AddressKey(const Address& a) {
  return (static_cast<std::uint64_t>(a.kind) << 32) |
         static_cast<std::uint32_t>(a.id);
}

}  // namespace

InodeRecord MakeRecord(const NamespaceTree& tree, NodeId id) {
  const MetaNode& n = tree.node(id);
  InodeRecord r;
  r.id = id;
  r.parent = n.parent;
  r.name = n.name;
  r.type = n.type;
  r.attrs.mode = n.is_directory() ? 0755 : 0644;
  r.attrs.size = n.is_directory() ? 4096 : 1024;
  r.version = 1;
  return r;
}

// --- MdsService -------------------------------------------------------------

MdsService::MdsService(MdsServer& server, const NamespaceTree& tree,
                       const Assignment& assignment, Transport& transport,
                       PeerList peers)
    : server_(server),
      tree_(tree),
      assignment_(assignment),
      transport_(transport),
      peers_(std::move(peers)),
      self_(MdsAddress(server.id())),
      next_token_(static_cast<std::uint64_t>(
          SteadyClock::now().time_since_epoch().count())) {}

Message MdsService::Handle(const Address& from, const Message& req) {
  (void)from;
  Message resp = req;
  resp.status = MdsStatus::kOk;
  switch (req.type) {
    case MsgType::kStatRequest:
    case MsgType::kForward: {
      resp.type = MsgType::kStatResponse;
      if (!Routable(req.target, &resp)) break;
      const MdsOpResult r =
          server_.Stat(req.target, tree_.AncestorsOf(req.target));
      resp.status = r.status;
      resp.record = r.record;
      break;
    }
    case MsgType::kUpdateRequest: {
      resp.type = MsgType::kUpdateResponse;
      if (!Routable(req.target, &resp)) break;
      if (assignment_.IsReplicated(req.target)) {
        WriteGl(req, &resp);
        break;
      }
      const MdsOpResult r = server_.UpdateLocal(
          req.target, tree_.AncestorsOf(req.target), req.mtime);
      resp.status = r.status;
      resp.record = r.record;
      break;
    }
    case MsgType::kRenameRequest:
      // Only a GL-resident node renames in one round; a local-layer rename
      // is a subtree-transfer transaction the Monitor drives (DESIGN.md §7).
      resp.type = MsgType::kRenameResponse;
      if (req.target >= tree_.size() ||
          !assignment_.IsReplicated(req.target) || req.name.empty()) {
        resp.status = MdsStatus::kNotPermitted;
        break;
      }
      WriteGl(req, &resp);
      break;
    case MsgType::kGlCommit:
      // Acked even when fenced out: this replica holds a newer write.
      (void)Apply(req);
      break;
    case MsgType::kHeartbeat:
      break;
    case MsgType::kStatResponse:
    case MsgType::kUpdateResponse:
    case MsgType::kRenameResponse:
    case MsgType::kGlWriteLock:
    case MsgType::kPendingPoolPush:
    case MsgType::kPendingPoolPull:
    case MsgType::kBulkTable:
      resp.status = MdsStatus::kNotPermitted;
      break;
  }
  return resp;
}

bool MdsService::Routable(NodeId target, Message* resp) const {
  if (target >= tree_.size()) {
    resp->status = MdsStatus::kNotFound;
    return false;
  }
  const MdsId owner = assignment_.OwnerOf(target);
  if (owner != kReplicated && owner != server_.id()) {
    resp->status = MdsStatus::kWrongServer;
    resp->peer = owner;
    return false;
  }
  return true;
}

void MdsService::WriteGl(const Message& req, Message* resp) {
  resp->migration_id = 0;
  Message grant;
  if (!AcquireLock(req.target, &grant)) {
    resp->status = MdsStatus::kUnavailable;
    return;
  }
  const bool rename = req.type == MsgType::kRenameRequest;
  const Message commit{.type = MsgType::kGlCommit,
                       .target = req.target,
                       .mtime = rename ? 0 : req.mtime,
                       .payload_records = 1,
                       .migration_id = grant.migration_id,
                       .name = rename ? req.name : std::string{}};
  // Not newer here means a later write got in first (this round outlived
  // its lease) or the Monitor's counter fell behind (it restarted): the
  // write was not ordered, so it goes nowhere and is not acked.
  const bool applied = Apply(commit);
  const bool acked = applied && FanOut(commit);
  // Read back while the lock still keeps other writers of the node out.
  resp->record =
      server_.global_replica().Get(req.target).value_or(InodeRecord{});
  resp->migration_id = applied ? grant.migration_id : 0;
  resp->status = acked ? MdsStatus::kOk : MdsStatus::kUnavailable;
  // The release goes out after the acks but nobody waits for it; a lost
  // one ends with the lease.
  transport_.Post(self_, MonitorAddress(), commit);
}

bool MdsService::AcquireLock(NodeId node, Message* grant) {
  const Message lock{.type = MsgType::kGlWriteLock,
                     .target = node,
                     .migration_id = next_token_.fetch_add(1)};
  const auto start = SteadyClock::now();
  auto backoff = std::chrono::microseconds(10);
  for (int attempt = 1, lost = 0;; ++attempt) {
    const Delivery d = transport_.Call(self_, MonitorAddress(), lock, grant);
    if (!d.delivered) {
      // A lost answer may have granted: asking again is safe, the same
      // round renews its own lease.
      if (d.error != DeliveryError::kTimeout || ++lost == kLegTries)
        return false;
      continue;
    }
    if (grant->status != MdsStatus::kUnavailable ||
        SteadyClock::now() - start > kLockWait)
      break;
    // Busy: another round holds the node. A round lasts a few message
    // times, so the first retries go out at once (over a socket each
    // one is itself a round trip); a longer wait backs off.
    if (attempt < kLegTries) {
      std::this_thread::yield();
      continue;
    }
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, std::chrono::microseconds(1000));
  }
  lock_wait_ns_.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              SteadyClock::now() - start)
              .count()),
      std::memory_order_relaxed);
  return grant->status == MdsStatus::kOk;
}

bool MdsService::Apply(const Message& commit) {
  server_.AdvanceGlVersion(commit.migration_id);
  return server_.global_replica().ApplyVersioned(
      commit.target, commit.migration_id, commit.mtime, commit.name);
}

bool MdsService::Replicate(const Message& commit) {
  (void)Apply(commit);
  return FanOut(commit);
}

bool MdsService::FanOut(const Message& commit) {
  std::vector<Address> pending;
  for (const MdsId peer : peers_()) pending.push_back(MdsAddress(peer));
  // Lost or busy legs are resent (the version fence makes a repeat
  // harmless); a leg to an unreachable peer is dropped.
  for (int attempt = 0; attempt < kLegTries && !pending.empty(); ++attempt) {
    std::vector<Message> acks;
    const std::vector<Delivery> legs =
        transport_.CallAll(self_, pending, commit, &acks);
    std::vector<Address> again;
    for (std::size_t i = 0; i < legs.size(); ++i) {
      const bool acked = legs[i].delivered && acks[i].status == MdsStatus::kOk;
      if (!acked && legs[i].error != DeliveryError::kUndeliverable)
        again.push_back(pending[i]);
    }
    pending = std::move(again);
  }
  return pending.empty();
}

std::size_t MdsService::LoadGlReplica() {
  MetadataStore& replica = server_.global_replica();
  replica.Clear();
  for (NodeId id = 0; id < tree_.size(); ++id)
    if (assignment_.IsReplicated(id)) replica.Put(MakeRecord(tree_, id));
  server_.set_gl_version(MonitorService::kFirstVersion);
  return replica.size();
}

std::size_t MdsService::LoadShard(const std::unordered_set<NodeId>& parked) {
  MetadataStore& local = server_.local();
  const auto mine = [&](NodeId id) {
    return id < tree_.size() && assignment_.OwnerOf(id) == server_.id() &&
           !parked.contains(id);
  };
  // A durable store may reopen on records since migrated away, promoted
  // into the GL, or parked for a re-issued pull: those go.
  for (NodeId held : local.HeldIds())
    if (!mine(held)) local.Remove(held);
  // A kept record keeps its mtime and version; one from before a rename
  // is re-stamped.
  std::size_t filled = 0;
  for (NodeId id = 0; id < tree_.size(); ++id) {
    if (!mine(id)) continue;
    const InodeRecord record = MakeRecord(tree_, id);
    const auto held = local.Get(id);
    if (held.has_value() && held->name == record.name &&
        held->parent == record.parent && held->type == record.type)
      continue;
    local.Put(record);
    ++filled;
  }
  return filled;
}

bool MdsService::Audit(const std::unordered_set<NodeId>& parked,
                       std::string* error) const {
  const MetadataStore& replica = server_.global_replica();
  const MetadataStore& local = server_.local();
  const auto fail = [&](NodeId id, const std::string& what) {
    if (error != nullptr)
      *error = tree_.PathOf(id) + ": " + what + " on server " +
               std::to_string(server_.id());
    return false;
  };
  for (NodeId id = 0; id < tree_.size(); ++id) {
    const bool gl = assignment_.IsReplicated(id);
    // A parked node is mid-handoff: its records wait in the pending pool
    // for the re-issued pull, so nobody may hold it meanwhile.
    const bool mine = !gl && assignment_.OwnerOf(id) == server_.id() &&
                      !parked.contains(id);
    if (!gl && replica.Contains(id)) return fail(id, "LL node in GL replica");
    if (!mine && local.Contains(id))
      return fail(id, gl ? "GL node in local store" : "LL node at non-owner");
    if (!gl && !mine) continue;
    const auto rec = gl ? replica.Get(id) : local.Get(id);
    if (!rec.has_value())
      return fail(id, gl ? "GL node missing" : "LL node missing");
    if (rec->name != tree_.node(id).name ||
        rec->parent != tree_.node(id).parent)
      return fail(id, "record differs from the namespace");
  }
  return true;
}

// --- MonitorService ---------------------------------------------------------

MonitorService::MonitorService(Wal* journal, Clock clock)
    : journal_(journal), clock_(clock ? std::move(clock) : SteadyMicros) {}

Message MonitorService::Handle(const Address& from, const Message& req) {
  Message resp = req;
  resp.status = MdsStatus::kOk;
  const std::uint64_t holder = AddressKey(from);
  switch (req.type) {
    case MsgType::kGlWriteLock: {
      const std::uint64_t now = clock_();
      MutexLock lock(&mu_);
      auto [it, fresh] = leases_.try_emplace(req.target);
      Lease& lease = it->second;
      if (!fresh &&
          (lease.holder != holder || lease.token != req.migration_id)) {
        if (now < lease.expires_us) {
          resp.status = MdsStatus::kUnavailable;  // busy, answered at once
          break;
        }
        fresh = true;  // the previous holder's lease ran out
      }
      if (fresh)
        lease = {holder, req.migration_id, BumpVersionLocked(req.target), 0};
      lease.expires_us = now + kLeaseUs;
      resp.migration_id = lease.version;
      break;
    }
    case MsgType::kGlCommit: {
      // The holder's release: its round's commit, carrying its version.
      MutexLock lock(&mu_);
      const auto it = leases_.find(req.target);
      if (it != leases_.end() && it->second.holder == holder &&
          it->second.version == req.migration_id)
        leases_.erase(it);
      break;
    }
    case MsgType::kHeartbeat:
      break;
    case MsgType::kStatRequest:
    case MsgType::kStatResponse:
    case MsgType::kUpdateRequest:
    case MsgType::kUpdateResponse:
    case MsgType::kForward:
    case MsgType::kPendingPoolPush:
    case MsgType::kPendingPoolPull:
    case MsgType::kRenameRequest:
    case MsgType::kRenameResponse:
    case MsgType::kBulkTable:
      resp.status = MdsStatus::kNotPermitted;
      break;
  }
  return resp;
}

std::uint64_t MonitorService::BumpVersionLocked(NodeId root) {
  ++version_;
  if (journal_ != nullptr) {
    // WAL discipline: the version is durable before any replica can apply
    // it, so recovery rebuilds at (at least) every version handed out.
    WalRecord bump;
    bump.type = WalRecordType::kGlVersion;
    bump.root = root;
    bump.version = version_;
    journal_->Append(bump);
  }
  return version_;
}

std::uint64_t MonitorService::BumpVersion(NodeId root) {
  MutexLock lock(&mu_);
  return BumpVersionLocked(root);
}

std::uint64_t MonitorService::version() const {
  MutexLock lock(&mu_);
  return version_;
}

void MonitorService::Reset(std::uint64_t version) {
  MutexLock lock(&mu_);
  version_ = version;
  leases_.clear();
}

}  // namespace d2tree
