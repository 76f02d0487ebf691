// The server side of the metadata service: one MDS handler and one Monitor
// handler. FunctionalCluster binds them on its transport and reaches its
// servers and Monitor only through Call/CallAll; an mdsd daemon binds one
// of them to its socket. So the fault suites, the crash sweeps and the real
// daemons run one protocol.
//
// A global-layer write is the locked, versioned round of Sec. IV-A3
// (DESIGN.md §6 "Global-layer consistency model"): the coordinator takes
// the node's lease lock from the Monitor, which assigns the version;
// applies the write and fans its kGlCommit out to every peer replica in
// one CallAll; then, after the acks, releases the lock by posting the same
// kGlCommit to the Monitor. A replica applies a commit only if its version
// is newer than the node's stored InodeRecord::version.
//
// MdsService also loads one server from the namespace and audits it; the
// cluster does both for each of its servers, an mdsd daemon for its own.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "d2tree/common/mutex.h"
#include "d2tree/durability/wal.h"
#include "d2tree/mds/server.h"
#include "d2tree/net/transport.h"
#include "d2tree/nstree/tree.h"

namespace d2tree {

/// Node `id`'s record as the namespace defines it, before any write.
InodeRecord MakeRecord(const NamespaceTree& tree, NodeId id);

class MdsService {
 public:
  /// The peers a GL commit must reach: every other live replica.
  using PeerList = std::function<std::vector<MdsId>()>;

  /// `server` answers; `tree` and `assignment` are the shared routing
  /// view, only read here under whatever the caller holds. The lock round
  /// and the commit fan-out ride `transport` from this server's address.
  MdsService(MdsServer& server, const NamespaceTree& tree,
             const Assignment& assignment, Transport& transport,
             PeerList peers);

  /// Stat/Forward/Update/GL rename/kGlCommit/heartbeat. A local-layer
  /// node another server owns answers kWrongServer with `peer` = owner.
  /// A GL write answers its version in `migration_id` once this server
  /// applied it, else 0 (applied nowhere); kUnavailable with a version
  /// means a peer never acked and lags until it is rebuilt.
  Message Handle(const Address& from, const Message& req);

  /// Applies `commit` here and fans it out to every peer, resending lost
  /// legs. True when every reachable peer acked (an unreachable peer is
  /// not a live replica).
  bool Replicate(const Message& commit);

  /// True for the requests Handle answers without waiting on another
  /// call, so a transport may answer them off its worker pool.
  static bool NeverWaits(const Message& req) {
    return req.type == MsgType::kGlCommit;
  }

  /// Wall time this server's GL rounds spent waiting on a busy lock, ns.
  std::uint64_t lock_wait_ns() const noexcept { return lock_wait_ns_.load(); }

  /// Refills the GL replica from the namespace, at
  /// MonitorService::kFirstVersion. Returns the records loaded.
  std::size_t LoadGlReplica();

  /// Brings the local store in line with the placement: drops records
  /// placed elsewhere or `parked`, fills owned ones that are missing or
  /// disagree with the namespace (one that agrees keeps its mtime and
  /// version). Returns the records filled.
  std::size_t LoadShard(const std::unordered_set<NodeId>& parked = {});

  /// Audits this server against the placement: the GL replica holds
  /// exactly the GL nodes, the local store exactly the owned LL nodes but
  /// `parked`, each record as the namespace names it. False fills `error`.
  bool Audit(const std::unordered_set<NodeId>& parked,
             std::string* error) const;

 private:
  /// False (answer filled in) for no such node, or another's LL node.
  bool Routable(NodeId target, Message* resp) const;
  /// The coordinator's round for a GL update or GL rename.
  void WriteGl(const Message& req, Message* resp);
  bool AcquireLock(NodeId node, Message* grant);
  /// Applies a commit to this replica; false if its version is not newer.
  bool Apply(const Message& commit);
  /// Sends `commit` to every peer, resending lost or busy legs.
  bool FanOut(const Message& commit);

  MdsServer& server_;
  const NamespaceTree& tree_;
  const Assignment& assignment_;
  Transport& transport_;
  const PeerList peers_;
  const Address self_;
  /// Names lock rounds; seeded from the clock so a restarted daemon does
  /// not reuse a token a lease of its previous life still holds.
  std::atomic<std::uint64_t> next_token_;
  std::atomic<std::uint64_t> lock_wait_ns_{0};
};

class MonitorService {
 public:
  /// Monotone microseconds; leases expire on this clock.
  using Clock = std::function<std::uint64_t()>;
  /// How long a granted lock stays held without a release or renewal:
  /// as long as a socket call's deadline, so only a dead or cut-off
  /// holder loses its lease, never a round that is merely slow.
  static constexpr std::uint64_t kLeaseUs = 2'000'000;
  /// The version before any GL write.
  static constexpr std::uint64_t kFirstVersion = 1;

  /// `journal`, if set, gets a kGlVersion record for every version the
  /// Monitor assigns, before the grant is answered. `clock` defaults to
  /// the steady clock.
  explicit MonitorService(Wal* journal = nullptr, Clock clock = {});

  /// kGlWriteLock: grant (with the write's version in `migration_id`),
  /// renew for the holding round (same version), or busy (kUnavailable)
  /// at once. kGlCommit from the holder: release. kHeartbeat: ok.
  Message Handle(const Address& from, const Message& req);

  /// Assigns, journals and returns the next GL version without a lock
  /// round (a local-layer rename commit, a recovery roll-forward).
  std::uint64_t BumpVersion(NodeId root);
  std::uint64_t version() const;
  /// Restarts at `version` with no lock held (crash recovery).
  void Reset(std::uint64_t version);

 private:
  struct Lease {
    std::uint64_t holder = 0;  // address key
    std::uint64_t token = 0;   // the holder's round
    std::uint64_t version = 0;
    std::uint64_t expires_us = 0;
  };

  std::uint64_t BumpVersionLocked(NodeId root) D2T_REQUIRES(mu_);

  Wal* const journal_;
  const Clock clock_;
  /// Lock table and version counter (rank 30, DESIGN.md §6); held across
  /// the kGlVersion append so versions reach the journal in order.
  mutable Mutex mu_ D2T_LOCK_RANK(30);
  std::uint64_t version_ D2T_GUARDED_BY(mu_) = kFirstVersion;
  std::unordered_map<NodeId, Lease> leases_ D2T_GUARDED_BY(mu_);
};

}  // namespace d2tree
