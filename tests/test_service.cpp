// Tests for the shared server handlers (mds/service.h): the Monitor's
// per-node lease lock and version counter, driven through Handle with a
// fake clock, the per-node version fence replicas apply commits
// through, and the one-server loader and audit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "d2tree/core/d2tree.h"
#include "d2tree/durability/wal.h"
#include "d2tree/mds/service.h"
#include "d2tree/mds/store.h"
#include "d2tree/net/transport.h"
#include "d2tree/trace/profiles.h"

namespace d2tree {
namespace {

constexpr NodeId kNode = 7;

class MonitorLockTest : public ::testing::Test {
 protected:
  MonitorLockTest() : monitor_(&journal_, [this] { return now_us_; }) {}

  /// One lock request of round `token` from `from`.
  Message Lock(const Address& from, std::uint64_t token, NodeId node = kNode) {
    return monitor_.Handle(from, Message{.type = MsgType::kGlWriteLock,
                                         .target = node,
                                         .migration_id = token});
  }
  /// The release: the round's kGlCommit, carrying its granted version.
  Message Release(const Address& from, std::uint64_t version) {
    return monitor_.Handle(from, Message{.type = MsgType::kGlCommit,
                                         .target = kNode,
                                         .migration_id = version});
  }

  std::uint64_t now_us_ = 1'000;
  Wal journal_;
  MonitorService monitor_;
};

TEST_F(MonitorLockTest, GrantExcludesEveryOtherRound) {
  const Message grant = Lock(MdsAddress(0), 1);
  ASSERT_EQ(grant.status, MdsStatus::kOk);
  EXPECT_GT(grant.migration_id, 1u) << "the grant assigns a fresh version";
  // Busy is answered at once, to another server and to another round of
  // the holder's own server alike.
  EXPECT_EQ(Lock(MdsAddress(1), 1).status, MdsStatus::kUnavailable);
  EXPECT_EQ(Lock(MdsAddress(0), 2).status, MdsStatus::kUnavailable);
  // Other nodes are not locked.
  EXPECT_EQ(Lock(MdsAddress(1), 1, kNode + 1).status, MdsStatus::kOk);
}

TEST_F(MonitorLockTest, HolderRenewsItsLeaseAndKeepsItsVersion) {
  const Message grant = Lock(ClientAddress(), 0);
  ASSERT_EQ(grant.status, MdsStatus::kOk);
  // Renewed before expiry, every time: the lease outlives its first term.
  for (int i = 0; i < 5; ++i) {
    now_us_ += MonitorService::kLeaseUs - 1;
    const Message renewal = Lock(ClientAddress(), 0);
    ASSERT_EQ(renewal.status, MdsStatus::kOk);
    EXPECT_EQ(renewal.migration_id, grant.migration_id);
  }
  EXPECT_EQ(Lock(MdsAddress(1), 9).status, MdsStatus::kUnavailable);
  EXPECT_EQ(monitor_.version(), grant.migration_id)
      << "renewals assign no version";
}

TEST_F(MonitorLockTest, ReleaseFreesTheNodeForTheNextRound) {
  const Message grant = Lock(MdsAddress(0), 1);
  ASSERT_EQ(grant.status, MdsStatus::kOk);
  // A release naming another version, or sent by another server, is not
  // this holder's release.
  EXPECT_EQ(Release(MdsAddress(0), grant.migration_id + 1).status,
            MdsStatus::kOk);
  EXPECT_EQ(Release(MdsAddress(1), grant.migration_id).status,
            MdsStatus::kOk);
  EXPECT_EQ(Lock(MdsAddress(1), 1).status, MdsStatus::kUnavailable);

  EXPECT_EQ(Release(MdsAddress(0), grant.migration_id).status,
            MdsStatus::kOk);
  const Message next = Lock(MdsAddress(1), 1);
  ASSERT_EQ(next.status, MdsStatus::kOk);
  EXPECT_GT(next.migration_id, grant.migration_id);
}

TEST_F(MonitorLockTest, ExpiredLeaseLetsAnotherRoundIn) {
  const Message grant = Lock(MdsAddress(0), 1);
  ASSERT_EQ(grant.status, MdsStatus::kOk);
  now_us_ += MonitorService::kLeaseUs - 1;
  EXPECT_EQ(Lock(MdsAddress(2), 4).status, MdsStatus::kUnavailable);
  now_us_ += 1;  // the holder died mid-round: its lease runs out
  const Message taken = Lock(MdsAddress(2), 4);
  ASSERT_EQ(taken.status, MdsStatus::kOk);
  EXPECT_GT(taken.migration_id, grant.migration_id);
  // The old holder is now the one kept out.
  EXPECT_EQ(Lock(MdsAddress(0), 1).status, MdsStatus::kUnavailable);
}

TEST_F(MonitorLockTest, EveryVersionIsJournaledInOrder) {
  ASSERT_EQ(Lock(MdsAddress(0), 1).status, MdsStatus::kOk);
  ASSERT_EQ(Lock(MdsAddress(1), 1, kNode + 1).status, MdsStatus::kOk);
  const std::uint64_t own = monitor_.BumpVersion(kNode + 2);
  std::vector<std::uint64_t> versions;
  for (const WalRecord& r : journal_.Replay())
    if (r.type == WalRecordType::kGlVersion) versions.push_back(r.version);
  EXPECT_EQ(versions, (std::vector<std::uint64_t>{2, 3, 4}));
  EXPECT_EQ(own, 4u);
  EXPECT_EQ(monitor_.version(), 4u);

  monitor_.Reset(10);  // recovery: the journaled version, no lock held
  EXPECT_EQ(monitor_.version(), 10u);
  EXPECT_EQ(Lock(MdsAddress(2), 3).migration_id, 11u);
}

TEST_F(MonitorLockTest, AnswersOnlyLockCommitAndHeartbeat) {
  EXPECT_EQ(monitor_.Handle(MdsAddress(0), Message{.type = MsgType::kHeartbeat})
                .status,
            MdsStatus::kOk);
  EXPECT_EQ(
      monitor_.Handle(ClientAddress(), Message{.type = MsgType::kStatRequest})
          .status,
      MdsStatus::kNotPermitted);
}

// The fence a replica applies a commit through: only a newer version
// lands, so a commit that arrives late or twice changes nothing.
TEST(ReplicaFence, OnlyANewerVersionLands) {
  MetadataStore replica;
  InodeRecord r;
  r.id = kNode;
  r.name = "etc";
  r.version = 1;
  replica.Put(r);

  EXPECT_TRUE(replica.ApplyVersioned(kNode, 5, /*mtime=*/50, ""));
  EXPECT_FALSE(replica.ApplyVersioned(kNode, 3, /*mtime=*/30, ""))
      << "an older commit arriving late must not overwrite";
  EXPECT_FALSE(replica.ApplyVersioned(kNode, 5, /*mtime=*/51, ""))
      << "a repeated version is a duplicate";
  EXPECT_TRUE(replica.ApplyVersioned(kNode, 6, 0, "etc2"));
  const InodeRecord now = *replica.Get(kNode);
  EXPECT_EQ(now.attrs.mtime, 50u) << "a rename leaves the mtime alone";
  EXPECT_EQ(now.name, "etc2");
  EXPECT_EQ(now.version, 6u);
  EXPECT_FALSE(replica.ApplyVersioned(kNode + 1, 9, 1, ""))
      << "a node the replica does not hold is not created";
}

// One server loaded the way an mdsd daemon loads itself: the loader gives
// it the GL replica and its own shard, and the per-server audit rejects
// each way the server could hold more or less than the placement says.
class ServerAuditTest : public ::testing::Test {
 protected:
  static constexpr MdsId kSelf = 1;

  ServerAuditTest()
      : tree_(GenerateWorkload(LmbeProfile(0.05)).tree),
        assignment_(
            D2TreeScheme{}.Partition(tree_, MdsCluster::Homogeneous(3))),
        server_(kSelf),
        service_(server_, tree_, assignment_, transport_,
                 [] { return std::vector<MdsId>{0, 2}; }) {
    service_.LoadGlReplica();
    service_.LoadShard();
    for (NodeId id = 0; id < tree_.size(); ++id) {
      const MdsId owner = assignment_.OwnerOf(id);
      NodeId& pick = owner == kReplicated ? gl_node_
                     : owner == kSelf     ? own_node_
                                          : peer_node_;
      if (pick == kInvalidNode) pick = id;
    }
  }

  /// The audit's verdict, with its reason in `why_`.
  bool Clean(const std::unordered_set<NodeId>& parked = {}) {
    why_.clear();
    return service_.Audit(parked, &why_);
  }

  NamespaceTree tree_;
  Assignment assignment_;
  InProcessTransport transport_;
  MdsServer server_;
  MdsService service_;
  NodeId gl_node_ = kInvalidNode;
  NodeId own_node_ = kInvalidNode;
  NodeId peer_node_ = kInvalidNode;
  std::string why_;
};

TEST_F(ServerAuditTest, LoadedServerHoldsExactlyItsShare) {
  ASSERT_NE(gl_node_, kInvalidNode);
  ASSERT_NE(own_node_, kInvalidNode);
  ASSERT_NE(peer_node_, kInvalidNode);
  EXPECT_TRUE(Clean()) << why_;
  std::size_t owned = 0;
  for (NodeId id = 0; id < tree_.size(); ++id)
    owned += assignment_.OwnerOf(id) == kSelf;
  EXPECT_EQ(server_.local().size(), owned);
  // Loading again fills nothing: every record already agrees.
  EXPECT_EQ(service_.LoadShard(), 0u);
}

TEST_F(ServerAuditTest, RejectsAMissingOwnRecord) {
  const InodeRecord own = *server_.local().Remove(own_node_);
  EXPECT_FALSE(Clean());
  EXPECT_NE(why_.find("LL node missing"), std::string::npos) << why_;
  server_.local().Put(own);
  EXPECT_TRUE(Clean()) << why_;
}

TEST_F(ServerAuditTest, RejectsAPeersRecord) {
  server_.local().Put(MakeRecord(tree_, peer_node_));
  EXPECT_FALSE(Clean());
  EXPECT_NE(why_.find("non-owner"), std::string::npos) << why_;
  // The loader drops it again.
  service_.LoadShard();
  EXPECT_TRUE(Clean()) << why_;
}

TEST_F(ServerAuditTest, RejectsAGlNodeInTheLocalStore) {
  server_.local().Put(MakeRecord(tree_, gl_node_));
  EXPECT_FALSE(Clean());
  EXPECT_NE(why_.find("GL node in local store"), std::string::npos) << why_;
  server_.local().Remove(gl_node_);
  EXPECT_TRUE(Clean()) << why_;
}

TEST_F(ServerAuditTest, RejectsAGlReplicaMissingANode) {
  const InodeRecord gl = *server_.global_replica().Remove(gl_node_);
  EXPECT_FALSE(Clean());
  EXPECT_NE(why_.find("GL node missing"), std::string::npos) << why_;
  server_.global_replica().Put(gl);
  EXPECT_TRUE(Clean()) << why_;
}

TEST_F(ServerAuditTest, RejectsAnLlNodeInTheGlReplica) {
  server_.global_replica().Put(MakeRecord(tree_, peer_node_));
  EXPECT_FALSE(Clean());
  EXPECT_NE(why_.find("LL node in GL replica"), std::string::npos) << why_;
  service_.LoadGlReplica();
  EXPECT_TRUE(Clean()) << why_;
}

// A parked node is mid-handoff: its owner must not hold it until the
// re-issued pull lands.
TEST_F(ServerAuditTest, ParkedNodeIsHeldByNobody) {
  EXPECT_FALSE(Clean({own_node_}));
  server_.local().Remove(own_node_);
  EXPECT_TRUE(Clean({own_node_})) << why_;
  EXPECT_FALSE(Clean()) << "unparked, the owner must hold it again";
}

}  // namespace
}  // namespace d2tree
