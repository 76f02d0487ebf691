// Tests for the shared server handlers (mds/service.h): the Monitor's
// per-node lease lock and version counter, driven through Handle with a
// fake clock, and the per-node version fence replicas apply commits
// through.
#include <gtest/gtest.h>

#include <cstdint>

#include "d2tree/durability/wal.h"
#include "d2tree/mds/service.h"
#include "d2tree/mds/store.h"

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

}  // namespace
}  // namespace d2tree
