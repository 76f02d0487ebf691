// Atomic cross-MDS renames (DESIGN.md §7), label "rename": a rename is a
// subtree-transfer transaction with a name change — INTENT → PREPARE →
// apply → COMMIT executed against live stores, with a whole-service crash
// planted at every transaction site (torn and intact WAL tails).
// Deterministic per-site semantics first — intent-only rolls back (the
// pre-rename name restored from the journal), prepared-or-later rolls
// forward, a journaled commit replays idempotently, the destination
// dedups re-delivered transfers on the txn id — then the rename-storm
// property sweep: ≥30 random tree shapes × crashes at every transaction
// site through both drivers (rename and adjustment round), each recovery
// d2fsck-clean with exactly one owner resolving the renamed path.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "d2tree/durability/crash_point.h"
#include "d2tree/durability/fsck.h"
#include "d2tree/mds/cluster.h"
#include "d2tree/net/simnet.h"
#include "d2tree/nstree/builder.h"
#include "d2tree/trace/profiles.h"

namespace d2tree {
namespace {

/// The transaction sites: every crash site but the GL-update one.
constexpr CrashSite kTxnSites[] = {
    CrashSite::kAfterIntent,
    CrashSite::kAfterPrepare,
    CrashSite::kAfterApply,
    CrashSite::kAfterCommit,
};

/// Live servers holding `id` in their *local* store — the single-owner
/// invariant every rename must preserve.
std::size_t HoldersOf(const FunctionalCluster& cluster, NodeId id) {
  std::size_t holders = 0;
  for (MdsId k = 0; k < static_cast<MdsId>(cluster.mds_count()); ++k)
    if (cluster.IsServerAlive(k))
      holders += cluster.server(k).local().Contains(id);
  return holders;
}

std::size_t AliveLocalRecords(const FunctionalCluster& cluster) {
  std::size_t total = 0;
  for (MdsId k = 0; k < static_cast<MdsId>(cluster.mds_count()); ++k)
    if (cluster.IsServerAlive(k)) total += cluster.server(k).local().size();
  return total;
}

void ExpectFsckClean(const FunctionalCluster& cluster,
                     const std::string& context) {
  const FsckReport fsck = FsckCluster(cluster);
  EXPECT_TRUE(fsck.clean()) << context << ":\n" << FormatFsckReport(fsck);
  EXPECT_EQ(fsck.txns_in_flight, 0u) << context;
}

class RenameTxnTest : public ::testing::Test {
 protected:
  RenameTxnTest()
      : workload_(GenerateWorkload(DtrProfile(0.05))),
        cluster_(workload_.tree, 4) {
    for (NodeId id = 0; id < workload_.tree.size(); id += 3)
      cluster_.Stat(workload_.tree.PathOf(id));
  }

  /// Index of some local-layer subtree whose owner is alive.
  std::size_t PickSubtree() {
    const auto owners = cluster_.scheme().subtree_owners();
    const auto& subtrees = cluster_.scheme().layers().subtrees;
    for (std::size_t i = 0; i < subtrees.size() && i < owners.size(); ++i)
      if (cluster_.IsServerAlive(owners[i])) return i;
    ADD_FAILURE() << "no subtree with an alive owner";
    return 0;
  }

  /// Some alive server other than `not_this`.
  MdsId OtherAlive(MdsId not_this) {
    for (MdsId k = 0; k < static_cast<MdsId>(cluster_.mds_count()); ++k)
      if (k != not_this && cluster_.IsServerAlive(k)) return k;
    ADD_FAILURE() << "no other alive server";
    return -1;
  }

  Workload workload_;
  FunctionalCluster cluster_;
};

// In-place local-layer rename: one journaled transaction, no records
// change owner (the structure-keyed placement claim of Sec. II), GL
// version bumps at commit so cached client indexes invalidate.
TEST_F(RenameTxnTest, InPlaceLocalRenameCommits) {
  const std::size_t i = PickSubtree();
  const NodeId root = cluster_.scheme().layers().subtrees[i].root;
  const MdsId owner = cluster_.scheme().subtree_owners()[i];
  const std::string old_path = workload_.tree.PathOf(root);
  const std::uint64_t gl_before = cluster_.gl_master_version();

  const auto result = cluster_.Rename(old_path, "renamed_in_place");
  ASSERT_EQ(result.status, MdsStatus::kOk);
  EXPECT_FALSE(result.cross_server);
  EXPECT_EQ(result.records_moved, 0u);
  EXPECT_GT(result.rename_id, 0u);
  EXPECT_EQ(cluster_.renames_committed(), 1u);
  EXPECT_EQ(cluster_.renames_aborted(), 0u);
  EXPECT_GT(cluster_.gl_master_version(), gl_before);

  // The old path is gone, the new one resolves to the same node — still
  // at the same owner, name rewritten in its record.
  EXPECT_EQ(cluster_.Stat(old_path).status, MdsStatus::kNotFound);
  const std::string new_path =
      old_path.substr(0, old_path.find_last_of('/') + 1) + "renamed_in_place";
  const auto stat = cluster_.Stat(new_path);
  ASSERT_EQ(stat.status, MdsStatus::kOk);
  EXPECT_EQ(stat.record.id, root);
  EXPECT_EQ(stat.record.name, "renamed_in_place");
  EXPECT_EQ(cluster_.scheme().subtree_owners()[i], owner);
  EXPECT_EQ(HoldersOf(cluster_, root), 1u);
  ExpectFsckClean(cluster_, "in-place rename");
}

// GL-resident rename: every live replica's record is rewritten under the
// GL write lock in the same transaction.
TEST_F(RenameTxnTest, GlResidentRenameUpdatesEveryReplica) {
  NodeId target = kInvalidNode;
  for (NodeId id = 1; id < workload_.tree.size(); ++id)
    if (cluster_.assignment().IsReplicated(id)) {
      target = id;
      break;
    }
  ASSERT_NE(target, kInvalidNode) << "no GL-resident node below the root";
  const std::string old_path = workload_.tree.PathOf(target);

  const auto result = cluster_.Rename(old_path, "renamed_gl");
  ASSERT_EQ(result.status, MdsStatus::kOk);
  EXPECT_FALSE(result.cross_server);
  for (MdsId k = 0; k < static_cast<MdsId>(cluster_.mds_count()); ++k) {
    if (!cluster_.IsServerAlive(k)) continue;
    const auto rec = cluster_.server(k).global_replica().Get(target);
    ASSERT_TRUE(rec.has_value()) << "replica " << k;
    EXPECT_EQ(rec->name, "renamed_gl") << "replica " << k;
  }
  ExpectFsckClean(cluster_, "GL rename");
}

// A GL rename whose commit legs are all lost after the coordinator
// applied it rolls forward: the namespace takes the new name and the
// replicas that never acked are rebuilt from the coordinator, so the
// audit passes at once (aborting here would leave the coordinator's new
// name beside the namespace's old one).
TEST(RenameTxnSimNet, GlRenameWithLostCommitLegsRollsForward) {
  const Workload w = GenerateWorkload(DtrProfile(0.05));
  SimNetConfig netcfg;
  netcfg.jitter_mean_us = 0.0;
  auto net = std::make_shared<SimNetTransport>(netcfg);
  FunctionalCluster cluster(w.tree, 4, {}, net);
  NodeId target = kInvalidNode;
  for (NodeId id = 1; id < w.tree.size() && target == kInvalidNode; ++id)
    if (cluster.assignment().IsReplicated(id)) target = id;
  ASSERT_NE(target, kInvalidNode) << "no GL-resident node below the root";
  const std::string old_path = w.tree.PathOf(target);
  for (MdsId a = 0; a < 4; ++a)
    for (MdsId b = a + 1; b < 4; ++b)
      ASSERT_TRUE(net->SetLinkDropRate(MdsAddress(a), MdsAddress(b), 1.0));

  const auto result = cluster.Rename(old_path, "renamed_gl");
  ASSERT_EQ(result.status, MdsStatus::kOk);
  const std::string new_path =
      old_path.substr(0, old_path.find_last_of('/') + 1) + "renamed_gl";
  EXPECT_EQ(cluster.Stat(new_path).status, MdsStatus::kOk);
  for (MdsId k = 0; k < 4; ++k) {
    const auto rec = cluster.server(k).global_replica().Get(target);
    ASSERT_TRUE(rec.has_value()) << "replica " << k;
    EXPECT_EQ(rec->name, "renamed_gl") << "replica " << k;
  }
  std::string why;
  EXPECT_TRUE(cluster.CheckConsistency(&why)) << why;
  ExpectFsckClean(cluster, "GL rename, commit legs lost");
}

// Cross-server rename: rename + subtree re-home in one two-phase
// transaction — the operation hash-keyed schemes pay on every directory
// rename, here driven by explicit placement policy.
TEST_F(RenameTxnTest, CrossServerRenameMovesSubtree) {
  const std::size_t i = PickSubtree();
  const auto& subtree = cluster_.scheme().layers().subtrees[i];
  const MdsId src = cluster_.scheme().subtree_owners()[i];
  const MdsId dst = OtherAlive(src);
  const std::string old_path = workload_.tree.PathOf(subtree.root);

  const auto result = cluster_.RenameTo(old_path, "rehomed", dst);
  ASSERT_EQ(result.status, MdsStatus::kOk);
  EXPECT_TRUE(result.cross_server);
  EXPECT_EQ(result.records_moved, subtree.node_count);
  EXPECT_EQ(cluster_.scheme().subtree_owners()[i], dst);
  EXPECT_EQ(cluster_.assignment().OwnerOf(subtree.root), dst);

  // Every member record moved: present at the destination, gone from the
  // source, exactly one holder each.
  EXPECT_TRUE(cluster_.server(dst).local().Contains(subtree.root));
  EXPECT_FALSE(cluster_.server(src).local().Contains(subtree.root));
  EXPECT_EQ(HoldersOf(cluster_, subtree.root), 1u);

  const std::string new_path =
      old_path.substr(0, old_path.find_last_of('/') + 1) + "rehomed";
  const auto stat = cluster_.Stat(new_path);
  ASSERT_EQ(stat.status, MdsStatus::kOk);
  EXPECT_EQ(stat.served_by, dst);
  std::string err;
  EXPECT_TRUE(cluster_.CheckConsistency(&err)) << err;
  ExpectFsckClean(cluster_, "cross-server rename");
}

// Validation failures answer without journaling anything.
TEST_F(RenameTxnTest, ValidationRejectsWithoutJournaling) {
  const std::size_t i = PickSubtree();
  const NodeId root = cluster_.scheme().layers().subtrees[i].root;
  const MdsId owner = cluster_.scheme().subtree_owners()[i];
  const std::string path = workload_.tree.PathOf(root);
  const std::size_t journal_before = cluster_.monitor_wal().records_appended();

  EXPECT_EQ(cluster_.Rename("/no/such/path", "x").status,
            MdsStatus::kNotFound);
  EXPECT_EQ(cluster_.Rename("/", "x").status, MdsStatus::kNotPermitted);
  EXPECT_EQ(cluster_.Rename(path, "").status, MdsStatus::kNotPermitted);
  EXPECT_EQ(cluster_.Rename(path, "a/b").status, MdsStatus::kNotPermitted);
  // Renaming to the current name is a no-op success — no transaction.
  const auto noop = cluster_.Rename(path, path.substr(path.find_last_of('/') + 1));
  EXPECT_EQ(noop.status, MdsStatus::kOk);
  EXPECT_EQ(noop.rename_id, 0u);
  // Re-homing anything but a registered subtree root is refused, as is a
  // bogus or dead destination.
  NodeId member = kInvalidNode;
  workload_.tree.VisitSubtree(root, [&](NodeId v) {
    if (v != root && member == kInvalidNode) member = v;
  });
  if (member != kInvalidNode) {
    EXPECT_EQ(cluster_.RenameTo(workload_.tree.PathOf(member), "x", OtherAlive(owner))
                  .status,
              MdsStatus::kNotPermitted);
  }
  EXPECT_EQ(cluster_.RenameTo(path, "x", 99).status, MdsStatus::kNotPermitted);
  const MdsId victim = OtherAlive(owner);
  ASSERT_TRUE(cluster_.KillServer(victim));
  EXPECT_EQ(cluster_.RenameTo(path, "x", victim).status,
            MdsStatus::kUnavailable);
  ASSERT_TRUE(cluster_.ReviveServer(victim));

  EXPECT_EQ(cluster_.monitor_wal().records_appended(), journal_before)
      << "validation failures must not touch the journal";
  EXPECT_EQ(cluster_.renames_committed(), 0u);
  EXPECT_EQ(cluster_.renames_aborted(), 0u);
}

// Sibling collision: committing would alias two nodes onto one path, so
// the transaction is refused up front and path integrity holds.
TEST_F(RenameTxnTest, SiblingCollisionRefused) {
  const std::size_t i = PickSubtree();
  const NodeId root = cluster_.scheme().layers().subtrees[i].root;
  const NodeId parent = workload_.tree.node(root).parent;
  NodeId sibling = kInvalidNode;
  workload_.tree.VisitSubtree(workload_.tree.root(), [&](NodeId v) {
    if (v != root && workload_.tree.node(v).parent == parent &&
        sibling == kInvalidNode)
      sibling = v;
  });
  ASSERT_NE(sibling, kInvalidNode) << "subtree root has no sibling";
  const auto result = cluster_.Rename(workload_.tree.PathOf(root),
                                      workload_.tree.node(sibling).name);
  EXPECT_EQ(result.status, MdsStatus::kNotPermitted);
  std::string err;
  EXPECT_EQ(cluster_.CheckPathIntegrity(&err), 0u) << err;
}

// Renames and migrations draw txn ids from one monotone counter — the
// fsck invariant "journaled txn ids monotone" rides on it.
TEST_F(RenameTxnTest, RenameIdsShareTheMigrationCounter) {
  const std::size_t i = PickSubtree();
  const std::string path =
      workload_.tree.PathOf(cluster_.scheme().layers().subtrees[i].root);
  const auto first = cluster_.Rename(path, "rn_first");
  ASSERT_EQ(first.status, MdsStatus::kOk);

  // Force migrations to consume ids in between.
  const MdsId victim = cluster_.scheme().subtree_owners()[i];
  ASSERT_TRUE(cluster_.SetHeartbeatSuppressed(victim, true));
  cluster_.RunAdjustmentRound();
  ASSERT_TRUE(cluster_.SetHeartbeatSuppressed(victim, false));

  const std::size_t j = PickSubtree();
  std::string path2 =
      workload_.tree.PathOf(cluster_.scheme().layers().subtrees[j].root);
  if (j == i) {  // first rename moved this root's path
    path2 = path.substr(0, path.find_last_of('/') + 1) + "rn_first";
  }
  const auto second = cluster_.Rename(path2, "rn_second");
  ASSERT_EQ(second.status, MdsStatus::kOk);
  EXPECT_GT(second.rename_id, first.rename_id);
  ExpectFsckClean(cluster_, "two renames around a round");
}

class RenameCrashTest : public RenameTxnTest {
 protected:
  struct Trip {
    std::size_t subtree = 0;
    NodeId root = kInvalidNode;
    MdsId src = -1;
    MdsId dst = -1;
    std::string old_path;
    std::string new_name = "rn_crash";
  };

  /// Arms `site` and drives a cross-server rename into it.
  Trip TripCrossRenameCrash(CrashSite site, bool torn) {
    Trip t;
    t.subtree = PickSubtree();
    t.root = cluster_.scheme().layers().subtrees[t.subtree].root;
    t.src = cluster_.scheme().subtree_owners()[t.subtree];
    t.dst = OtherAlive(t.src);
    t.old_path = workload_.tree.PathOf(t.root);
    cluster_.ArmCrash(site, torn);
    const auto result = cluster_.RenameTo(t.old_path, t.new_name, t.dst);
    EXPECT_EQ(result.status, MdsStatus::kUnavailable)
        << "crashed transaction must look like an outage to the client";
    EXPECT_TRUE(cluster_.crashed())
        << "site " << CrashSiteName(site) << " never tripped";
    return t;
  }

  std::string NewPath(const Trip& t) const {
    return t.old_path.substr(0, t.old_path.find_last_of('/') + 1) + t.new_name;
  }
};

// Crash after INTENT: nothing changed — recovery journals the abort, the
// old name still resolves, ownership never moved.
TEST_F(RenameCrashTest, IntentOnlyCrashRollsBack) {
  const Trip t = TripCrossRenameCrash(CrashSite::kAfterIntent, false);
  const auto recovery = cluster_.Recover();
  EXPECT_EQ(recovery.txns_rolled_back, 1u);
  EXPECT_EQ(recovery.txns_rolled_forward, 0u);
  EXPECT_EQ(cluster_.renames_aborted(), 1u);

  EXPECT_EQ(cluster_.Stat(t.old_path).status, MdsStatus::kOk);
  EXPECT_EQ(cluster_.Stat(NewPath(t)).status, MdsStatus::kNotFound);
  EXPECT_EQ(cluster_.scheme().subtree_owners()[t.subtree], t.src);
  EXPECT_EQ(HoldersOf(cluster_, t.root), 1u);
  ExpectFsckClean(cluster_, "intent rollback");
  const FsckReport fsck = FsckCluster(cluster_);
  EXPECT_EQ(fsck.txns_aborted, 1u);
}

// Crash after PREPARE: the WAL carries the new name and destination, so
// recovery rolls forward — new name resolves, subtree owned by the
// destination, exactly once.
TEST_F(RenameCrashTest, PreparedCrashRollsForward) {
  const Trip t = TripCrossRenameCrash(CrashSite::kAfterPrepare, false);
  const auto recovery = cluster_.Recover();
  EXPECT_EQ(recovery.txns_rolled_forward, 1u);
  EXPECT_EQ(recovery.txns_rolled_back, 0u);
  EXPECT_EQ(cluster_.renames_committed(), 1u);

  EXPECT_EQ(cluster_.Stat(t.old_path).status, MdsStatus::kNotFound);
  const auto stat = cluster_.Stat(NewPath(t));
  ASSERT_EQ(stat.status, MdsStatus::kOk);
  EXPECT_EQ(stat.served_by, t.dst);
  EXPECT_EQ(cluster_.scheme().subtree_owners()[t.subtree], t.dst);
  EXPECT_EQ(HoldersOf(cluster_, t.root), 1u);
  ExpectFsckClean(cluster_, "prepare roll-forward");
  const FsckReport fsck = FsckCluster(cluster_);
  EXPECT_EQ(fsck.txns_committed, 1u);
}

// Torn PREPARE: the tear demotes the transaction to intent-only, so it
// must roll back even though the apply step may already have run — the
// journaled pre-rename name is restored.
TEST_F(RenameCrashTest, TornPrepareRollsBackAndRestoresName) {
  const Trip t = TripCrossRenameCrash(CrashSite::kAfterPrepare, true);
  const auto recovery = cluster_.Recover();
  EXPECT_TRUE(recovery.torn_tail_detected);
  EXPECT_EQ(recovery.txns_rolled_back, 1u);
  EXPECT_EQ(recovery.txns_rolled_forward, 0u);

  EXPECT_EQ(cluster_.Stat(t.old_path).status, MdsStatus::kOk);
  EXPECT_EQ(cluster_.Stat(NewPath(t)).status, MdsStatus::kNotFound);
  EXPECT_EQ(cluster_.scheme().subtree_owners()[t.subtree], t.src);
  ExpectFsckClean(cluster_, "torn prepare rollback");
}

// Crash after the apply step: the destination journaled the transfer
// before the crash, so recovery's roll-forward dedups on its WAL instead
// of double-applying, and the records end up at the destination once.
TEST_F(RenameCrashTest, ApplyCrashRollsForwardWithReceiverDedup) {
  const Trip t = TripCrossRenameCrash(CrashSite::kAfterApply, false);
  const std::uint64_t dup_before = cluster_.duplicate_pulls_dropped();
  const auto recovery = cluster_.Recover();
  EXPECT_EQ(recovery.txns_rolled_forward, 1u);
  EXPECT_EQ(cluster_.duplicate_pulls_dropped(), dup_before + 1)
      << "re-delivery must dedup on the destination's journal";

  EXPECT_EQ(cluster_.scheme().subtree_owners()[t.subtree], t.dst);
  EXPECT_EQ(HoldersOf(cluster_, t.root), 1u);
  EXPECT_EQ(cluster_.Stat(NewPath(t)).status, MdsStatus::kOk);
  ExpectFsckClean(cluster_, "apply roll-forward");
}

// Crash after COMMIT: the transaction is durable and terminal — replay
// is a pure no-op (nothing rolls either way), and the renamed state
// survives recovery unchanged.
TEST_F(RenameCrashTest, CommittedCrashReplaysIdempotently) {
  const Trip t = TripCrossRenameCrash(CrashSite::kAfterCommit, false);
  const auto recovery = cluster_.Recover();
  EXPECT_EQ(recovery.txns_rolled_forward, 0u);
  EXPECT_EQ(recovery.txns_rolled_back, 0u);

  EXPECT_EQ(cluster_.Stat(t.old_path).status, MdsStatus::kNotFound);
  EXPECT_EQ(cluster_.Stat(NewPath(t)).status, MdsStatus::kOk);
  EXPECT_EQ(cluster_.scheme().subtree_owners()[t.subtree], t.dst);
  EXPECT_EQ(HoldersOf(cluster_, t.root), 1u);
  ExpectFsckClean(cluster_, "commit idempotence");
  const FsckReport fsck = FsckCluster(cluster_);
  EXPECT_EQ(fsck.txns_committed, 1u);
  EXPECT_EQ(fsck.txns_aborted, 0u);
}

// In-place renames walk the same four sites; after every crash/recover
// the namespace matches the journal's verdict exactly.
TEST_F(RenameCrashTest, InPlaceRenameCrashesAtEverySite) {
  for (std::size_t s = 0; s < std::size(kTxnSites); ++s) {
    const CrashSite site = kTxnSites[s];
    const std::string context = CrashSiteName(site);
    const std::size_t i = PickSubtree();
    const NodeId root = cluster_.scheme().layers().subtrees[i].root;
    // Resolve the root's *current* path through the cluster (earlier
    // iterations may have renamed it).
    std::string old_path = workload_.tree.PathOf(root);
    if (cluster_.Stat(old_path).status != MdsStatus::kOk) {
      // Renamed by a previous iteration: reconstruct via its record name.
      const std::string prefix = old_path.substr(0, old_path.find_last_of('/') + 1);
      for (std::size_t prev = 0; prev < s; ++prev) {
        const std::string candidate =
            prefix + "ip" + std::to_string(prev);
        if (cluster_.Stat(candidate).status == MdsStatus::kOk) {
          old_path = candidate;
          break;
        }
      }
    }
    ASSERT_EQ(cluster_.Stat(old_path).status, MdsStatus::kOk) << context;
    const std::string fresh = "ip" + std::to_string(s);
    cluster_.ArmCrash(site, false);
    EXPECT_EQ(cluster_.Rename(old_path, fresh).status,
              MdsStatus::kUnavailable)
        << context;
    ASSERT_TRUE(cluster_.crashed()) << context;
    const auto recovery = cluster_.Recover();
    const bool rolled_back = recovery.txns_rolled_back > 0;
    const std::string new_path =
        old_path.substr(0, old_path.find_last_of('/') + 1) + fresh;
    if (rolled_back) {
      EXPECT_EQ(cluster_.Stat(old_path).status, MdsStatus::kOk) << context;
      EXPECT_EQ(cluster_.Stat(new_path).status, MdsStatus::kNotFound)
          << context;
    } else {
      EXPECT_EQ(cluster_.Stat(new_path).status, MdsStatus::kOk) << context;
      EXPECT_EQ(cluster_.Stat(old_path).status, MdsStatus::kNotFound)
          << context;
    }
    EXPECT_EQ(HoldersOf(cluster_, root), 1u) << context;
    ExpectFsckClean(cluster_, context);
  }
}

// The rename-storm property sweep: ≥30 random tree shapes; on each, a
// storm of committed renames (in place and cross-server) followed by a
// crash at *every* transaction site, torn and intact, through both the
// rename driver and the adjustment round's migration driver, each
// followed by a recovery. Every recovery must be d2fsck-clean with exactly
// one owner resolving every renamed path, and no record lost or
// duplicated.
TEST(RenameTxnProperty, RenameStormEverySiteRecoversClean) {
  constexpr int kTrials = 30;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(0x5E4A3E0000ULL + static_cast<std::uint64_t>(trial));
    SyntheticTreeConfig cfg;
    cfg.node_count = 100 + rng.NextBounded(300);
    cfg.max_depth = 4 + static_cast<std::uint32_t>(rng.NextBounded(8));
    cfg.dir_ratio = 0.2 + 0.3 * rng.NextDouble();
    cfg.depth_bias = 0.6 * rng.NextDouble();
    cfg.root_fanout = 4 + static_cast<std::uint32_t>(rng.NextBounded(16));
    NamespaceTree tree = BuildSyntheticTree(cfg, rng);
    for (NodeId id = 0; id < tree.size(); ++id)
      tree.AddAccess(id, rng.NextExponential(5.0));
    tree.RecomputeSubtreePopularity();

    const std::size_t m = 3 + rng.NextBounded(3);
    FunctionalCluster cluster(tree, m);
    std::size_t fresh = 0;

    // Renames some subtree root, crashing at `site` when set; the
    // mirrored tree tracks committed renames so paths stay valid.
    const auto pick_and_rename = [&](std::optional<CrashSite> site,
                                     bool torn) -> std::string {
      const auto owners = cluster.scheme().subtree_owners();
      const auto& subtrees = cluster.scheme().layers().subtrees;
      std::size_t i = subtrees.size();
      for (std::size_t k = 0; k < subtrees.size() && k < owners.size(); ++k)
        if (cluster.IsServerAlive(owners[k])) {
          i = k;
          break;
        }
      if (i == subtrees.size()) return "no subtree with alive owner";
      const NodeId root = subtrees[i].root;
      const std::string old_path = tree.PathOf(root);
      const std::string name =
          "st" + std::to_string(trial) + "_" + std::to_string(fresh++);
      MdsId dest = -1;
      if (rng.NextBool(0.5)) {
        for (MdsId k = 0; k < static_cast<MdsId>(cluster.mds_count()); ++k)
          if (k != owners[i] && cluster.IsServerAlive(k)) {
            dest = k;
            break;
          }
      }
      if (site.has_value()) cluster.ArmCrash(*site, torn);
      const auto result = dest >= 0 ? cluster.RenameTo(old_path, name, dest)
                                    : cluster.Rename(old_path, name);
      if (!site.has_value()) {
        if (result.status == MdsStatus::kOk) tree.Rename(root, name);
        return "";
      }
      if (!cluster.crashed()) return "site never tripped";
      cluster.Recover();
      if (cluster.Stat(old_path).status == MdsStatus::kNotFound)
        tree.Rename(root, name);  // committed live or rolled forward
      return "";
    };
    // Drains a subtree owner so the adjustment round migrates, crashing
    // at `site`.
    const auto drain_round = [&](CrashSite site, bool torn) -> std::string {
      const auto owners = cluster.scheme().subtree_owners();
      MdsId victim = -1;
      for (MdsId k = 0; k < static_cast<MdsId>(cluster.mds_count()); ++k)
        if (cluster.IsServerAlive(k) &&
            std::count(owners.begin(), owners.end(), k) > 0) {
          victim = k;
          break;
        }
      if (victim < 0) return "no alive MDS owns a subtree";
      cluster.ArmCrash(site, torn);
      cluster.SetHeartbeatSuppressed(victim, true);
      cluster.RunAdjustmentRound();
      const bool tripped = cluster.crashed();
      cluster.Recover();
      cluster.SetHeartbeatSuppressed(victim, false);
      cluster.RunAdjustmentRound();  // stabilize
      return tripped ? "" : "site never tripped";
    };

    // Storm phase: a handful of uncrashed renames to salt the journal.
    for (int n = 0; n < 4; ++n) {
      const std::string err = pick_and_rename(std::nullopt, false);
      ASSERT_EQ(err, "") << "trial " << trial << " storm rename " << n;
    }

    // Crash phase: every transaction site, torn and intact, both drivers.
    for (const CrashSite site : kTxnSites)
      for (const bool torn : {false, true})
        for (const bool by_rename : {true, false}) {
          const std::string context =
              "trial " + std::to_string(trial) + " site " +
              CrashSiteName(site) + (by_rename ? " rename" : " round") +
              (torn ? " torn" : "");
          const std::string err = by_rename ? pick_and_rename(site, torn)
                                            : drain_round(site, torn);
          ASSERT_EQ(err, "") << context;

          const FsckReport fsck = FsckCluster(cluster);
          ASSERT_TRUE(fsck.clean())
              << context << ":\n" << FormatFsckReport(fsck);
          std::string path_err;
          ASSERT_EQ(cluster.CheckPathIntegrity(&path_err), 0u)
              << context << ": " << path_err;
          const std::size_t gl = cluster.scheme().split().global_layer.size();
          ASSERT_EQ(AliveLocalRecords(cluster), tree.size() - gl)
              << context << ": records lost or duplicated";
          // Exactly one owner resolves every subtree root's path.
          const auto& subtrees = cluster.scheme().layers().subtrees;
          for (const auto& st : subtrees)
            ASSERT_EQ(HoldersOf(cluster, st.root), 1u)
                << context << ": root " << tree.PathOf(st.root);
        }
  }
}

}  // namespace
}  // namespace d2tree
