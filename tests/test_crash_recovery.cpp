// Crash-consistent handoff tests (DESIGN.md §7): a whole-service crash
// planted at every named site of the subtree-transfer transaction — with
// and without a torn WAL tail — must recover to a cluster that passes
// d2fsck: intent-only transactions roll back, prepared-or-later roll
// forward, re-delivered pulls dedup on the txn id, and no record is ever
// lost, duplicated or orphaned. Closes with the crash-schedule property
// sweep over random tree shapes, every site through both drivers
// (adjustment round and rename); the concurrent crash storms live in
// test_fault_stress.cpp (label "stress").
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "d2tree/durability/crash_point.h"
#include "d2tree/durability/fsck.h"
#include "d2tree/mds/cluster.h"
#include "d2tree/net/simnet.h"
#include "d2tree/nstree/builder.h"
#include "d2tree/sim/fault_injector.h"
#include "d2tree/trace/profiles.h"

namespace d2tree {
namespace {

std::size_t AliveLocalRecords(const FunctionalCluster& cluster) {
  std::size_t total = 0;
  for (MdsId k = 0; k < static_cast<MdsId>(cluster.mds_count()); ++k)
    if (cluster.IsServerAlive(k)) total += cluster.server(k).local().size();
  return total;
}

void ExpectRecoveredClean(const FunctionalCluster& cluster,
                          std::size_t tree_size, const std::string& context) {
  const FsckReport fsck = FsckCluster(cluster);
  EXPECT_TRUE(fsck.clean()) << context << ":\n" << FormatFsckReport(fsck);
  const std::size_t gl = cluster.scheme().split().global_layer.size();
  EXPECT_EQ(AliveLocalRecords(cluster), tree_size - gl)
      << context << ": records lost or duplicated";
}

/// Some MDS that owns at least one local-layer subtree.
MdsId VictimWithSubtrees(const FunctionalCluster& cluster) {
  const auto owners = cluster.scheme().subtree_owners();
  for (MdsId k = 0; k < static_cast<MdsId>(cluster.mds_count()); ++k)
    if (std::count(owners.begin(), owners.end(), k) > 0) return k;
  return -1;
}

class CrashSiteTest : public ::testing::Test {
 protected:
  CrashSiteTest()
      : workload_(GenerateWorkload(DtrProfile(0.05))),
        cluster_(workload_.tree, 4) {
    for (NodeId id = 0; id < workload_.tree.size(); id += 3)
      cluster_.Stat(workload_.tree.PathOf(id));
  }

  /// Arms `site` and forces the adjustment round into a migration (by
  /// draining a subtree-owning victim) so the armed site is reached.
  /// Returns the victim.
  MdsId TripMigrationCrash(CrashSite site, bool torn) {
    const MdsId victim = VictimWithSubtrees(cluster_);
    EXPECT_GE(victim, 0);
    EXPECT_TRUE(cluster_.SetHeartbeatSuppressed(victim, true));
    cluster_.ArmCrash(site, torn);
    cluster_.RunAdjustmentRound();
    EXPECT_TRUE(cluster_.crashed())
        << "armed site " << CrashSiteName(site) << " never tripped";
    return victim;
  }

  Workload workload_;
  FunctionalCluster cluster_;
};

// While crashed, every client-facing op answers kUnavailable and the
// audit refuses to run; Recover() restores full service.
TEST_F(CrashSiteTest, CrashedServiceIsUnavailableUntilRecovered) {
  ASSERT_EQ(cluster_.Update("/", 1).status, MdsStatus::kOk);
  cluster_.ArmCrash(CrashSite::kAfterGlBump);
  cluster_.Update("/", 2);  // trips the armed site
  ASSERT_TRUE(cluster_.crashed());
  EXPECT_EQ(cluster_.crashes_injected(), 1u);

  EXPECT_EQ(cluster_.Stat("/").status, MdsStatus::kUnavailable);
  EXPECT_EQ(cluster_.Update("/", 3).status, MdsStatus::kUnavailable);
  EXPECT_EQ(cluster_.RunAdjustmentRound(), 0u);
  std::string error;
  EXPECT_FALSE(cluster_.CheckConsistency(&error));
  EXPECT_NE(error.find("crashed"), std::string::npos);

  const auto recovery = cluster_.Recover();
  EXPECT_FALSE(cluster_.crashed());
  EXPECT_GT(recovery.wal_records_replayed, 0u);
  EXPECT_EQ(cluster_.recoveries_completed(), 1u);
  EXPECT_EQ(cluster_.Stat("/").status, MdsStatus::kOk);
  ExpectRecoveredClean(cluster_, workload_.tree.size(), "post-recover");
}

// Crash after INTENT: nothing moved, so recovery rolls the migration
// back — the subtree stays with its donor and an ABORT is journaled.
TEST_F(CrashSiteTest, IntentOnlyCrashRollsBack) {
  const MdsId victim = TripMigrationCrash(CrashSite::kAfterIntent, false);
  const auto recovery = cluster_.Recover();
  EXPECT_EQ(recovery.txns_rolled_back, 1u);
  EXPECT_EQ(recovery.txns_rolled_forward, 0u);
  cluster_.SetHeartbeatSuppressed(victim, false);

  // The donor still owns everything it owned — the plan died with the
  // crash.
  const auto owners = cluster_.scheme().subtree_owners();
  EXPECT_GT(std::count(owners.begin(), owners.end(), victim), 0);
  ExpectRecoveredClean(cluster_, workload_.tree.size(), "rolled back");

  const FsckReport fsck = FsckCluster(cluster_);
  EXPECT_EQ(fsck.txns_aborted, 1u);
  EXPECT_EQ(fsck.txns_in_flight, 0u);
}

// Crash after PREPARE: the records are durably parked in the pending
// pool, so recovery rolls forward — the grantee ends up owning the
// subtree and the COMMIT is journaled.
TEST_F(CrashSiteTest, PreparedCrashRollsForward) {
  const MdsId victim = TripMigrationCrash(CrashSite::kAfterPrepare, false);
  const auto recovery = cluster_.Recover();
  EXPECT_EQ(recovery.txns_rolled_forward, 1u);
  EXPECT_EQ(recovery.txns_rolled_back, 0u);
  cluster_.SetHeartbeatSuppressed(victim, false);
  ExpectRecoveredClean(cluster_, workload_.tree.size(), "rolled forward");
  EXPECT_EQ(FsckCluster(cluster_).txns_committed, 1u);
}

// Crash after PREPARE with the append itself torn: replay cannot see the
// PREPARE, so the migration is intent-only and must roll back — acting
// on a torn record would commit a handoff whose durability never landed.
TEST_F(CrashSiteTest, TornPrepareDemotesToRollback) {
  const MdsId victim = TripMigrationCrash(CrashSite::kAfterPrepare, true);
  const auto recovery = cluster_.Recover();
  EXPECT_TRUE(recovery.torn_tail_detected);
  EXPECT_GT(recovery.torn_bytes_discarded, 0u);
  EXPECT_EQ(recovery.txns_rolled_back, 1u);
  EXPECT_EQ(recovery.txns_rolled_forward, 0u);
  cluster_.SetHeartbeatSuppressed(victim, false);
  ExpectRecoveredClean(cluster_, workload_.tree.size(), "torn prepare");
}

// Crash after the grantee applied and journaled the pull but before the
// Monitor's COMMIT: recovery rolls forward and the grantee's own journal
// dedups the re-delivery — the records are applied exactly once.
TEST_F(CrashSiteTest, PullAppliedCrashDedupsOnRecovery) {
  const MdsId victim = TripMigrationCrash(CrashSite::kAfterApply, false);
  ASSERT_EQ(cluster_.duplicate_pulls_dropped(), 0u);
  const auto recovery = cluster_.Recover();
  EXPECT_EQ(recovery.txns_rolled_forward, 1u);
  EXPECT_EQ(cluster_.duplicate_pulls_dropped(), 1u)
      << "the re-delivered pull must be dropped by the txn-id dedup";
  cluster_.SetHeartbeatSuppressed(victim, false);
  ExpectRecoveredClean(cluster_, workload_.tree.size(), "pull dedup");
}

// Crash after the local commit: the COMMIT record is durable, so replay
// is pure re-application — same owner, no second pull, clean audit.
TEST_F(CrashSiteTest, CommittedCrashReplaysIdempotently) {
  const MdsId victim = TripMigrationCrash(CrashSite::kAfterCommit, false);
  const auto recovery = cluster_.Recover();
  EXPECT_EQ(recovery.txns_rolled_back, 0u);
  cluster_.SetHeartbeatSuppressed(victim, false);
  ExpectRecoveredClean(cluster_, workload_.tree.size(), "committed");
  EXPECT_GE(FsckCluster(cluster_).txns_committed, 1u);
}

// Crash right after the GL version bump: the journaled version wins —
// after recovery every live replica is at the (bumped) master version.
TEST_F(CrashSiteTest, GlBumpSurvivesCrash) {
  ASSERT_EQ(cluster_.Update("/", 7).status, MdsStatus::kOk);
  const std::uint64_t bumped = cluster_.gl_master_version();
  cluster_.ArmCrash(CrashSite::kAfterGlBump);
  cluster_.Update("/", 8);
  ASSERT_TRUE(cluster_.crashed());

  const auto recovery = cluster_.Recover();
  EXPECT_GT(recovery.gl_version, bumped);
  EXPECT_EQ(cluster_.gl_master_version(), recovery.gl_version);
  for (MdsId k = 0; k < static_cast<MdsId>(cluster_.mds_count()); ++k) {
    if (!cluster_.IsServerAlive(k)) continue;
    EXPECT_EQ(cluster_.server(k).gl_version(), recovery.gl_version)
        << "replica " << k << " lagging after recovery";
    EXPECT_EQ(cluster_.StatVia("/", k).status, MdsStatus::kOk);
  }
  ExpectRecoveredClean(cluster_, workload_.tree.size(), "gl bump");
}

// Regression (the pre-repin bug): a pending-pool pull that cannot reach
// its grantee over a lossy Monitor⇄MDS link parks the migration. Further
// adjustment rounds while the link is down must keep the subtree pinned
// to the parked grantee — re-planning it would put the same records in
// two migrations (double assignment). After the link heals the pull is
// re-issued and lands exactly once.
TEST(ParkedPullRegression, LossyMonitorLinkParksWithoutDoubleAssign) {
  const Workload w = GenerateWorkload(DtrProfile(0.05));
  SimNetConfig netcfg;
  netcfg.seed = 0x9A12C;
  netcfg.jitter_mean_us = 0.0;
  auto net = std::make_shared<SimNetTransport>(netcfg);
  FunctionalCluster cluster(w.tree, 4, {}, net);
  for (NodeId id = 0; id < w.tree.size(); id += 3)
    cluster.Stat(w.tree.PathOf(id));

  // Every Monitor⇄MDS link loses 80% of messages: heartbeats (2 tight
  // attempts) sometimes survive while the pull (4 attempts) still fails —
  // the footprint of a partition starting mid-round.
  for (MdsId k = 0; k < 4; ++k)
    ASSERT_TRUE(net->SetLinkDropRate(MonitorAddress(), MdsAddress(k), 0.8));

  // Churn ownership until a pull parks: drain a different server each
  // round so every round has migrations in flight over the lossy links.
  std::size_t round = 0;
  for (; round < 200 && cluster.ParkedTxnIds().empty(); ++round) {
    const MdsId drain = static_cast<MdsId>(round % 4);
    cluster.SetHeartbeatSuppressed(drain, true);
    cluster.RunAdjustmentRound();
    cluster.SetHeartbeatSuppressed(drain, false);
  }
  ASSERT_FALSE(cluster.ParkedTxnIds().empty())
      << "no pull parked in " << round << " lossy rounds";

  // Parked nodes are held by nobody and answer kUnavailable.
  const std::vector<NodeId> parked = cluster.ParkedNodes();
  ASSERT_FALSE(parked.empty());
  EXPECT_EQ(cluster.Stat(w.tree.PathOf(parked.front())).status,
            MdsStatus::kUnavailable);

  // The audit and d2fsck hold *while* parked: in-flight journal records
  // are accounted for, no node is double-held.
  std::string error;
  EXPECT_TRUE(cluster.CheckConsistency(&error)) << error;
  const FsckReport mid = FsckCluster(cluster);
  EXPECT_TRUE(mid.clean()) << FormatFsckReport(mid);
  EXPECT_EQ(mid.txns_in_flight, cluster.ParkedTxnIds().size());

  // More rounds with the link still lossy: the parked subtree must stay
  // pinned (never re-planned into a second migration).
  for (int i = 0; i < 3; ++i) cluster.RunAdjustmentRound();
  const FsckReport pinned = FsckCluster(cluster);
  EXPECT_TRUE(pinned.clean()) << FormatFsckReport(pinned);

  // Heal; the next rounds re-issue the pulls and every parked handoff
  // completes exactly once.
  for (MdsId k = 0; k < 4; ++k)
    ASSERT_TRUE(net->SetLinkDropRate(MonitorAddress(), MdsAddress(k), 0.0));
  for (int i = 0; i < 3 && !cluster.ParkedTxnIds().empty(); ++i)
    cluster.RunAdjustmentRound();
  EXPECT_TRUE(cluster.ParkedTxnIds().empty());
  EXPECT_EQ(cluster.Stat(w.tree.PathOf(parked.front())).status, MdsStatus::kOk);
  ExpectRecoveredClean(cluster, w.tree.size(), "after heal");
  EXPECT_GT(cluster.retries_total(), 0u)
      << "an 80% lossy link must charge retries";
}

// Random schedules now carry crash/recover pairs: every kCrashAtSite is
// followed by a kRecover, sites are seeded, and ToString renders them.
TEST(FaultInjectorCrash, RandomSchedulesPairCrashWithRecover) {
  FaultMix mix;
  mix.kills = 0;
  mix.revives = 0;
  mix.server_additions = 0;
  mix.crashes = 3;
  mix.torn_tail_probability = 1.0;
  const FaultSchedule s = FaultSchedule::Random(0xC4A5, 4, 20'000, mix);

  std::size_t crashes = 0, recovers = 0;
  for (const FaultEvent& e : s.events) {
    if (e.kind == FaultKind::kCrashAtSite) {
      ++crashes;
      EXPECT_TRUE(e.torn_tail);  // probability pinned to 1
    } else if (e.kind == FaultKind::kRecover) {
      ++recovers;
      EXPECT_GT(crashes, 0u) << "recover before any crash";
    } else {
      FAIL() << "kind not in this mix: " << FaultKindName(e.kind);
    }
  }
  EXPECT_EQ(crashes, 3u);
  EXPECT_EQ(recovers, 3u);
  EXPECT_NE(s.ToString().find("crash site="), std::string::npos);
  EXPECT_NE(s.ToString().find("torn"), std::string::npos);
  EXPECT_NE(s.ToString().find("recover"), std::string::npos);

  // Determinism: same inputs, same schedule (sites and torn flags too).
  EXPECT_TRUE(FaultSchedule::Random(0xC4A5, 4, 20'000, mix).events ==
              s.events);
}

// The property sweep: ≥30 random tree shapes, and on each shape a crash
// at *every* transaction site, torn and intact, through *both* drivers —
// an adjustment round's migration and a rename (in place or re-homed) —
// plus the GL-bump site, each followed by Recover(). Every single
// recovery must leave a cluster that d2fsck calls clean with the full
// namespace intact — the system's crash-consistency criterion.
TEST(CrashRecoveryProperty, EverySiteRecoversCleanAcrossRandomShapes) {
  constexpr int kTrials = 30;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(0xC7A50000ULL + static_cast<std::uint64_t>(trial));
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

    const std::size_t m = 3 + rng.NextBounded(3);  // 3..5 servers
    FunctionalCluster cluster(tree, m);
    for (NodeId id = 0; id < tree.size(); id += 4)
      cluster.Stat(tree.PathOf(id));

    std::size_t fresh_names = 0;
    for (std::size_t s = 0; s < kCrashSiteCount; ++s) {
      const auto site = static_cast<CrashSite>(s);
      const bool gl_site = site == CrashSite::kAfterGlBump;
      for (const bool torn : {false, true})
        for (const bool by_rename : {false, true}) {
          if (gl_site && by_rename) continue;  // only a GL update reaches it
          const std::string context =
              "trial " + std::to_string(trial) + " site " +
              CrashSiteName(site) + (by_rename ? " rename" : " round") +
              (torn ? " torn" : "");

          MdsId victim = -1;
          NodeId renamed_root = kInvalidNode;
          std::string renamed_old_path, renamed_new_name;
          if (by_rename) {
            // Pick a local-layer subtree root with an alive owner (its path
            // read from the mirrored tree, which tracks committed renames
            // below) and rename it — in place, or re-homed to another
            // alive server.
            const auto owners = cluster.scheme().subtree_owners();
            const auto& subtrees = cluster.scheme().layers().subtrees;
            std::size_t pick = subtrees.size();
            for (std::size_t i = 0; i < subtrees.size() && i < owners.size();
                 ++i)
              if (cluster.IsServerAlive(owners[i])) {
                pick = i;
                break;
              }
            ASSERT_LT(pick, subtrees.size())
                << context << ": no subtree with an alive owner";
            renamed_root = subtrees[pick].root;
            renamed_old_path = tree.PathOf(renamed_root);
            renamed_new_name = "rn" + std::to_string(trial) + "_" +
                               std::to_string(fresh_names++);
            MdsId dest = -1;
            if (rng.NextBool(0.5)) {
              for (MdsId k = 0; k < static_cast<MdsId>(cluster.mds_count());
                   ++k)
                if (k != owners[pick] && cluster.IsServerAlive(k)) {
                  dest = k;
                  break;
                }
            }
            cluster.ArmCrash(site, torn);
            if (dest >= 0)
              cluster.RenameTo(renamed_old_path, renamed_new_name, dest);
            else
              cluster.Rename(renamed_old_path, renamed_new_name);
          } else if (gl_site) {
            cluster.ArmCrash(site, torn);
            cluster.Update("/", static_cast<std::uint64_t>(trial));
          } else {
            victim = VictimWithSubtrees(cluster);
            ASSERT_GE(victim, 0) << context << ": no MDS owns a subtree";
            cluster.ArmCrash(site, torn);
            ASSERT_TRUE(cluster.SetHeartbeatSuppressed(victim, true));
            cluster.RunAdjustmentRound();
          }
          ASSERT_TRUE(cluster.crashed()) << context << ": site never tripped";

          cluster.Recover();
          if (victim >= 0) cluster.SetHeartbeatSuppressed(victim, false);
          if (renamed_root != kInvalidNode &&
              cluster.Stat(renamed_old_path).status == MdsStatus::kNotFound) {
            // The rename took effect (committed live or rolled forward):
            // mirror it so the next iteration's paths resolve.
            tree.Rename(renamed_root, renamed_new_name);
          }
          ASSERT_FALSE(cluster.crashed()) << context;
          const FsckReport fsck = FsckCluster(cluster);
          ASSERT_TRUE(fsck.clean())
              << context << ":\n" << FormatFsckReport(fsck);
          const std::size_t gl = cluster.scheme().split().global_layer.size();
          ASSERT_EQ(AliveLocalRecords(cluster), tree.size() - gl)
              << context << ": records lost or duplicated";

          // Stabilize before the next site so each crash starts from a
          // serviceable cluster.
          cluster.RunAdjustmentRound();
        }
    }
  }
}

}  // namespace
}  // namespace d2tree
