// Deterministic-seeded stress suite for the functional cluster under real
// concurrency: barrier-started client threads with fixed op counts race
// against dynamic-adjustment migrations and global-layer broadcasts, then
// the consistency audit must come back clean. Built as its own ctest
// target with LABEL "stress" so the default run can exclude it and the
// TSan CI job can select exactly it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "d2tree/mds/cluster.h"
#include "d2tree/sim/concurrent_replay.h"
#include "d2tree/trace/profiles.h"

namespace d2tree {
namespace {

constexpr std::uint64_t kSeed = 0x57E55ull;

class ConcurrentClusterTest : public ::testing::Test {
 protected:
  ConcurrentClusterTest()
      : workload_(GenerateWorkload(DtrProfile(0.05))),
        cluster_(workload_.tree, 4) {}

  std::vector<std::string> SamplePaths(std::size_t stride) const {
    std::vector<std::string> paths;
    for (NodeId id = 0; id < workload_.tree.size(); id += stride)
      paths.push_back(workload_.tree.PathOf(id));
    return paths;
  }

  Workload workload_;
  FunctionalCluster cluster_;
};

// Readers + a migration storm: every Stat must succeed (no record is ever
// observable "in flight") and the audit must hold afterwards. The subtrees
// owned by MDS 0 are made a hotspot before the churn starts, and one
// thread keeps hammering them, so the very first adjustment round already
// moves records under the readers, however slowly they run.
TEST_F(ConcurrentClusterTest, StatsNeverFailDuringAdjustmentChurn) {
  const auto paths = SamplePaths(7);
  std::vector<std::string> hot_paths;
  const auto& subtrees = cluster_.scheme().layers().subtrees;
  const auto& owners = cluster_.scheme().subtree_owners();
  for (std::size_t i = 0; i < subtrees.size(); ++i)
    if (owners[i] == 0) hot_paths.push_back(workload_.tree.PathOf(subtrees[i].root));
  ASSERT_FALSE(hot_paths.empty());
  for (const std::string& p : hot_paths)
    for (int hit = 0; hit < 200; ++hit) cluster_.Stat(p);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 1500;

  std::barrier start(kThreads + 1);
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto& p = t == 0 ? hot_paths[i % hot_paths.size()]
                               : paths[(static_cast<std::size_t>(t) * 8191 + i) %
                                       paths.size()];
        if (cluster_.Stat(p).status != MdsStatus::kOk) ++failures;
      }
    });
  }
  std::atomic<std::size_t> migrated{0};
  std::thread adjuster([&] {
    start.arrive_and_wait();
    for (int round = 0; round < 8; ++round) {
      migrated.fetch_add(cluster_.RunAdjustmentRound());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& th : threads) th.join();
  adjuster.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(cluster_.adjustment_rounds(), 8u);
  EXPECT_GT(migrated.load(), 0u);  // migration really raced the readers
  std::string error;
  EXPECT_TRUE(cluster_.CheckConsistency(&error)) << error;
}

// Mixed churn: local + global updates, stale-entry forwarding and
// migrations all at once. Checks the GL invariants: version advanced by
// exactly the number of acknowledged GL updates, and every replica ends at
// the master version (enforced inside CheckConsistency).
TEST_F(ConcurrentClusterTest, MixedUpdateChurnKeepsGlCoherent) {
  const auto& gl = cluster_.scheme().split().global_layer;
  ASSERT_GE(gl.size(), 2u);
  std::vector<std::string> gl_paths;
  for (std::size_t i = 0; i < gl.size() && i < 8; ++i)
    gl_paths.push_back(workload_.tree.PathOf(gl[i]));
  const auto read_paths = SamplePaths(11);

  const std::uint64_t version_before = cluster_.gl_master_version();
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 1000;

  std::barrier start(kThreads + 1);
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::size_t pick = static_cast<std::size_t>(t) * 131 + i;
        MdsStatus status;
        if (i % 5 == 0) {  // GL update → lock + broadcast
          status =
              cluster_.Update(gl_paths[pick % gl_paths.size()], i).status;
        } else if (i % 5 == 1) {  // stale entry → forwarding path
          status = cluster_
                       .StatVia(read_paths[pick % read_paths.size()],
                                static_cast<MdsId>(pick % 4))
                       .status;
        } else {
          status = cluster_.Stat(read_paths[pick % read_paths.size()]).status;
        }
        if (status != MdsStatus::kOk) ++failures;
      }
    });
  }
  std::thread adjuster([&] {
    start.arrive_and_wait();
    for (int round = 0; round < 6; ++round) cluster_.RunAdjustmentRound();
  });
  for (auto& th : threads) th.join();
  adjuster.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(cluster_.gl_master_version() - version_before,
            cluster_.gl_updates());
  EXPECT_GT(cluster_.gl_updates(), 0u);
  std::string error;
  EXPECT_TRUE(cluster_.CheckConsistency(&error)) << error;
}

// Adjustment rounds themselves may race with each other (e.g. a periodic
// background adjuster plus an operator-triggered round).
TEST_F(ConcurrentClusterTest, ConcurrentAdjustmentRoundsSerialize) {
  const auto paths = SamplePaths(13);
  constexpr int kAdjusters = 2;
  constexpr int kRoundsEach = 4;

  std::barrier start(kAdjusters + 2);
  std::vector<std::thread> threads;
  for (int a = 0; a < kAdjusters; ++a) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      for (int i = 0; i < kRoundsEach; ++i) cluster_.RunAdjustmentRound();
    });
  }
  std::atomic<std::size_t> failures{0};
  threads.emplace_back([&] {  // one reader keeps traffic (and popularity) live
    start.arrive_and_wait();
    for (int i = 0; i < 2000; ++i)
      if (cluster_.Stat(paths[i % paths.size()]).status != MdsStatus::kOk)
        ++failures;
  });
  start.arrive_and_wait();
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(cluster_.adjustment_rounds(),
            static_cast<std::uint64_t>(kAdjusters * kRoundsEach));
  std::string error;
  EXPECT_TRUE(cluster_.CheckConsistency(&error)) << error;
}

// Auditing while the cluster is under fire must itself be safe (it is the
// harness epilogue, but also a live monitoring call).
TEST_F(ConcurrentClusterTest, AuditDuringChurnIsSafe) {
  const auto paths = SamplePaths(17);
  std::barrier start(3);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> failures{0};

  std::thread reader([&] {
    start.arrive_and_wait();
    for (int i = 0; i < 3000; ++i)
      if (cluster_.Stat(paths[i % paths.size()]).status != MdsStatus::kOk)
        ++failures;
    stop.store(true);
  });
  std::thread auditor([&] {
    start.arrive_and_wait();
    while (!stop.load()) {
      std::string error;
      if (!cluster_.CheckConsistency(&error)) {
        ++failures;
        break;
      }
    }
  });
  start.arrive_and_wait();
  reader.join();
  auditor.join();
  EXPECT_EQ(failures.load(), 0u);
}

// The full harness: Zipf workload, stale entries, updates, background
// migration — deterministic op totals, clean audit, no failed ops.
TEST(ConcurrentReplayHarness, ZipfWorkloadEndsConsistent) {
  const Workload w = GenerateWorkload(LmbeProfile(0.05));
  FunctionalCluster cluster(w.tree, 4);

  ConcurrentReplayConfig cfg;
  cfg.thread_count = 4;
  cfg.ops_per_thread = 1200;
  cfg.update_fraction = 0.15;
  cfg.stale_entry_fraction = 0.10;
  cfg.min_adjustment_rounds = 4;
  cfg.adjustment_interval_us = 500;
  cfg.seed = kSeed;

  const ConcurrentReplayReport r = RunConcurrentReplay(cluster, w.tree, cfg);

  EXPECT_EQ(r.total_ops, cfg.thread_count * cfg.ops_per_thread);
  EXPECT_EQ(r.total_failed, 0u);
  EXPECT_EQ(r.total_ok, r.total_ops);
  EXPECT_GE(r.adjustment_rounds_run, cfg.min_adjustment_rounds);
  EXPECT_EQ(r.latency.count(), r.total_ops);
  EXPECT_GT(r.gl_updates, 0u);
  EXPECT_TRUE(r.consistent) << r.consistency_error;
  ASSERT_EQ(r.per_thread.size(), cfg.thread_count);
  for (const ThreadReplayStats& s : r.per_thread)
    EXPECT_EQ(s.ops, cfg.ops_per_thread);
}

// Trace-driven variant: every thread replays a disjoint slice of the
// profile trace; totals must cover the whole trace exactly once.
TEST(ConcurrentReplayHarness, TraceReplayCoversEveryRecord) {
  const Workload w = GenerateWorkload(RaProfile(0.03));
  FunctionalCluster cluster(w.tree, 4);

  ConcurrentReplayConfig cfg;
  cfg.thread_count = 4;
  cfg.min_adjustment_rounds = 3;
  cfg.adjustment_interval_us = 500;
  cfg.seed = kSeed;

  // Cap the replay to a prefix so the stress run stays fast under TSan.
  Trace prefix(std::vector<TraceRecord>(
      w.trace.records().begin(),
      w.trace.records().begin() +
          std::min<std::size_t>(w.trace.size(), 6000)));

  const ConcurrentReplayReport r =
      ReplayTraceConcurrently(cluster, w.tree, prefix, cfg);

  EXPECT_EQ(r.total_ops, prefix.size());
  EXPECT_EQ(r.total_failed, 0u);
  EXPECT_TRUE(r.consistent) << r.consistency_error;
}

// Determinism of the op stream: identical seeds must produce identical
// op-outcome aggregates (timing differs; outcomes must not).
TEST(ConcurrentReplayHarness, OpOutcomesDeterministicInSeed) {
  ConcurrentReplayConfig cfg;
  cfg.thread_count = 3;
  cfg.ops_per_thread = 800;
  cfg.update_fraction = 0.2;
  cfg.min_adjustment_rounds = 2;
  cfg.adjustment_interval_us = 0;
  cfg.seed = 0xF00D;

  const Workload w = GenerateWorkload(LmbeProfile(0.03));
  std::vector<std::size_t> ok_counts;
  for (int run = 0; run < 2; ++run) {
    FunctionalCluster cluster(w.tree, 3);
    const ConcurrentReplayReport r = RunConcurrentReplay(cluster, w.tree, cfg);
    EXPECT_EQ(r.total_failed, 0u);
    EXPECT_TRUE(r.consistent) << r.consistency_error;
    ok_counts.push_back(r.total_ok);
  }
  EXPECT_EQ(ok_counts[0], ok_counts[1]);
}

}  // namespace
}  // namespace d2tree
