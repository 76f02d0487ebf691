// Tests for the discrete-event cluster simulator: routing, queueing,
// locking, and the experiment harness.
#include <gtest/gtest.h>

#include <cmath>

#include "d2tree/core/d2tree.h"
#include "d2tree/sim/cluster_sim.h"
#include "d2tree/sim/experiment.h"
#include "d2tree/sim/route.h"
#include "d2tree/trace/profiles.h"

namespace d2tree {
namespace {

Workload SmallWorkload() { return GenerateWorkload(LmbeProfile(0.05)); }

/// Router that always sends to one fixed server — for queueing math tests.
class FixedRouter : public RoutePlanner {
 public:
  explicit FixedRouter(MdsId target) : target_(target) {}
  RoutePlan PlanRoute(const TraceRecord&, Rng&) const override {
    return {{target_}, false, false, false, {}};
  }

 private:
  MdsId target_;
};

/// Router spreading uniformly over all servers.
class UniformRouter : public RoutePlanner {
 public:
  explicit UniformRouter(std::size_t m) : m_(m) {}
  RoutePlan PlanRoute(const TraceRecord&, Rng& rng) const override {
    return {{static_cast<MdsId>(rng.NextBounded(m_))}, false, false, false, {}};
  }

 private:
  std::size_t m_;
};

Trace ReadTrace(std::size_t n) {
  std::vector<TraceRecord> records(n, {OpType::kRead, 0});
  return Trace(std::move(records));
}

TEST(ClusterSim, SingleServerThroughputIsServiceBound) {
  SimConfig cfg;
  cfg.client_count = 50;
  cfg.max_ops = 20000;
  const Trace trace = ReadTrace(100);
  const FixedRouter router(0);
  const SimResult r = RunClusterSim(trace, router, 4, cfg);
  EXPECT_EQ(r.completed_ops, 20000u);
  // One server at 1/service_time capacity = 10k ops/s; closed-loop keeps it
  // saturated, minus warmup slack.
  EXPECT_NEAR(r.throughput, 1.0 / cfg.service_time, 0.05 / cfg.service_time);
  EXPECT_GT(r.MaxUtilization(), 0.9);
  // Only server 0 did any work.
  EXPECT_GT(r.server_ops[0], 0u);
  EXPECT_EQ(r.server_ops[1], 0u);
}

TEST(ClusterSim, ThroughputScalesWithServers) {
  SimConfig cfg;
  cfg.client_count = 200;
  cfg.max_ops = 30000;
  const Trace trace = ReadTrace(100);
  const UniformRouter r4(4), r16(16);
  const double t4 = RunClusterSim(trace, r4, 4, cfg).throughput;
  const double t16 = RunClusterSim(trace, r16, 16, cfg).throughput;
  EXPECT_GT(t16, 2.5 * t4);
}

TEST(ClusterSim, ClientBoundWhenServersIdle) {
  SimConfig cfg;
  cfg.client_count = 4;  // tiny closed loop
  cfg.max_ops = 4000;
  const Trace trace = ReadTrace(100);
  const UniformRouter router(8);
  const SimResult r = RunClusterSim(trace, router, 8, cfg);
  // Latency floor = 2 hops + service; throughput = clients / latency.
  const double latency = 2 * cfg.net_latency + cfg.service_time;
  EXPECT_NEAR(r.mean_latency, latency, latency * 0.1);
  EXPECT_NEAR(r.throughput, 4.0 / latency, 4.0 / latency * 0.1);
  EXPECT_LT(r.MaxUtilization(), 0.5);
}

TEST(ClusterSim, MoreHopsMeanMoreLatency) {
  SimConfig cfg;
  cfg.client_count = 8;
  cfg.max_ops = 2000;
  const Trace trace = ReadTrace(100);

  class TwoHopRouter : public RoutePlanner {
   public:
    RoutePlan PlanRoute(const TraceRecord&, Rng&) const override {
      return {{0, 1}, false, false, false, {}};
    }
  };
  const FixedRouter one(0);
  const TwoHopRouter two;
  const double lat1 = RunClusterSim(trace, one, 2, cfg).mean_latency;
  const double lat2 = RunClusterSim(trace, two, 2, cfg).mean_latency;
  EXPECT_GT(lat2, lat1 + 0.9 * cfg.net_latency);
}

TEST(ClusterSim, GlobalUpdatesSerializePerNode) {
  SimConfig cfg;
  cfg.client_count = 50;
  cfg.max_ops = 5000;
  // All updates to the SAME node: the per-node lock serializes them.
  std::vector<TraceRecord> recs(100, {OpType::kUpdate, 7});
  const Trace trace(std::move(recs));

  class GlUpdateRouter : public RoutePlanner {
   public:
    RoutePlan PlanRoute(const TraceRecord&, Rng& rng) const override {
      return {{static_cast<MdsId>(rng.NextBounded(8))}, true, false, false, {}};
    }
  };
  const GlUpdateRouter router;
  const SimResult r = RunClusterSim(trace, router, 8, cfg);
  EXPECT_GT(r.lock_wait_total, 0.0);
  // Lock hold = net + 8*per_replica_write; throughput can't exceed 1/hold.
  const double hold = cfg.net_latency + 8 * cfg.per_replica_write;
  EXPECT_LT(r.throughput, 1.05 / hold);
}

TEST(ClusterSim, UpdatesToDistinctNodesDoNotSerialize) {
  SimConfig cfg;
  cfg.client_count = 50;
  cfg.max_ops = 5000;
  std::vector<TraceRecord> recs;
  for (NodeId n = 0; n < 100; ++n) recs.push_back({OpType::kUpdate, n});
  const Trace trace(std::move(recs));
  class GlUpdateRouter : public RoutePlanner {
   public:
    RoutePlan PlanRoute(const TraceRecord&, Rng& rng) const override {
      return {{static_cast<MdsId>(rng.NextBounded(8))}, true, false, false, {}};
    }
  };
  const GlUpdateRouter router;
  const SimResult r = RunClusterSim(trace, router, 8, cfg);
  const double hold = cfg.net_latency + 8 * cfg.per_replica_write;
  EXPECT_GT(r.throughput, 1.5 / hold);  // beats the single-lock ceiling
}

TEST(ClusterSim, DeterministicInSeed) {
  SimConfig cfg;
  cfg.max_ops = 3000;
  const Workload w = SmallWorkload();
  D2TreeScheme scheme;
  const Assignment a = scheme.Partition(w.tree, MdsCluster::Homogeneous(4));
  const D2TreeRouter router(w.tree, a, scheme.local_index(), 0.1);
  const SimResult r1 = RunClusterSim(w.trace, router, 4, cfg);
  const SimResult r2 = RunClusterSim(w.trace, router, 4, cfg);
  EXPECT_DOUBLE_EQ(r1.throughput, r2.throughput);
  EXPECT_EQ(r1.server_ops, r2.server_ops);
}

TEST(AssignmentRouterTest, FollowsOwnerChain) {
  NamespaceTree t;
  const NodeId c = t.GetOrCreatePath("/a/b/c", NodeType::kFile);
  Assignment a;
  a.mds_count = 3;
  a.owner = {0, 1, 1, 2};  // root, a, b, c
  const AssignmentRouter router(t, a);
  Rng rng(1);
  const RoutePlan plan = router.PlanRoute({OpType::kRead, c}, rng);
  ASSERT_EQ(plan.visits.size(), 3u);
  EXPECT_EQ(plan.visits[0], 0);
  EXPECT_EQ(plan.visits[1], 1);
  EXPECT_EQ(plan.visits[2], 2);
  EXPECT_FALSE(plan.global_update);
}

TEST(AssignmentRouterTest, ClientCacheSkipsAncestors) {
  NamespaceTree t;
  const NodeId c = t.GetOrCreatePath("/a/b/c", NodeType::kFile);
  Assignment a;
  a.mds_count = 3;
  a.owner = {0, 1, 1, 2};
  std::vector<bool> cached{true, true, false, false};  // root and /a cached
  const AssignmentRouter router(t, a, &cached);
  Rng rng(1);
  const RoutePlan plan = router.PlanRoute({OpType::kRead, c}, rng);
  ASSERT_EQ(plan.visits.size(), 2u);  // b's owner, then c's
  EXPECT_EQ(plan.visits[0], 1);
  EXPECT_EQ(plan.visits[1], 2);
}

TEST(AssignmentRouterTest, CachedTargetUpdateFlagged) {
  NamespaceTree t;
  const NodeId c = t.GetOrCreatePath("/a", NodeType::kDirectory);
  Assignment a;
  a.mds_count = 2;
  a.owner = {0, 1};
  std::vector<bool> cached{true, true};
  const AssignmentRouter router(t, a, &cached);
  Rng rng(1);
  EXPECT_TRUE(router.PlanRoute({OpType::kUpdate, c}, rng).cached_target_update);
  EXPECT_FALSE(router.PlanRoute({OpType::kRead, c}, rng).cached_target_update);
}

TEST(AssignmentRouterTest, FullyReplicatedPathGoesToRandomServer) {
  NamespaceTree t;
  const NodeId a1 = t.GetOrCreatePath("/a", NodeType::kDirectory);
  Assignment a;
  a.mds_count = 4;
  a.owner = {kReplicated, kReplicated};
  const AssignmentRouter router(t, a);
  Rng rng(5);
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 4000; ++i) {
    const RoutePlan plan = router.PlanRoute({OpType::kRead, a1}, rng);
    ASSERT_EQ(plan.visits.size(), 1u);
    ++hits[plan.visits[0]];
  }
  for (int h : hits) EXPECT_NEAR(h, 1000, 200);
}

TEST(D2TreeRouterTest, RoutesMatchIndexAndMissAddsHop) {
  const Workload w = SmallWorkload();
  D2TreeScheme scheme;
  const Assignment a = scheme.Partition(w.tree, MdsCluster::Homogeneous(6));

  const D2TreeRouter exact(w.tree, a, scheme.local_index(), 0.0);
  Rng rng(3);
  std::size_t ll_routes = 0;
  for (std::size_t i = 0; i < 2000; ++i) {
    const TraceRecord& rec = w.trace.records()[i];
    const RoutePlan plan = exact.PlanRoute(rec, rng);
    if (a.IsReplicated(rec.node)) {
      EXPECT_EQ(plan.visits.size(), 1u);
      EXPECT_EQ(plan.global_update, rec.op == OpType::kUpdate);
    } else {
      ASSERT_EQ(plan.visits.size(), 1u);
      EXPECT_EQ(plan.visits[0], a.OwnerOf(rec.node));
      ++ll_routes;
    }
  }
  EXPECT_GT(ll_routes, 0u);

  // With misses, some local-layer routes gain a forwarding hop.
  const D2TreeRouter lossy(w.tree, a, scheme.local_index(), 0.5);
  std::size_t forwarded = 0;
  for (std::size_t i = 0; i < 2000; ++i) {
    const TraceRecord& rec = w.trace.records()[i];
    if (a.IsReplicated(rec.node)) continue;
    const RoutePlan plan = lossy.PlanRoute(rec, rng);
    EXPECT_EQ(plan.visits.back(), a.OwnerOf(rec.node));
    forwarded += plan.visits.size() > 1;
  }
  EXPECT_GT(forwarded, 100u);
}

TEST(TopPopularityClientCacheTest, PicksHottestCrown) {
  const Workload w = SmallWorkload();
  const auto cache = TopPopularityClientCache(w.tree, 0.01);
  std::size_t count = 0;
  double min_cached = 1e300, max_uncached = 0.0;
  for (NodeId id = 0; id < w.tree.size(); ++id) {
    const double p = w.tree.node(id).subtree_popularity;
    if (cache[id]) {
      ++count;
      min_cached = std::min(min_cached, p);
    } else {
      max_uncached = std::max(max_uncached, p);
    }
  }
  EXPECT_NEAR(count, w.tree.size() / 100, 2);
  EXPECT_GE(min_cached, max_uncached);
  EXPECT_TRUE(cache[w.tree.root()]);
}

TEST(Experiment, ProducesSaneResultsForAllSchemes) {
  const Workload w = SmallWorkload();
  for (const char* id : {"d2tree", "static-subtree", "drop"}) {
    ExperimentOptions opt;
    opt.adjustment_rounds = 3;
    opt.sim.max_ops = 5000;
    const SchemeRunResult r = RunSchemeExperiment(id, w, 4, opt);
    EXPECT_EQ(r.scheme, id);
    EXPECT_GT(r.throughput, 0.0) << id;
    EXPECT_GT(r.locality, 0.0) << id;
    EXPECT_GT(r.balance, 0.0) << id;
    EXPECT_GT(r.mean_latency, 0.0) << id;
    EXPECT_LE(r.mean_latency, r.p99_latency) << id;
  }
}

TEST(Experiment, OnlyReplicatingSchemesPayUpdateCost) {
  const Workload w = SmallWorkload();
  ExperimentOptions opt;
  opt.adjustment_rounds = 2;
  opt.run_throughput_sim = false;
  EXPECT_GT(RunSchemeExperiment("d2tree", w, 4, opt).update_cost, 0.0);
  EXPECT_DOUBLE_EQ(RunSchemeExperiment("drop", w, 4, opt).update_cost, 0.0);
  EXPECT_DOUBLE_EQ(RunSchemeExperiment("hash", w, 4, opt).update_cost, 0.0);
}

}  // namespace
}  // namespace d2tree
