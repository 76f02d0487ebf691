// Tests for the paper's metric definitions (Sec. III): jumps (Def. 1),
// locality (Def. 3 / Eq. 7), loads and balance degree (Def. 5 / Eq. 2),
// update cost (Def. 4) — and the latency histogram the benches report.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "d2tree/metrics/metrics.h"

namespace d2tree {
namespace {

/// /a/b/c chain plus /x; lets us craft exact jump patterns.
struct Fixture {
  NamespaceTree tree;
  NodeId a, b, c, x;

  Fixture() {
    c = tree.GetOrCreatePath("/a/b/c", NodeType::kFile);
    b = tree.Resolve("/a/b");
    a = tree.Resolve("/a");
    x = tree.GetOrCreatePath("/x", NodeType::kFile);
  }

  Assignment Assign(std::vector<MdsId> owners, std::size_t m) {
    Assignment asg;
    asg.mds_count = m;
    asg.owner.assign(tree.size(), 0);
    // owners ordered as {root, a, b, c, x}
    asg.owner[tree.root()] = owners[0];
    asg.owner[a] = owners[1];
    asg.owner[b] = owners[2];
    asg.owner[c] = owners[3];
    asg.owner[x] = owners[4];
    return asg;
  }
};

// Interpolating inside a power-of-two bucket must not run past the largest
// observation: 939.64 falls in [512, 1024), whose top is 1024.
TEST(LatencyHistogram, QuantileNeverExceedsMax) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.Record(600.0);
  h.Record(939.64);
  EXPECT_DOUBLE_EQ(h.max(), 939.64);
  for (const double q : {0.5, 0.9, 0.99, 0.999, 1.0})
    EXPECT_LE(h.Quantile(q), h.max()) << "q = " << q;
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 939.64);
}

TEST(Jumps, ZeroWhenWholePathOnOneMds) {
  Fixture f;
  const Assignment a = f.Assign({0, 0, 0, 0, 1}, 2);
  EXPECT_EQ(JumpsFor(f.tree, a, f.c), 0u);
}

TEST(Jumps, CountsOwnerTransitions) {
  Fixture f;
  // root:0 a:1 b:0 c:1 → 3 transitions.
  const Assignment a = f.Assign({0, 1, 0, 1, 0}, 2);
  EXPECT_EQ(JumpsFor(f.tree, a, f.c), 3u);
}

TEST(Jumps, ReplicatedCrownCostsOneHopIntoLocalLayer) {
  Fixture f;
  // root,a replicated; b,c on MDS 1 → one hop (random replica → owner),
  // the jp_j = 1 of Eq. (7).
  const Assignment a = f.Assign({kReplicated, kReplicated, 1, 1, 0}, 2);
  EXPECT_EQ(JumpsFor(f.tree, a, f.c), 1u);
  // root,a replicated; b on 0, c on 1 → crown hop + owner change = 2.
  const Assignment b = f.Assign({kReplicated, kReplicated, 0, 1, 0}, 2);
  EXPECT_EQ(JumpsFor(f.tree, b, f.c), 2u);
  // A replicated node *between* two owned ones is transparent.
  const Assignment cse = f.Assign({0, kReplicated, 1, 1, 0}, 2);
  EXPECT_EQ(JumpsFor(f.tree, cse, f.c), 1u);
  // Target fully inside the crown: no hop at all.
  const Assignment gl = f.Assign({kReplicated, kReplicated, 1, 1, 0}, 2);
  EXPECT_EQ(JumpsFor(f.tree, gl, f.a), 0u);
}

TEST(Jumps, RootTargetIsFree) {
  Fixture f;
  const Assignment a = f.Assign({0, 1, 0, 1, 1}, 2);
  EXPECT_EQ(JumpsFor(f.tree, a, f.tree.root()), 0u);
}

TEST(Locality, SingleServerIsInfinite) {
  Fixture f;
  f.tree.AddAccess(f.c, 10);
  f.tree.RecomputeSubtreePopularity();
  const Assignment a = f.Assign({0, 0, 0, 0, 0}, 1);
  const LocalityReport r = ComputeLocality(f.tree, a);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
  EXPECT_TRUE(std::isinf(r.locality));
}

TEST(Locality, MatchesHandComputation) {
  Fixture f;
  f.tree.AddAccess(f.c, 4);  // p: c=4, b=4, a=4, root=4
  f.tree.AddAccess(f.x, 6);  // x=6, root=10
  f.tree.RecomputeSubtreePopularity();
  // root:0 a:1 b:1 c:0 x:0 → jp(a)=1·4, jp(b)=1·4, jp(c)=2·4, jp(x)=0.
  const Assignment a = f.Assign({0, 1, 1, 0, 0}, 2);
  const LocalityReport r = ComputeLocality(f.tree, a);
  EXPECT_DOUBLE_EQ(r.cost, 4 + 4 + 8);
  EXPECT_DOUBLE_EQ(r.locality, 1.0 / 16.0);
}

TEST(Locality, Eq7FormForD2TreeStyleAssignment) {
  // GL = {root, a}; subtree {b, c} on MDS 0; {x} on MDS 1.
  Fixture f;
  f.tree.AddAccess(f.b, 2);
  f.tree.AddAccess(f.c, 3);
  f.tree.AddAccess(f.x, 5);
  f.tree.RecomputeSubtreePopularity();
  const Assignment a = f.Assign({kReplicated, kReplicated, 0, 0, 1}, 2);
  const LocalityReport r = ComputeLocality(f.tree, a);
  // Eq. (7): Σ_{LL} p_j = p_b + p_c + p_x = 5 + 3 + 5.
  EXPECT_DOUBLE_EQ(r.cost, 13.0);
}

TEST(Loads, RoutedModelChargesTargetsOwner) {
  Fixture f;
  f.tree.AddAccess(f.c, 8);   // target on MDS 0
  f.tree.AddAccess(f.a, 6);   // target replicated → spread 3 + 3
  f.tree.RecomputeSubtreePopularity();
  const Assignment a = f.Assign({kReplicated, kReplicated, 0, 0, 1}, 2);
  const auto loads = ComputeLoads(f.tree, a);
  EXPECT_DOUBLE_EQ(loads[0], 8 + 3);
  EXPECT_DOUBLE_EQ(loads[1], 3);
}

TEST(Loads, RoutedSumEqualsQueryVolume) {
  Fixture f;
  f.tree.AddAccess(f.c, 3);
  f.tree.AddAccess(f.x, 7);
  f.tree.RecomputeSubtreePopularity();
  const Assignment a = f.Assign({kReplicated, 1, 0, 1, 0}, 2);
  const auto loads = ComputeLoads(f.tree, a);
  EXPECT_NEAR(loads[0] + loads[1], 10.0, 1e-9);  // one unit per query
}

TEST(Loads, TraversalModelMatchesDef5) {
  Fixture f;
  f.tree.AddAccess(f.c, 8);
  f.tree.RecomputeSubtreePopularity();
  // root replicated (p=8 spread as 4+4); a,b,c on MDS 0 (p = 8,8,8).
  const Assignment a = f.Assign({kReplicated, 0, 0, 0, 1}, 2);
  const auto loads = ComputeTraversalLoads(f.tree, a);
  EXPECT_DOUBLE_EQ(loads[0], 8 + 8 + 8 + 4);
  EXPECT_DOUBLE_EQ(loads[1], 4);
}

TEST(Loads, TraversalSumEqualsTotalPopularity) {
  // Eq. (5): Σ_k L_k = Σ_j p_j under the literal Def. 5 accounting.
  Fixture f;
  f.tree.AddAccess(f.c, 3);
  f.tree.AddAccess(f.x, 7);
  f.tree.RecomputeSubtreePopularity();
  const Assignment a = f.Assign({kReplicated, 1, 0, 1, 0}, 2);
  const auto loads = ComputeTraversalLoads(f.tree, a);
  double total_p = 0.0;
  for (NodeId id = 0; id < f.tree.size(); ++id)
    total_p += f.tree.node(id).subtree_popularity;
  EXPECT_NEAR(loads[0] + loads[1], total_p, 1e-9);
}

TEST(Balance, PerfectBalanceIsInfinite) {
  const MdsCluster cluster = MdsCluster::Homogeneous(3);
  const BalanceReport r = ComputeBalanceFromLoads({5, 5, 5}, cluster);
  EXPECT_TRUE(std::isinf(r.balance));
  EXPECT_DOUBLE_EQ(r.mu, 5.0);
}

TEST(Balance, MatchesEq2ByHand) {
  const MdsCluster cluster = MdsCluster::Homogeneous(2);
  // L = {6, 2}: mu = 4; deviations ±2 → variance term = (4+4)/1 = 8.
  const BalanceReport r = ComputeBalanceFromLoads({6, 2}, cluster);
  EXPECT_DOUBLE_EQ(r.variance_term, 8.0);
  EXPECT_DOUBLE_EQ(r.balance, 1.0 / 8.0);
  EXPECT_DOUBLE_EQ(r.relative[0], 2.0);
  EXPECT_DOUBLE_EQ(r.relative[1], -2.0);
}

TEST(Balance, HeterogeneousCapacityIdealLoad) {
  // C = {1, 3}; L = {2, 6} is perfectly proportional → infinite balance.
  const MdsCluster cluster{std::vector<double>{1.0, 3.0}};
  const BalanceReport r = ComputeBalanceFromLoads({2, 6}, cluster);
  EXPECT_DOUBLE_EQ(r.mu, 2.0);
  EXPECT_TRUE(std::isinf(r.balance));
}

TEST(Balance, WorseSpreadGivesLowerBalance) {
  const MdsCluster cluster = MdsCluster::Homogeneous(4);
  const double even = ComputeBalanceFromLoads({5, 5, 5, 5.2}, cluster).balance;
  const double skew = ComputeBalanceFromLoads({1, 1, 1, 17.2}, cluster).balance;
  EXPECT_GT(even, skew);
}

TEST(UpdateCost, SumsGlobalLayerCosts) {
  Fixture f;
  f.tree.SetUpdateCost(f.tree.root(), 2.0);
  f.tree.SetUpdateCost(f.a, 3.0);
  const Assignment a = f.Assign({kReplicated, kReplicated, 0, 0, 1}, 2);
  EXPECT_DOUBLE_EQ(ComputeUpdateCost(f.tree, a), 5.0);
  const Assignment none = f.Assign({0, 0, 0, 0, 1}, 2);
  EXPECT_DOUBLE_EQ(ComputeUpdateCost(f.tree, none), 0.0);
}

TEST(ReplicatedHitFraction, WeightsByIndividualPopularity) {
  Fixture f;
  f.tree.AddAccess(f.a, 3);   // will be replicated
  f.tree.AddAccess(f.c, 1);   // local
  f.tree.RecomputeSubtreePopularity();
  const Assignment a = f.Assign({kReplicated, kReplicated, 0, 0, 1}, 2);
  EXPECT_DOUBLE_EQ(ReplicatedHitFraction(f.tree, a), 0.75);
}

TEST(AssignmentValidate, CatchesBadOwners) {
  Fixture f;
  Assignment a = f.Assign({0, 0, 0, 0, 1}, 2);
  EXPECT_TRUE(a.Validate(f.tree));
  a.owner[f.c] = 7;  // out of range
  EXPECT_FALSE(a.Validate(f.tree));
  a.owner[f.c] = 1;
  a.owner.pop_back();  // size mismatch
  EXPECT_FALSE(a.Validate(f.tree));
}

TEST(AssignmentValidate, ConnectedCrownRequirement) {
  Fixture f;
  // b replicated but parent a is not → crown disconnected.
  Assignment a = f.Assign({kReplicated, 0, kReplicated, 0, 1}, 2);
  EXPECT_TRUE(a.Validate(f.tree, false));
  EXPECT_FALSE(a.Validate(f.tree, true));
}

TEST(CountMovedNodes, CountsDifferences) {
  Fixture f;
  const Assignment a = f.Assign({0, 0, 0, 0, 1}, 2);
  Assignment b = a;
  EXPECT_EQ(CountMovedNodes(a, b), 0u);
  b.owner[f.c] = 1;
  b.owner[f.x] = 0;
  EXPECT_EQ(CountMovedNodes(a, b), 2u);
}

}  // namespace
}  // namespace d2tree
