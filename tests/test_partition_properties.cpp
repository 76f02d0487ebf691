// Property-based tests for the mirror-division subtree allocation
// (Sec. IV-B, Fig. 4): over many random seeds and tree shapes, the
// division must (a) assign every subtree exactly once to a live MDS,
// (b) give no MDS more popularity than its capacity interval plus the
// granularity bound (one subtree can straddle an interval edge, so the
// overshoot is at most the largest subtree share), and (c) be
// deterministic for a fixed seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "d2tree/core/allocator.h"
#include "d2tree/core/d2tree.h"
#include "d2tree/core/layers.h"
#include "d2tree/core/splitter.h"
#include "d2tree/nstree/builder.h"
#include "d2tree/trace/profiles.h"

namespace d2tree {
namespace {

constexpr int kTrials = 50;

struct RandomCase {
  NamespaceTree tree;
  SplitLayers layers;
  std::vector<double> capacities;
};

/// Random tree shape + exponential popularity + random split depth +
/// heterogeneous cluster, all driven by one seed.
RandomCase MakeCase(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  SyntheticTreeConfig cfg;
  cfg.node_count = 80 + rng.NextBounded(520);
  cfg.max_depth = 4 + static_cast<std::uint32_t>(rng.NextBounded(12));
  cfg.dir_ratio = 0.2 + 0.3 * rng.NextDouble();
  cfg.depth_bias = 0.6 * rng.NextDouble();
  cfg.root_fanout = 4 + static_cast<std::uint32_t>(rng.NextBounded(28));

  RandomCase c{BuildSyntheticTree(cfg, rng), {}, {}};
  for (NodeId id = 0; id < c.tree.size(); ++id)
    c.tree.AddAccess(id, rng.NextExponential(5.0));
  c.tree.RecomputeSubtreePopularity();

  const double fraction = 0.01 + 0.15 * rng.NextDouble();
  const SplitResult split = SplitTreeToProportion(c.tree, fraction);
  c.layers = ExtractLayers(c.tree, split.global_layer);

  const std::size_t mds = 2 + rng.NextBounded(7);
  for (std::size_t k = 0; k < mds; ++k)
    c.capacities.push_back(0.5 + 1.5 * rng.NextDouble());
  return c;
}

/// (b) above: share of MDS k <= capacity share of k + max subtree share.
void CheckCapacityBound(const std::vector<Subtree>& subtrees,
                        const std::vector<double>& capacities,
                        const std::vector<MdsId>& owners) {
  double total_pop = 0.0, max_pop = 0.0, total_cap = 0.0;
  for (const Subtree& s : subtrees) {
    total_pop += s.popularity;
    max_pop = std::max(max_pop, s.popularity);
  }
  for (double cp : capacities) total_cap += cp;
  if (total_pop <= 0.0) return;  // degenerate pool: division spreads by count

  std::vector<double> load(capacities.size(), 0.0);
  for (std::size_t i = 0; i < subtrees.size(); ++i)
    load[owners[i]] += subtrees[i].popularity;
  for (std::size_t k = 0; k < capacities.size(); ++k) {
    const double load_share = load[k] / total_pop;
    const double cap_share = capacities[k] / total_cap;
    const double max_share = max_pop / total_pop;
    EXPECT_LE(load_share, cap_share + max_share + 1e-9)
        << "MDS " << k << " exceeds its capacity interval by more than one "
        << "subtree (load " << load_share << ", interval " << cap_share
        << ", granularity " << max_share << ")";
  }
}

TEST(MirrorDivisionProperties, ExactDivisionOverRandomShapes) {
  for (int trial = 0; trial < kTrials; ++trial) {
    const RandomCase c = MakeCase(trial);
    const auto& subtrees = c.layers.subtrees;
    if (subtrees.empty()) continue;

    for (const SubtreeOrder order :
         {SubtreeOrder::kPopularityDesc, SubtreeOrder::kDfs}) {
      const auto owners = MirrorDivisionExact(subtrees, c.capacities, order);

      // (a) Exactly one owner per subtree, each a live MDS.
      ASSERT_EQ(owners.size(), subtrees.size()) << "trial " << trial;
      for (MdsId o : owners) {
        EXPECT_GE(o, 0);
        EXPECT_LT(o, static_cast<MdsId>(c.capacities.size()));
      }

      // (b) Capacity-interval bound.
      CheckCapacityBound(subtrees, c.capacities, owners);

      // (c) Re-running the exact division is bit-identical.
      EXPECT_EQ(owners, MirrorDivisionExact(subtrees, c.capacities, order))
          << "trial " << trial;
    }
  }
}

TEST(MirrorDivisionProperties, ZeroCapacityMdsReceivesNothing) {
  for (int trial = 0; trial < kTrials; ++trial) {
    RandomCase c = MakeCase(trial + 1000);
    if (c.layers.subtrees.empty() || c.capacities.size() < 2) continue;
    c.capacities[trial % c.capacities.size()] = 0.0;

    const auto owners = MirrorDivisionExact(c.layers.subtrees, c.capacities,
                                            SubtreeOrder::kPopularityDesc);
    std::vector<double> load(c.capacities.size(), 0.0);
    for (std::size_t i = 0; i < owners.size(); ++i)
      load[owners[i]] += c.layers.subtrees[i].popularity;
    for (std::size_t k = 0; k < c.capacities.size(); ++k) {
      if (c.capacities[k] == 0.0) {
        EXPECT_EQ(load[k], 0.0) << "trial " << trial;
      }
    }
  }
}

TEST(MirrorDivisionProperties, SampledDivisionDeterministicInSeed) {
  for (int trial = 0; trial < kTrials; ++trial) {
    const RandomCase c = MakeCase(trial + 2000);
    if (c.layers.subtrees.empty()) continue;

    AllocationConfig cfg;
    cfg.sample_count = 32;
    cfg.seed = 0xBEEF + trial;
    const auto a = AllocateSubtrees(c.layers.subtrees, c.capacities, cfg);
    const auto b = AllocateSubtrees(c.layers.subtrees, c.capacities, cfg);
    EXPECT_EQ(a, b) << "trial " << trial;
    ASSERT_EQ(a.size(), c.layers.subtrees.size());
    for (MdsId o : a) {
      EXPECT_GE(o, 0);
      EXPECT_LT(o, static_cast<MdsId>(c.capacities.size()));
    }
  }
}

// Full-scheme closure: Partition() must place every namespace node exactly
// once (or replicate it into a parent-closed crown), for any shape, and be
// deterministic because every random choice flows from the config seed.
TEST(PartitionProperties, SchemePlacementIsAPartition) {
  for (int trial = 0; trial < 12; ++trial) {
    const RandomCase c = MakeCase(trial + 3000);
    const MdsCluster cluster{c.capacities};

    D2TreeScheme scheme;
    const Assignment a = scheme.Partition(c.tree, cluster);
    ASSERT_TRUE(a.Validate(c.tree, /*require_connected_replicated=*/true))
        << "trial " << trial;
    ASSERT_EQ(a.owner.size(), c.tree.size());

    D2TreeScheme scheme2;
    const Assignment b = scheme2.Partition(c.tree, cluster);
    EXPECT_EQ(a.owner, b.owner) << "trial " << trial;
  }
}

// The Fig. 4 guarantee end-to-end on a realistic workload: mirror division
// keeps the subtree-popularity loads within the granularity bound of the
// capacity shares for the paper-shaped datasets too.
TEST(PartitionProperties, ProfileWorkloadsRespectCapacityBound) {
  for (double scale : {0.02, 0.05}) {
    const Workload w = GenerateWorkload(LmbeProfile(scale));
    D2TreeScheme scheme;
    const MdsCluster cluster = MdsCluster::Homogeneous(8);
    scheme.Partition(w.tree, cluster);
    const auto& subtrees = scheme.layers().subtrees;
    ASSERT_FALSE(subtrees.empty());
    CheckCapacityBound(subtrees, cluster.capacities,
                       scheme.subtree_owners());
  }
}

}  // namespace
}  // namespace d2tree
