// Tests for the trace module and the synthetic dataset profiles (the
// Table I / Table II substitutions, DESIGN.md §3).
#include <gtest/gtest.h>

#include <ostream>
#include <sstream>

#include "d2tree/core/layers.h"
#include "d2tree/core/splitter.h"
#include "d2tree/metrics/metrics.h"
#include "d2tree/trace/profiles.h"
#include "d2tree/trace/trace.h"

namespace d2tree {
namespace {

TEST(Trace, OpBreakdownComputesFractions) {
  Trace t({{OpType::kRead, 1},
           {OpType::kRead, 2},
           {OpType::kWrite, 1},
           {OpType::kUpdate, 3}});
  const auto b = t.OpBreakdown();
  EXPECT_DOUBLE_EQ(b[0], 0.5);
  EXPECT_DOUBLE_EQ(b[1], 0.25);
  EXPECT_DOUBLE_EQ(b[2], 0.25);
}

TEST(Trace, EmptyBreakdownIsZero) {
  const auto b = Trace{}.OpBreakdown();
  EXPECT_DOUBLE_EQ(b[0] + b[1] + b[2], 0.0);
}

TEST(Trace, ChargePopularityBumpsTargets) {
  NamespaceTree tree;
  const NodeId f1 = tree.GetOrCreatePath("/a/f1", NodeType::kFile);
  const Trace t({{OpType::kRead, f1}, {OpType::kWrite, f1}});
  t.ChargePopularity(tree);
  EXPECT_DOUBLE_EQ(tree.node(f1).individual_popularity, 2.0);
  EXPECT_DOUBLE_EQ(tree.node(tree.root()).subtree_popularity, 2.0);
}

TEST(Trace, SaveLoadRoundTrip) {
  Trace t({{OpType::kRead, 5}, {OpType::kUpdate, 9}});
  std::stringstream ss;
  t.Save(ss);
  const Trace u = Trace::Load(ss);
  ASSERT_EQ(u.size(), 2u);
  EXPECT_EQ(u.records()[0].op, OpType::kRead);
  EXPECT_EQ(u.records()[1].node, 9u);
}

TEST(Trace, LoadRejectsGarbage) {
  std::stringstream ss("bogus");
  EXPECT_THROW(Trace::Load(ss), std::runtime_error);
}

TEST(Trace, OpTypeNames) {
  EXPECT_STREQ(OpTypeName(OpType::kRead), "read");
  EXPECT_STREQ(OpTypeName(OpType::kWrite), "write");
  EXPECT_STREQ(OpTypeName(OpType::kUpdate), "update");
}

struct ProfileCase {
  const char* name;
  TraceProfile (*make)(double);
  double read, write, update;  // Table II row
  std::uint32_t max_depth;     // Table I column
};

// Print the case by name: gtest's default byte dump would put the name
// and maker pointers into each listed test name, which then changes from
// run to run with the load address.
void PrintTo(const ProfileCase& pc, std::ostream* os) { *os << pc.name; }

class ProfileSweep : public ::testing::TestWithParam<ProfileCase> {};

TEST_P(ProfileSweep, MatchesTableIAndTableII) {
  const ProfileCase& pc = GetParam();
  const Workload w = GenerateWorkload(pc.make(0.1));
  // Table I: maximum path depth.
  EXPECT_EQ(w.tree.MaxDepth(), pc.max_depth);
  // Table II: operation mix within 1% absolute.
  const auto b = w.trace.OpBreakdown();
  EXPECT_NEAR(b[0], pc.read, 0.01) << "read";
  EXPECT_NEAR(b[1], pc.write, 0.01) << "write";
  EXPECT_NEAR(b[2], pc.update, 0.005) << "update";
  // Popularity was charged.
  EXPECT_DOUBLE_EQ(w.tree.TotalIndividualPopularity(),
                   static_cast<double>(w.trace.size()));
}

TEST_P(ProfileSweep, DeterministicRegeneration) {
  const ProfileCase& pc = GetParam();
  const Workload a = GenerateWorkload(pc.make(0.02));
  const Workload b = GenerateWorkload(pc.make(0.02));
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); i += 97) {
    EXPECT_EQ(a.trace.records()[i].node, b.trace.records()[i].node);
    EXPECT_EQ(a.trace.records()[i].op, b.trace.records()[i].op);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, ProfileSweep,
    ::testing::Values(
        ProfileCase{"DTR", &DtrProfile, 0.67743, 0.26137, 0.06119, 49},
        ProfileCase{"LMBE", &LmbeProfile, 0.78877, 0.21108, 0.00015, 9},
        ProfileCase{"RA", &RaProfile, 0.47734, 0.36174, 0.16102, 13}),
    [](const ::testing::TestParamInfo<ProfileCase>& info) {
      return info.param.name;
    });

TEST(ProfileSkew, DtrDirectsMostQueriesToOnePercentGlobalLayer) {
  // Sec. VI-A: "In DTR, 83.06% queries are directed to global layer" with a
  // 1% GL. Our synthetic equivalent must land in that regime (>= 70%).
  const Workload w = GenerateWorkload(DtrProfile(0.2));
  const SplitResult r = SplitTreeToProportion(w.tree, 0.01);
  const SplitLayers layers = ExtractLayers(w.tree, r.global_layer);
  double gl_hits = 0.0, total = 0.0;
  for (NodeId id = 0; id < w.tree.size(); ++id) {
    total += w.tree.node(id).individual_popularity;
    if (layers.in_global[id]) gl_hits += w.tree.node(id).individual_popularity;
  }
  EXPECT_GT(gl_hits / total, 0.70);
}

TEST(ProfileSkew, LmbeKeepsMajorityOfQueriesInLocalLayer) {
  // Sec. VI-A: "58.57% of its queries are directed to local layer".
  const Workload w = GenerateWorkload(LmbeProfile(0.2));
  const SplitResult r = SplitTreeToProportion(w.tree, 0.01);
  const SplitLayers layers = ExtractLayers(w.tree, r.global_layer);
  double ll_hits = 0.0, total = 0.0;
  for (NodeId id = 0; id < w.tree.size(); ++id) {
    total += w.tree.node(id).individual_popularity;
    if (!layers.in_global[id]) ll_hits += w.tree.node(id).individual_popularity;
  }
  EXPECT_GT(ll_hits / total, 0.50);
}

TEST(ProfileSkew, RaUpdatesSkewToGlobalLayer) {
  // Sec. VI-A: RA has 16% updates, "of which 67% operations are directed to
  // global layer".
  const Workload w = GenerateWorkload(RaProfile(0.1));
  const SplitResult r = SplitTreeToProportion(w.tree, 0.01);
  const SplitLayers layers = ExtractLayers(w.tree, r.global_layer);
  double gl_updates = 0.0, updates = 0.0;
  for (const TraceRecord& rec : w.trace.records()) {
    if (rec.op != OpType::kUpdate) continue;
    updates += 1.0;
    if (layers.in_global[rec.node]) gl_updates += 1.0;
  }
  ASSERT_GT(updates, 0.0);
  EXPECT_GT(gl_updates / updates, 0.55);
}

TEST(ProfileScale, RecordCountsKeepPaperRatios) {
  // Table I ratio DTR : LMBE : RA ≈ 34.3M : 88.2M : 259.9M ≈ 1 : 2.57 : 7.57.
  const auto dtr = DtrProfile(1.0), lmbe = LmbeProfile(1.0), ra = RaProfile(1.0);
  const double r1 = static_cast<double>(lmbe.record_count) /
                    static_cast<double>(dtr.record_count);
  const double r2 = static_cast<double>(ra.record_count) /
                    static_cast<double>(dtr.record_count);
  EXPECT_NEAR(r1, 2.57, 0.6);
  EXPECT_NEAR(r2, 7.57, 1.2);
}

}  // namespace
}  // namespace d2tree
