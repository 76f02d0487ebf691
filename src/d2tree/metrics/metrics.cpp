#include "d2tree/metrics/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace d2tree {

const char* OpClassName(OpClass c) {
  switch (c) {
    case OpClass::kGlHit:
      return "GL hit";
    case OpClass::kLl0Jump:
      return "LL 0-jump";
    case OpClass::kLl1Jump:
      return "LL 1-jump";
    case OpClass::kFailover:
      return "failover";
  }
  return "?";
}

std::size_t LatencyHistogram::BucketOf(double micros) noexcept {
  if (micros < 1.0) return 0;
  const int exp = std::ilogb(micros);  // floor(log2) for micros >= 1
  return std::min<std::size_t>(static_cast<std::size_t>(exp) + 1, kBuckets - 1);
}

void LatencyHistogram::Record(double micros) noexcept {
  micros = std::max(micros, 0.0);
  ++buckets_[BucketOf(micros)];
  ++count_;
  sum_ += micros;
  max_ = std::max(max_, micros);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

double LatencyHistogram::mean() const noexcept {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double LatencyHistogram::Quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
    // The top bucket ends at the largest observation: interpolating to
    // its nominal top would report quantiles above the maximum.
    const double hi = std::min(std::ldexp(1.0, static_cast<int>(i)), max_);
    seen += buckets_[i];
    if (static_cast<double>(seen) >= rank) {
      const double into =
          1.0 - (static_cast<double>(seen) - rank) /
                    static_cast<double>(buckets_[i]);
      return lo + into * (hi - lo);
    }
  }
  return max_;
}

std::size_t JumpsFor(const NamespaceTree& tree, const Assignment& assignment,
                     NodeId target) {
  // Walk root → target. Replicated nodes in the *middle* of a pinned walk
  // are transparent (the serving MDS holds a copy), but a path that starts
  // in the replicated crown is served by a random replica, so descending to
  // the first owned node costs one hop — this is what gives every
  // local-layer node jp_j = 1 in Eq. (7). The initial contact with the
  // first MDS of a non-replicated path is free (it is the request itself).
  enum : MdsId { kUnpinned = -2, kAnyReplica = -3 };
  std::size_t jumps = 0;
  MdsId current = kUnpinned;
  const auto step = [&](NodeId v) {
    const MdsId o = assignment.OwnerOf(v);
    if (o == kReplicated) {
      if (current == kUnpinned) current = kAnyReplica;
      return;  // transparent otherwise
    }
    if (current == kAnyReplica || (current != kUnpinned && current != o))
      ++jumps;
    current = o;
  };
  for (NodeId a : tree.AncestorsOf(target)) step(a);
  step(target);
  return jumps;
}

LocalityReport ComputeLocality(const NamespaceTree& tree,
                               const Assignment& assignment) {
  assert(assignment.owner.size() == tree.size());
  LocalityReport report;
  for (NodeId id = 0; id < tree.size(); ++id) {
    const double p = tree.node(id).subtree_popularity;
    if (p <= 0.0) continue;
    const std::size_t jp = JumpsFor(tree, assignment, id);
    if (jp > 0) report.cost += static_cast<double>(jp) * p;
  }
  report.locality = report.cost > 0.0
                        ? 1.0 / report.cost
                        : std::numeric_limits<double>::infinity();
  return report;
}

namespace {

std::vector<double> LoadsImpl(const NamespaceTree& tree,
                              const Assignment& assignment,
                              bool traversal_weighted) {
  assert(assignment.mds_count > 0);
  std::vector<double> loads(assignment.mds_count, 0.0);
  const double m = static_cast<double>(assignment.mds_count);
  for (NodeId id = 0; id < tree.size(); ++id) {
    const MetaNode& n = tree.node(id);
    const double p =
        traversal_weighted ? n.subtree_popularity : n.individual_popularity;
    if (p <= 0.0) continue;
    const MdsId o = assignment.OwnerOf(id);
    if (o == kReplicated) {
      const double share = p / m;
      for (auto& l : loads) l += share;
    } else {
      loads[o] += p;
    }
  }
  return loads;
}

}  // namespace

std::vector<double> ComputeLoads(const NamespaceTree& tree,
                                 const Assignment& assignment) {
  return LoadsImpl(tree, assignment, /*traversal_weighted=*/false);
}

std::vector<double> ComputeTraversalLoads(const NamespaceTree& tree,
                                          const Assignment& assignment) {
  return LoadsImpl(tree, assignment, /*traversal_weighted=*/true);
}

BalanceReport ComputeBalanceFromLoads(const std::vector<double>& loads,
                                      const MdsCluster& cluster) {
  assert(loads.size() == cluster.size());
  assert(loads.size() >= 2 && "balance degree needs M >= 2 (Eq. 2)");
  BalanceReport report;
  report.loads = loads;
  double total_load = 0.0;
  for (double l : loads) total_load += l;
  const double total_cap = cluster.TotalCapacity();
  report.mu = total_cap > 0.0 ? total_load / total_cap : 0.0;

  report.relative.resize(loads.size());
  double sum_sq = 0.0;
  for (std::size_t k = 0; k < loads.size(); ++k) {
    const double ck = cluster.capacities[k];
    report.relative[k] = loads[k] - report.mu * ck;
    const double dev = loads[k] / ck - report.mu;
    sum_sq += dev * dev;
  }
  report.variance_term = sum_sq / static_cast<double>(loads.size() - 1);
  report.balance = report.variance_term > 0.0
                       ? 1.0 / report.variance_term
                       : std::numeric_limits<double>::infinity();
  return report;
}

BalanceReport ComputeBalance(const NamespaceTree& tree,
                             const Assignment& assignment,
                             const MdsCluster& cluster) {
  return ComputeBalanceFromLoads(ComputeLoads(tree, assignment), cluster);
}

double ComputeUpdateCost(const NamespaceTree& tree,
                         const Assignment& assignment) {
  double cost = 0.0;
  for (NodeId id = 0; id < tree.size(); ++id)
    if (assignment.IsReplicated(id)) cost += tree.node(id).update_cost;
  return cost;
}

double ReplicatedHitFraction(const NamespaceTree& tree,
                             const Assignment& assignment) {
  double total = 0.0, replicated = 0.0;
  for (NodeId id = 0; id < tree.size(); ++id) {
    const double p = tree.node(id).individual_popularity;
    total += p;
    if (assignment.IsReplicated(id)) replicated += p;
  }
  return total > 0.0 ? replicated / total : 0.0;
}

}  // namespace d2tree
