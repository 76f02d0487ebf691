// System-level metrics exactly as the paper defines them (Sec. III), plus
// the latency histogram the live-cluster harnesses report with.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "d2tree/nstree/tree.h"
#include "d2tree/partition/partition.h"

namespace d2tree {

/// Log2-bucketed latency histogram (microseconds). Single-writer; each
/// client thread of the concurrent replay harness owns one and the
/// aggregator merges them after the threads join, so recording needs no
/// synchronization.
class LatencyHistogram {
 public:
  void Record(double micros) noexcept;
  void Merge(const LatencyHistogram& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double mean() const noexcept;
  double max() const noexcept { return max_; }

  /// Approximate q-quantile (q in [0,1]): locates the bucket holding the
  /// q-th observation and interpolates linearly inside it (the top bucket
  /// ending at max()). Error is bounded by the bucket width (a factor of
  /// 2).
  double Quantile(double q) const noexcept;

 private:
  // Bucket i holds [2^(i-1), 2^i) µs; bucket 0 holds [0, 1) µs. 48 buckets
  // cover ~8.9 years, comfortably beyond any observable latency.
  static constexpr std::size_t kBuckets = 48;
  static std::size_t BucketOf(double micros) noexcept;

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Classification of one client operation by how it routed — the paper's
/// headline claim is precisely the shape of this distribution: GL hits
/// resolve at any replica (0 jumps), LL hits at the owner (0 jumps) or
/// after one forward on a stale index (1 jump), and only failures force a
/// failover retry. Latency percentiles are reported per class.
enum class OpClass : std::uint8_t {
  kGlHit = 0,  // target in the replicated global layer, served on entry
  kLl0Jump,    // local-layer target, entry server was the owner
  kLl1Jump,    // local-layer target, one forward to the owner
  kFailover,   // dead/unreachable server forced a failover retry
};
inline constexpr std::size_t kOpClassCount = 4;
const char* OpClassName(OpClass c);

/// Number of jumps jp_j (Def. 1) incurred when accessing node `target`:
/// transitions between consecutive nodes of the root→target path that live
/// on different MDSs. Replicated nodes never force a jump — the serving MDS
/// always holds a copy.
std::size_t JumpsFor(const NamespaceTree& tree, const Assignment& assignment,
                     NodeId target);

struct LocalityReport {
  /// Σ_j jp_j · p_j — the denominator of Eq. (1); for D2-Tree this reduces
  /// to Σ_{n_j ∈ LL} p_j (Eq. 7).
  double cost = 0.0;
  /// The paper's locality = 1 / cost; +inf when cost == 0 (single server or
  /// fully replicated).
  double locality = 0.0;
};

/// Global locality value of the system (Def. 3) from the popularity charged
/// on `tree` and the placement in `assignment`.
LocalityReport ComputeLocality(const NamespaceTree& tree,
                               const Assignment& assignment);

/// Per-MDS *routed* loads: each query is served by the MDS owning its
/// target node (prefix permission checks ride on client caches — the
/// standard assumption for the hash family, Sec. VII), so node n_j
/// contributes its individual popularity p'_j to its owner. Replicated
/// nodes can be served by any MDS, so their traffic spreads uniformly.
/// Note that for a D2-Tree subtree the owner's routed load equals the
/// subtree popularity s_i the mirror division balances by.
std::vector<double> ComputeLoads(const NamespaceTree& tree,
                                 const Assignment& assignment);

/// Literal Def. 5 loads L_k = Σ_{n_j ∈ m_k} p_j with p_j the *total*
/// popularity — every path hop is charged to the hop's owner (no client
/// caching). Kept for analysis of the definition itself.
std::vector<double> ComputeTraversalLoads(const NamespaceTree& tree,
                                          const Assignment& assignment);

struct BalanceReport {
  double mu = 0.0;                // ideal load factor μ = ΣL / ΣC
  double variance_term = 0.0;     // (1/(M-1)) Σ (L_k/C_k − μ)²
  double balance = 0.0;           // Eq. (2): 1 / variance_term (+inf if 0)
  std::vector<double> loads;      // L_k
  std::vector<double> relative;   // Re_k = L_k − μ·C_k
};

/// Load balance degree (Def. 5 / Eq. 2) from explicit loads.
BalanceReport ComputeBalanceFromLoads(const std::vector<double>& loads,
                                      const MdsCluster& cluster);

/// Convenience: ComputeLoads + ComputeBalanceFromLoads.
BalanceReport ComputeBalance(const NamespaceTree& tree,
                             const Assignment& assignment,
                             const MdsCluster& cluster);

/// Total update cost (Def. 4): Σ u_j over the replicated (global-layer)
/// node set GL. Schemes with no replication have zero update cost.
double ComputeUpdateCost(const NamespaceTree& tree,
                         const Assignment& assignment);

/// Fraction of trace-weighted accesses whose target is replicated — the
/// paper's "queries directed to global layer" statistic (Sec. VI-A).
double ReplicatedHitFraction(const NamespaceTree& tree,
                             const Assignment& assignment);

}  // namespace d2tree
