// Statistical validation of the random-walk sampling that feeds the
// sampled mirror division (Sec. IV-B, Thm. 2): the empirical CDF of a
// sampled pool must stay within the Dvoretzky–Kiefer–Wolfowitz epsilon of
// the full-pool CDF at the configured confidence level. All trials are
// deterministic in their seeds, so these tests cannot flake; the allowed
// violation counts come from the DKW failure probability itself.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "d2tree/common/dkw.h"
#include "d2tree/common/histogram.h"
#include "d2tree/common/random_walk.h"
#include "d2tree/common/rng.h"

namespace d2tree {
namespace {

constexpr std::size_t kPoolSize = 400;
constexpr double kFailProb = 1e-3;  // per-trial DKW confidence: 1 - 10^-3

/// The DKW epsilon for k samples at failure probability p:
/// 2 exp(-2 k eps^2) = p  =>  eps = sqrt(ln(2/p) / (2k)).
double DkwEpsilon(std::size_t k, double p) {
  return std::sqrt(std::log(2.0 / p) / (2.0 * static_cast<double>(k)));
}

/// A pending pool of subtree popularity values: exponential with a heavy
/// right tail, like the skew the profiles produce. Deterministic in seed.
std::vector<double> MakePool(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> pool;
  pool.reserve(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i)
    pool.push_back(rng.NextExponential(10.0));
  return pool;
}

std::vector<double> ValuesAt(const std::vector<double>& pool,
                             const std::vector<std::size_t>& idx) {
  std::vector<double> v;
  v.reserve(idx.size());
  for (std::size_t i : idx) v.push_back(pool[i]);
  return v;
}

// MH walk on the complete graph: every step is a uniform jump, so the
// samples are iid uniform over the pool and the DKW bound applies exactly.
// This is the indexable-pool case the Monitor actually runs.
TEST(RandomWalkDkw, CompleteGraphSamplesWithinEpsilon) {
  const std::vector<double> pool = MakePool(0xD0D0);
  const EmpiricalCdf full(pool);
  const std::size_t k = DkwSampleCountFor(DkwEpsilon(200, kFailProb), kFailProb);
  ASSERT_GE(k, 190u);  // sanity: inversion is consistent
  const double eps = DkwEpsilon(k, kFailProb);

  const RandomWalkSampler sampler(
      kPoolSize, [](std::size_t) { return kPoolSize - 1; },
      [](std::size_t v, std::size_t i) { return i < v ? i : i + 1; });

  constexpr int kTrialCount = 20;
  int violations = 0;
  for (int trial = 0; trial < kTrialCount; ++trial) {
    Rng rng(0xAB5000 + trial);
    const auto idx = sampler.Sample(rng, k, /*burn_in=*/8, /*thin=*/1);
    ASSERT_EQ(idx.size(), k);
    const EmpiricalCdf sampled(ValuesAt(pool, idx));
    if (sampled.KsDistance(full) > eps) ++violations;
  }
  // Per-trial failure probability is 1e-3; over 20 deterministic trials
  // even one violation would already be a 50x exceedance.
  EXPECT_LE(violations, 1);
}

// MH walk on a hypercube (degree log2 n, diameter log2 n): rapid mixing,
// but consecutive samples are only approximately independent, so the
// epsilon carries a slack factor. This exercises the sampler on a sparse
// neighbor structure like a real distributed pending pool would have.
TEST(RandomWalkDkw, HypercubeWalkTracksFullPoolCdf) {
  constexpr std::size_t kDim = 9;  // 512 vertices
  constexpr std::size_t kVertices = 1u << kDim;
  Rng pool_rng(0xCAFE);
  std::vector<double> pool;
  pool.reserve(kVertices);
  for (std::size_t i = 0; i < kVertices; ++i)
    pool.push_back(pool_rng.NextExponential(10.0));
  const EmpiricalCdf full(pool);

  const RandomWalkSampler sampler(
      kVertices, [](std::size_t) { return kDim; },
      [](std::size_t v, std::size_t i) { return v ^ (1u << i); });

  constexpr std::size_t kSamples = 256;
  const double eps = 1.5 * DkwEpsilon(kSamples, kFailProb);  // slack: thinned
                                                             // MH, not iid
  constexpr int kTrialCount = 15;
  int violations = 0;
  for (int trial = 0; trial < kTrialCount; ++trial) {
    Rng rng(0x5A5A + trial * 7919);
    const auto idx = sampler.Sample(rng, kSamples, /*burn_in=*/64, /*thin=*/8);
    const EmpiricalCdf sampled(ValuesAt(pool, idx));
    if (sampled.KsDistance(full) > eps) ++violations;
  }
  EXPECT_LE(violations, 1);
}

// The direct uniform-index sampler (what MirrorDivisionSampled uses) must
// satisfy the plain DKW bound, and more samples must tighten the fit.
TEST(UniformSampleDkw, IndexSamplerWithinEpsilonAndMonotoneInK) {
  const std::vector<double> pool = MakePool(0xFEED);
  const EmpiricalCdf full(pool);

  for (const std::size_t k : {100u, 200u, 380u}) {
    const double eps = DkwEpsilon(k, kFailProb);
    int violations = 0;
    constexpr int kTrialCount = 20;
    for (int trial = 0; trial < kTrialCount; ++trial) {
      Rng rng(0xF1E57 + trial * 31 + k);
      const auto idx = UniformIndexSample(rng, kPoolSize, k);
      ASSERT_EQ(idx.size(), k);
      const EmpiricalCdf sampled(ValuesAt(pool, idx));
      if (sampled.KsDistance(full) > eps) ++violations;
    }
    EXPECT_LE(violations, 1) << "k=" << k;
  }

  // Average KS distance must shrink as the sample budget grows (Thm. 2's
  // eps ~ 1/sqrt(k)).
  const auto mean_ks = [&](std::size_t k) {
    double total = 0.0;
    for (int trial = 0; trial < 10; ++trial) {
      Rng rng(0xB00 + trial);
      total += EmpiricalCdf(ValuesAt(pool, UniformIndexSample(rng, kPoolSize, k)))
                   .KsDistance(full);
    }
    return total / 10.0;
  };
  EXPECT_LT(mean_ks(320), mean_ks(40));
}

// DkwSampleCountFor must invert DkwTailProbability: at the returned k the
// bound holds, one sample fewer and it does not.
TEST(UniformSampleDkw, SampleCountInversionIsTight) {
  for (const double eps : {0.05, 0.1, 0.2}) {
    for (const double p : {1e-2, 1e-3}) {
      const std::size_t k = DkwSampleCountFor(eps, p);
      EXPECT_LE(DkwTailProbability(k, eps), p);
      if (k > 1) {
        EXPECT_GT(DkwTailProbability(k - 1, eps), p);
      }
    }
  }
}

}  // namespace
}  // namespace d2tree
