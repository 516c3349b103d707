#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"

namespace sci::rng {
namespace {

TEST(Xoshiro, DeterministicForFixedSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Xoshiro, SplitmixExpansionAvoidsZeroState) {
  // Even seed 0 must produce a working generator.
  Xoshiro256 gen(0);
  std::uint64_t acc = 0;
  for (int i = 0; i < 10; ++i) acc |= gen();
  EXPECT_NE(acc, 0u);
}

TEST(Xoshiro, JumpProducesDisjointStream) {
  Xoshiro256 a(7);
  Xoshiro256 b = a;  // same state
  b.jump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b());
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro, SplitAdvancesParent) {
  Xoshiro256 parent(9);
  Xoshiro256 copy = parent;
  Xoshiro256 child = parent.split();
  EXPECT_EQ(child, copy);       // child got the pre-jump state
  EXPECT_NE(parent, copy);      // parent moved past it
}

TEST(Xoshiro, TableJumpMatchesReferenceJump) {
  // jump() applies a precomputed linear map; it must be bit-identical
  // to the Blackman & Vigna reference loop for ANY state, including
  // repeated jumps (the streams every split() hands out depend on it).
  for (std::uint64_t seed : {0ull, 1ull, 9ull, 0xdeadbeefull, ~0ull}) {
    Xoshiro256 table(seed);
    Xoshiro256 reference(seed);
    for (int hop = 0; hop < 4; ++hop) {
      table.jump();
      reference.jump_reference();
      ASSERT_EQ(table, reference) << "seed " << seed << " hop " << hop;
    }
  }
}

TEST(Uniform01, InUnitInterval) {
  Xoshiro256 gen(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = uniform01(gen);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Uniform01, MeanNearHalf) {
  Xoshiro256 gen(6);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += uniform01(gen);
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(UniformBelow, RespectsBound) {
  Xoshiro256 gen(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(uniform_below(gen, bound), bound);
  }
}

TEST(UniformBelow, ZeroBoundReturnsZero) {
  Xoshiro256 gen(8);
  EXPECT_EQ(uniform_below(gen, 0), 0u);
}

TEST(UniformBelow, RoughlyUniform) {
  Xoshiro256 gen(9);
  std::array<int, 8> counts{};
  constexpr int kN = 80000;
  for (int i = 0; i < kN; ++i) ++counts[uniform_below(gen, 8)];
  for (int c : counts) EXPECT_NEAR(c, kN / 8, kN / 8 * 0.1);
}

struct MomentCase {
  const char* name;
  double expected_mean;
  double expected_var;
  double (*sample)(Xoshiro256&);
};

// gtest would otherwise print the raw bytes of the case, which include the
// addresses of `name` and `sample` and so change from run to run under ASLR.
void PrintTo(const MomentCase& mc, std::ostream* os) { *os << mc.name; }

class DistributionMoments : public ::testing::TestWithParam<MomentCase> {};

TEST_P(DistributionMoments, MeanAndVarianceMatch) {
  const auto& mc = GetParam();
  Xoshiro256 gen(0xfeed);
  constexpr int kN = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = mc.sample(gen);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(mean, mc.expected_mean, 0.03 * std::max(1.0, std::fabs(mc.expected_mean)))
      << mc.name;
  EXPECT_NEAR(var, mc.expected_var, 0.08 * std::max(1.0, mc.expected_var)) << mc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Samplers, DistributionMoments,
    ::testing::Values(
        MomentCase{"normal01", 0.0, 1.0, [](Xoshiro256& g) { return normal(g); }},
        MomentCase{"normal_3_2", 3.0, 4.0, [](Xoshiro256& g) { return normal(g, 3.0, 2.0); }},
        MomentCase{"exponential2", 0.5, 0.25,
                   [](Xoshiro256& g) { return exponential(g, 2.0); }},
        // lognormal(0, 0.5): mean exp(0.125), var (e^{0.25}-1)e^{0.25}
        MomentCase{"lognormal", std::exp(0.125),
                   (std::exp(0.25) - 1.0) * std::exp(0.25),
                   [](Xoshiro256& g) { return lognormal(g, 0.0, 0.5); }},
        // Pareto(1, 3): mean 3/2, var 3/4
        MomentCase{"pareto13", 1.5, 0.75, [](Xoshiro256& g) { return pareto(g, 1.0, 3.0); }},
        // Gamma(4, 0.5): mean 2, var 1
        MomentCase{"gamma4", 2.0, 1.0, [](Xoshiro256& g) { return gamma(g, 4.0, 0.5); }},
        // Gamma(0.5, 2): mean 1, var 2 (shape < 1 branch)
        MomentCase{"gamma_half", 1.0, 2.0,
                   [](Xoshiro256& g) { return gamma(g, 0.5, 2.0); }}),
    [](const auto& tpi) { return tpi.param.name; });

TEST(Bernoulli, FrequencyMatchesP) {
  Xoshiro256 gen(11);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += bernoulli(gen, 0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Discrete, FollowsWeights) {
  Xoshiro256 gen(12);
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::array<int, 3> counts{};
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[discrete(gen, weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kN), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kN), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(kN), 0.6, 0.01);
}

TEST(Shuffle, ProducesPermutation) {
  Xoshiro256 gen(13);
  std::vector<std::size_t> v(100);
  std::iota(v.begin(), v.end(), std::size_t{0});
  shuffle(gen, v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  // Not the identity (probability ~1/100!).
  std::vector<std::size_t> identity(100);
  std::iota(identity.begin(), identity.end(), std::size_t{0});
  EXPECT_NE(v, identity);
}

TEST(SampleN, ReturnsRequestedCount) {
  Xoshiro256 gen(14);
  const auto xs = sample_n(gen, 257, [](Xoshiro256& g) { return uniform01(g); });
  EXPECT_EQ(xs.size(), 257u);
}

}  // namespace
}  // namespace sci::rng
