#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/rng.hpp"

namespace {

using picprk::util::CounterRng;
using picprk::util::SplitMix64;
using picprk::util::stochastic_round;

TEST(SplitMix64Test, DeterministicForSameSeed) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(SplitMix64Test, NextBelowRespectsBound) {
  SplitMix64 rng(9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(SplitMix64Test, NextBelowCoversRange) {
  SplitMix64 rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(CounterRngTest, PureFunctionOfKeyAndCounter) {
  CounterRng a(5, 10, 20);
  CounterRng b(5, 10, 20);
  EXPECT_EQ(a.at(0), b.at(0));
  EXPECT_EQ(a.at(123456), b.at(123456));
}

TEST(CounterRngTest, KeysSeparateStreams) {
  CounterRng a(5, 10, 20), b(5, 10, 21), c(5, 11, 20), d(6, 10, 20);
  EXPECT_NE(a.at(0), b.at(0));
  EXPECT_NE(a.at(0), c.at(0));
  EXPECT_NE(a.at(0), d.at(0));
}

TEST(CounterRngTest, DoubleAtUniformish) {
  // Mean of 10k uniform draws should be near 0.5.
  CounterRng rng(1234, 0, 0);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) sum += rng.double_at(static_cast<std::uint64_t>(i));
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(StochasticRound, IntegerExpectationIsExact) {
  EXPECT_EQ(stochastic_round(3.0, 0.99), 3u);
  EXPECT_EQ(stochastic_round(0.0, 0.0), 0u);
}

TEST(StochasticRound, FractionDecidesExtra) {
  EXPECT_EQ(stochastic_round(2.75, 0.5), 3u);   // 0.5 < 0.75 -> round up
  EXPECT_EQ(stochastic_round(2.75, 0.9), 2u);   // 0.9 >= 0.75 -> keep floor
}

TEST(StochasticRound, MeanMatchesExpectation) {
  CounterRng rng(77, 0, 0);
  const double mu = 1.37;
  double total = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    total += static_cast<double>(
        stochastic_round(mu, rng.double_at(static_cast<std::uint64_t>(i))));
  }
  EXPECT_NEAR(total / trials, mu, 0.02);
}

}  // namespace
