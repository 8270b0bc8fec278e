// Tests for the deterministic RNG substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace dlb {
namespace {

TEST(Splitmix64, IsDeterministic)
{
    std::uint64_t s1 = 42, s2 = 42;
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(splitmix64(s1), splitmix64(s2));
}

TEST(Splitmix64, AdvancesState)
{
    std::uint64_t state = 42;
    const auto a = splitmix64(state);
    const auto b = splitmix64(state);
    EXPECT_NE(a, b);
}

TEST(Mix64, DiffersAcrossInputs)
{
    std::set<std::uint64_t> values;
    for (std::uint64_t a = 0; a < 10; ++a)
        for (std::uint64_t b = 0; b < 10; ++b)
            for (std::uint64_t c = 0; c < 3; ++c) values.insert(mix64(a, b, c));
    EXPECT_EQ(values.size(), 300u);
}

TEST(Xoshiro, SameSeedSameSequence)
{
    xoshiro256ss a{123}, b{123};
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge)
{
    xoshiro256ss a{1}, b{2};
    int equal = 0;
    for (int i = 0; i < 1000; ++i)
        if (a() == b()) ++equal;
    EXPECT_LE(equal, 1);
}

TEST(Xoshiro, DoubleInUnitInterval)
{
    xoshiro256ss rng{7};
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.next_double();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Xoshiro, DoubleMeanIsHalf)
{
    xoshiro256ss rng{11};
    double sum = 0.0;
    const int samples = 200000;
    for (int i = 0; i < samples; ++i) sum += rng.next_double();
    EXPECT_NEAR(sum / samples, 0.5, 0.01);
}

TEST(Xoshiro, NextBelowRespectsBound)
{
    xoshiro256ss rng{5};
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
    }
}

TEST(Xoshiro, NextBelowZeroOrOneIsZero)
{
    xoshiro256ss rng{5};
    EXPECT_EQ(rng.next_below(0), 0u);
    EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Xoshiro, NextBelowIsApproximatelyUniform)
{
    xoshiro256ss rng{17};
    const std::uint64_t bound = 10;
    std::vector<int> histogram(bound, 0);
    const int samples = 100000;
    for (int i = 0; i < samples; ++i) ++histogram[rng.next_below(bound)];
    for (const int count : histogram)
        EXPECT_NEAR(count, samples / static_cast<int>(bound), samples / 100);
}

TEST(Xoshiro, BernoulliEdgeCases)
{
    xoshiro256ss rng{3};
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.next_bernoulli(0.0));
        EXPECT_TRUE(rng.next_bernoulli(1.0));
        EXPECT_FALSE(rng.next_bernoulli(-0.5));
        EXPECT_TRUE(rng.next_bernoulli(1.5));
    }
}

TEST(Xoshiro, BernoulliFrequency)
{
    xoshiro256ss rng{29};
    const double p = 0.3;
    int hits = 0;
    const int samples = 100000;
    for (int i = 0; i < samples; ++i)
        if (rng.next_bernoulli(p)) ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / samples, p, 0.01);
}

TEST(StreamFor, IndependentOfCallOrder)
{
    const auto a = draw_u64(9, 5, 7, 0);
    const auto b = draw_u64(9, 6, 7, 0);
    EXPECT_EQ(a, draw_u64(9, 5, 7, 0));
    // Different node: different stream.
    counter_rng c(9, 5, 7);
    c(); // advance
    EXPECT_NE(b, c());
}

TEST(StreamFor, DistinctAcrossRoundsAndNodes)
{
    std::set<std::uint64_t> first_draws;
    for (std::uint64_t node = 0; node < 50; ++node)
        for (std::uint64_t round = 0; round < 50; ++round)
            first_draws.insert(counter_rng(1, node, round)());
    EXPECT_EQ(first_draws.size(), 2500u);
}

} // namespace
} // namespace dlb
