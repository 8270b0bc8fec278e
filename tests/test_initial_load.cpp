// Tests for initial load distributions.
#include <gtest/gtest.h>

#include <numeric>

#include "sim/initial_load.hpp"
#include "util/rng.hpp"

namespace dlb {
namespace {

TEST(InitialLoad, PointLoad)
{
    const auto load = point_load(5, 2, 100);
    EXPECT_EQ(load.size(), 5u);
    EXPECT_EQ(load[2], 100);
    EXPECT_EQ(std::accumulate(load.begin(), load.end(), std::int64_t{0}), 100);
    EXPECT_THROW(point_load(5, 5, 1), std::invalid_argument);
    EXPECT_THROW(point_load(5, 0, -1), std::invalid_argument);
}

TEST(InitialLoad, BalancedLoad)
{
    const auto load = balanced_load(4, 7);
    for (const auto v : load) EXPECT_EQ(v, 7);
    EXPECT_THROW(balanced_load(4, -1), std::invalid_argument);
}

TEST(InitialLoad, RandomLoadTotalAndDeterminism)
{
    const auto a = random_load(10, 1000, 3);
    const auto b = random_load(10, 1000, 3);
    const auto c = random_load(10, 1000, 4);
    EXPECT_EQ(std::accumulate(a.begin(), a.end(), std::int64_t{0}), 1000);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(InitialLoad, RandomLoadRoughlyUniform)
{
    const auto load = random_load(10, 100000, 5);
    for (const auto v : load) EXPECT_NEAR(static_cast<double>(v), 10000.0, 500.0);
}

TEST(InitialLoad, UniformRange)
{
    counter_rng rng(2, 0, 0);
    const auto load = uniform_range_load(1000, 5, 9, rng);
    for (const auto v : load) {
        EXPECT_GE(v, 5);
        EXPECT_LE(v, 9);
    }
    EXPECT_THROW(uniform_range_load(5, 3, 2, rng), std::invalid_argument);
}

TEST(InitialLoad, ProportionalMatchesSpeedsExactly)
{
    const std::vector<double> speeds{1.0, 2.0, 1.0};
    const auto load = proportional_load(speeds, 400);
    EXPECT_EQ(load[0], 100);
    EXPECT_EQ(load[1], 200);
    EXPECT_EQ(load[2], 100);
}

TEST(InitialLoad, ProportionalDistributesRemainder)
{
    const std::vector<double> speeds{1.0, 1.0, 1.0};
    const auto load = proportional_load(speeds, 100);
    EXPECT_EQ(std::accumulate(load.begin(), load.end(), std::int64_t{0}), 100);
    for (const auto v : load) EXPECT_NEAR(static_cast<double>(v), 33.3, 1.0);
}

TEST(InitialLoad, ToContinuous)
{
    const auto load = to_continuous({1, 2, 3});
    EXPECT_DOUBLE_EQ(load[0], 1.0);
    EXPECT_DOUBLE_EQ(load[2], 3.0);
}

} // namespace
} // namespace dlb
