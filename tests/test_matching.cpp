// Tests for the random-matching dimension-exchange baseline [17].
#include <gtest/gtest.h>

#include "core/matching.hpp"
#include "core/metrics.hpp"
#include "graph/generators.hpp"
#include "sim/initial_load.hpp"

namespace dlb {
namespace {

TEST(Matching, ConservesTokens)
{
    const graph g = make_torus_2d(6, 6);
    matching_process proc(g, point_load(36, 0, 36000), 7);
    proc.run(500);
    EXPECT_TRUE(proc.verify_conservation());
}

TEST(Matching, NeverNegative)
{
    const graph g = make_hypercube(6);
    matching_process proc(g, point_load(64, 0, 6400), 3);
    proc.run(500);
    EXPECT_GE(proc.negative_stats().min_end_of_round_load, 0.0);
}

TEST(Matching, MatchingIsValid)
{
    // Matched pairs per round never exceed n/2.
    const graph g = make_complete(11);
    matching_process proc(g, balanced_load(11, 10), 5);
    for (int t = 0; t < 50; ++t) {
        proc.step();
        EXPECT_LE(proc.last_matching_size(), 5);
        EXPECT_GE(proc.last_matching_size(), 1);
    }
}

TEST(Matching, PairAveragingExact)
{
    // A single edge: one round must split 10 tokens 5/5.
    const graph g = make_path(2);
    matching_process proc(g, std::vector<std::int64_t>{10, 0}, 1);
    proc.step();
    EXPECT_EQ(proc.load()[0], 5);
    EXPECT_EQ(proc.load()[1], 5);
}

TEST(Matching, OddTokenGoesToEitherSide)
{
    const graph g = make_path(2);
    int left_got_extra = 0;
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        matching_process proc(g, std::vector<std::int64_t>{11, 0}, seed);
        proc.step();
        EXPECT_EQ(proc.load()[0] + proc.load()[1], 11);
        EXPECT_LE(std::abs(proc.load()[0] - proc.load()[1]), 1);
        if (proc.load()[0] == 6) ++left_got_extra;
    }
    // Roughly fair coin across seeds.
    EXPECT_GT(left_got_extra, 60);
    EXPECT_LT(left_got_extra, 140);
}

TEST(Matching, ConvergesOnTorus)
{
    const graph g = make_torus_2d(8, 8);
    matching_process proc(g, point_load(64, 0, 64000), 11);
    proc.run(4000);
    EXPECT_LE(max_minus_average(proc.load()), 8.0);
}

TEST(Matching, DeterministicInSeed)
{
    const graph g = make_torus_2d(5, 5);
    matching_process a(g, point_load(25, 0, 2500), 9);
    matching_process b(g, point_load(25, 0, 2500), 9);
    matching_process c(g, point_load(25, 0, 2500), 10);
    a.run(10);
    b.run(10);
    c.run(10);
    EXPECT_TRUE(std::equal(a.load().begin(), a.load().end(), b.load().begin()));
    EXPECT_FALSE(std::equal(a.load().begin(), a.load().end(), c.load().begin()));
}

TEST(Matching, SlowerThanDiffusionOnDenseGraphs)
{
    // Diffusion balances with all neighbors at once; matching uses one
    // neighbor per round. On the complete graph diffusion is ~one-shot
    // while matching needs many rounds.
    const graph g = make_complete(16);
    matching_process matching(g, point_load(16, 0, 1600), 13);
    std::int64_t matching_rounds = 0;
    while (max_minus_average(matching.load()) > 5.0 && matching_rounds < 500) {
        matching.step();
        ++matching_rounds;
    }
    EXPECT_GT(matching_rounds, 2);
    EXPECT_LT(matching_rounds, 500);
}

TEST(Matching, BalancedStaysBalanced)
{
    const graph g = make_cycle(12);
    matching_process proc(g, balanced_load(12, 7), 1);
    proc.run(100);
    for (const auto v : proc.load()) EXPECT_EQ(v, 7);
}

TEST(Matching, RejectsBadLoadSize)
{
    const graph g = make_cycle(4);
    EXPECT_THROW(matching_process(g, std::vector<std::int64_t>(3), 1),
                 std::invalid_argument);
}

} // namespace
} // namespace dlb
