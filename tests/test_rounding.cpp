// Tests for the rounding framework, including unbiasedness
// (paper Observation 1) and conservation.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "core/alpha.hpp"
#include "core/rounding.hpp"
#include "core/scheme.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace dlb {
namespace {

std::vector<double> antisymmetric_flows(const graph& g, std::uint64_t seed,
                                        double scale = 3.0)
{
    std::vector<double> flows(static_cast<std::size_t>(g.num_half_edges()), 0.0);
    xoshiro256ss rng{seed};
    for (node_id v = 0; v < g.num_nodes(); ++v)
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h)
            if (v < g.head(h)) {
                flows[h] = (rng.next_double() * 2.0 - 1.0) * scale;
                flows[g.twin(h)] = -flows[h];
            }
    return flows;
}

/// Net integer outflow per node.
std::vector<std::int64_t> net_outflow(const graph& g,
                                      std::span<const std::int64_t> flows)
{
    std::vector<std::int64_t> net(static_cast<std::size_t>(g.num_nodes()), 0);
    for (node_id v = 0; v < g.num_nodes(); ++v)
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h)
            net[v] += flows[h];
    return net;
}

class RoundingKinds : public ::testing::TestWithParam<rounding_kind> {};

TEST_P(RoundingKinds, AntisymmetryHolds)
{
    const graph g = make_torus_2d(5, 5);
    const auto scheduled = antisymmetric_flows(g, 11);
    std::vector<std::int64_t> flows(scheduled.size());
    round_flows(g, GetParam(), scheduled, 7, 0, flows, default_executor());
    for (half_edge_id h = 0; h < g.num_half_edges(); ++h)
        EXPECT_EQ(flows[h], -flows[g.twin(h)]) << "half-edge " << h;
}

TEST_P(RoundingKinds, ConservationNetSumIsZero)
{
    const graph g = make_random_regular_exact(60, 4, 5);
    const auto scheduled = antisymmetric_flows(g, 13);
    std::vector<std::int64_t> flows(scheduled.size());
    round_flows(g, GetParam(), scheduled, 3, 1, flows, default_executor());
    const auto net = net_outflow(g, flows);
    EXPECT_EQ(std::accumulate(net.begin(), net.end(), std::int64_t{0}), 0);
}

TEST_P(RoundingKinds, IntegerFlowsNearScheduled)
{
    const graph g = make_cycle(30);
    const auto scheduled = antisymmetric_flows(g, 17, 10.0);
    std::vector<std::int64_t> flows(scheduled.size());
    round_flows(g, GetParam(), scheduled, 23, 2, flows, default_executor());
    // Every rounding scheme keeps each edge within 1 token of the scheduled
    // flow (floor/ceil for the randomized ones, nearest for deterministic).
    for (half_edge_id h = 0; h < g.num_half_edges(); ++h)
        EXPECT_LE(std::abs(static_cast<double>(flows[h]) - scheduled[h]), 1.0 + 1e-9)
            << "half-edge " << h;
}

TEST_P(RoundingKinds, ExactIntegersPassThrough)
{
    const graph g = make_cycle(8);
    std::vector<double> scheduled(static_cast<std::size_t>(g.num_half_edges()), 0.0);
    // Set edge (0,1) to exactly 3 tokens.
    for (half_edge_id h = g.half_edge_begin(0); h < g.half_edge_end(0); ++h)
        if (g.head(h) == 1) {
            scheduled[h] = 3.0;
            scheduled[g.twin(h)] = -3.0;
        }
    std::vector<std::int64_t> flows(scheduled.size());
    round_flows(g, GetParam(), scheduled, 1, 0, flows, default_executor());
    for (half_edge_id h = g.half_edge_begin(0); h < g.half_edge_end(0); ++h) {
        if (g.head(h) == 1) {
            EXPECT_EQ(flows[h], 3);
        }
    }
}

TEST_P(RoundingKinds, ZeroFlowsStayZero)
{
    const graph g = make_torus_2d(3, 3);
    std::vector<double> scheduled(static_cast<std::size_t>(g.num_half_edges()), 0.0);
    std::vector<std::int64_t> flows(scheduled.size(), 99);
    round_flows(g, GetParam(), scheduled, 5, 7, flows, default_executor());
    for (const auto f : flows) EXPECT_EQ(f, 0);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, RoundingKinds,
                         ::testing::Values(rounding_kind::randomized,
                                           rounding_kind::floor,
                                           rounding_kind::nearest,
                                           rounding_kind::bernoulli_edge),
                         [](const auto& info) {
                             return std::string(to_string(info.param));
                         });

TEST(Rounding, FloorAlwaysRoundsDown)
{
    const graph g = make_path(2);
    std::vector<double> scheduled(2, 0.0);
    for (half_edge_id h = g.half_edge_begin(0); h < g.half_edge_end(0); ++h) {
        scheduled[h] = 2.9;
        scheduled[g.twin(h)] = -2.9;
    }
    std::vector<std::int64_t> flows(2);
    round_flows(g, rounding_kind::floor, scheduled, 0, 0, flows, default_executor());
    EXPECT_EQ(flows[g.half_edge_begin(0)], 2);
}

TEST(Rounding, NearestRoundsToClosest)
{
    const graph g = make_path(2);
    std::vector<double> scheduled(2, 0.0);
    scheduled[g.half_edge_begin(0)] = 2.6;
    scheduled[g.twin(g.half_edge_begin(0))] = -2.6;
    std::vector<std::int64_t> flows(2);
    round_flows(g, rounding_kind::nearest, scheduled, 0, 0, flows,
                default_executor());
    EXPECT_EQ(flows[g.half_edge_begin(0)], 3);
}

TEST(Rounding, NearestMatchesLlroundOnEdgeValues)
{
    // Ties, the largest double below a tie, and the ends of the exactly
    // representable integer range, each scheduled with both signs on the
    // half-edge toward the larger node (the twin carries the negation).
    std::vector<double> values = {0.0, 0.49999999999999994, 0x1p52 + 0.5,
                                  0x1p53 - 1.0};
    for (const double k : {0.0, 1.0, 2.0, 3.0, 1e6, 0x1p51}) {
        values.push_back(k + 0.5);
        values.push_back(std::nextafter(k + 0.5, 0.0));
    }
    const std::size_t count = values.size();
    for (std::size_t i = 0; i < count; ++i) values.push_back(-values[i]);

    const graph g = make_path(static_cast<node_id>(values.size()) + 1);
    ASSERT_EQ(g.num_edges(), static_cast<std::int64_t>(values.size()));
    std::vector<double> scheduled(static_cast<std::size_t>(g.num_half_edges()));
    std::size_t e = 0;
    for (half_edge_id h = 0; h < g.num_half_edges(); ++h) {
        if (h > g.twin(h)) continue;
        scheduled[h] = values[e];
        scheduled[g.twin(h)] = -values[e++];
    }
    std::vector<std::int64_t> flows(scheduled.size());
    round_flows(g, rounding_kind::nearest, scheduled, 0, 0, flows,
                default_executor());
    for (std::size_t h = 0; h < scheduled.size(); ++h)
        EXPECT_EQ(flows[h], std::llround(scheduled[h]))
            << "scheduled " << scheduled[h];
}

TEST(Rounding, RandomizedIsDeterministicInSeedAndRound)
{
    const graph g = make_torus_2d(4, 4);
    const auto scheduled = antisymmetric_flows(g, 19);
    std::vector<std::int64_t> a(scheduled.size()), b(scheduled.size()),
        c(scheduled.size());
    round_flows(g, rounding_kind::randomized, scheduled, 5, 9, a,
                default_executor());
    round_flows(g, rounding_kind::randomized, scheduled, 5, 9, b,
                default_executor());
    round_flows(g, rounding_kind::randomized, scheduled, 6, 9, c,
                default_executor());
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(Rounding, RandomizedIsUnbiasedPerEdge)
{
    // Observation 1: E[Yhat - Y^R] = 0. Estimate the mean rounded flow on a
    // fixed edge over many rounds.
    const graph g = make_star(5); // center 0 with 4 leaves
    std::vector<double> scheduled(static_cast<std::size_t>(g.num_half_edges()), 0.0);
    // Outgoing 0 -> j: 0.25, 0.5, 0.75, 1.5.
    const double values[] = {0.25, 0.5, 0.75, 1.5};
    int idx = 0;
    for (half_edge_id h = g.half_edge_begin(0); h < g.half_edge_end(0); ++h) {
        scheduled[h] = values[idx++];
        scheduled[g.twin(h)] = -scheduled[h];
    }

    const int trials = 40000;
    std::vector<double> mean(4, 0.0);
    std::vector<std::int64_t> flows(scheduled.size());
    for (int trial = 0; trial < trials; ++trial) {
        round_flows(g, rounding_kind::randomized, scheduled, 99, trial, flows,
                    default_executor());
        idx = 0;
        for (half_edge_id h = g.half_edge_begin(0); h < g.half_edge_end(0); ++h)
            mean[idx++] += static_cast<double>(flows[h]);
    }
    for (int i = 0; i < 4; ++i)
        EXPECT_NEAR(mean[i] / trials, values[i], 0.02) << "edge " << i;
}

TEST(Rounding, RandomizedExcessTokensBoundedByCeil)
{
    // Total sent tokens from a node is between floor-sum and
    // floor-sum + ceil(r).
    const graph g = make_star(7);
    const auto scheduled = [&] {
        std::vector<double> flows(static_cast<std::size_t>(g.num_half_edges()), 0.0);
        xoshiro256ss rng{3};
        for (half_edge_id h = g.half_edge_begin(0); h < g.half_edge_end(0); ++h) {
            flows[h] = rng.next_double() * 2.0; // outgoing only
            flows[g.twin(h)] = -flows[h];
        }
        return flows;
    }();

    double floor_sum = 0.0, excess = 0.0;
    for (half_edge_id h = g.half_edge_begin(0); h < g.half_edge_end(0); ++h) {
        floor_sum += std::floor(scheduled[h]);
        excess += scheduled[h] - std::floor(scheduled[h]);
    }

    std::vector<std::int64_t> flows(scheduled.size());
    for (int round = 0; round < 200; ++round) {
        round_flows(g, rounding_kind::randomized, scheduled, 1, round, flows,
                    default_executor());
        std::int64_t sent = 0;
        for (half_edge_id h = g.half_edge_begin(0); h < g.half_edge_end(0); ++h)
            sent += flows[h];
        EXPECT_GE(sent, static_cast<std::int64_t>(floor_sum));
        EXPECT_LE(sent, static_cast<std::int64_t>(floor_sum + std::ceil(excess)));
    }
}

/// The reference kernel's early-exit walk: the first fractional slot whose
/// running fractional sum reaches the target.
std::int32_t early_exit_slot(const std::vector<double>& fractions, double target)
{
    double cumulative = 0.0;
    std::int32_t chosen = -1;
    for (std::size_t j = 0; j < fractions.size(); ++j) {
        if (fractions[j] <= 0.0) continue;
        chosen = static_cast<std::int32_t>(j);
        cumulative += fractions[j];
        if (cumulative >= target) break;
    }
    return chosen;
}

/// Every target a sent token can hold that sits at or next to a prefix
/// step (+0.0, one ulp below and at each step, the midpoints), below the
/// excess: the branch-free count must pick the walk's slot.
template <std::int32_t StaticDegree>
void expect_pick_matches_walk(const std::vector<double>& fractions)
{
    const auto degree = static_cast<std::int32_t>(fractions.size());
    std::vector<double> prefix(fractions.size());
    double excess = 0.0;
    for (std::size_t j = 0; j < fractions.size(); ++j) {
        excess += fractions[j];
        prefix[j] = excess;
    }
    std::vector<double> targets{0.0};
    double previous = 0.0;
    for (const double step : prefix) {
        if (step == previous) continue;
        targets.push_back(std::nextafter(step, 0.0));
        targets.push_back(step);
        targets.push_back(previous + (step - previous) / 2.0);
        previous = step;
    }
    for (const double target : targets) {
        if (target >= excess) continue;
        EXPECT_EQ(pick_token_slot<StaticDegree>(prefix.data(), degree, target),
                  early_exit_slot(fractions, target))
            << "degree " << degree << " target " << target;
    }
}

TEST(Rounding, TokenSlotPickMatchesEarlyExitWalk)
{
    // An exact-zero draw must land on the first fractional slot, not on a
    // leading slot with no fractional mass.
    const std::vector<double> leading_zeros{0.0, 0.0, 0.25, 0.5};
    const std::vector<double> prefix{0.0, 0.0, 0.25, 0.75};
    EXPECT_EQ(pick_token_slot<4>(prefix.data(), 4, 0.0), 2);
    EXPECT_EQ(pick_token_slot<0>(prefix.data(), 4, 0.0), 2);

    for (const auto& row : {leading_zeros,
                            std::vector<double>{0.3, 0.0, 0.2, 0.4},
                            std::vector<double>{0.1, 0.2, 0.3, 0.0},
                            std::vector<double>{0.9, 0.9, 0.9, 0.9}}) {
        expect_pick_matches_walk<4>(row);
        expect_pick_matches_walk<0>(row);
    }
    expect_pick_matches_walk<0>({0.0, 0.0, 0.0, 0.7, 0.0, 0.1, 0.9});
    expect_pick_matches_walk<0>({0.5});
    std::vector<double> wide(12);
    xoshiro256ss rng{31};
    for (auto& fraction : wide)
        fraction = rng.next_double() < 0.4 ? 0.0 : rng.next_double();
    expect_pick_matches_walk<0>(wide);
}

TEST(Rounding, BernoulliEdgeIsUnbiased)
{
    const graph g = make_path(2);
    std::vector<double> scheduled(2, 0.0);
    scheduled[g.half_edge_begin(0)] = 0.7;
    scheduled[g.twin(g.half_edge_begin(0))] = -0.7;
    std::vector<std::int64_t> flows(2);
    double mean = 0.0;
    const int trials = 40000;
    for (int trial = 0; trial < trials; ++trial) {
        round_flows(g, rounding_kind::bernoulli_edge, scheduled, 4, trial, flows,
                    default_executor());
        mean += static_cast<double>(flows[g.half_edge_begin(0)]);
    }
    EXPECT_NEAR(mean / trials, 0.7, 0.02);
}

TEST(Rounding, SizeMismatchThrows)
{
    const graph g = make_cycle(4);
    std::vector<double> scheduled(3);
    std::vector<std::int64_t> flows(8);
    EXPECT_THROW(round_flows(g, rounding_kind::floor, scheduled, 0, 0, flows,
                             default_executor()),
                 std::invalid_argument);
}

TEST(Rounding, ToStringNames)
{
    EXPECT_EQ(to_string(rounding_kind::randomized), "randomized");
    EXPECT_EQ(to_string(rounding_kind::floor), "floor");
    EXPECT_EQ(to_string(rounding_kind::nearest), "nearest");
    EXPECT_EQ(to_string(rounding_kind::bernoulli_edge), "bernoulli_edge");
}

} // namespace
} // namespace dlb
