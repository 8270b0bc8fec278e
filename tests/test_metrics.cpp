// Tests for the Section VI metrics and the remaining-imbalance tracker.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "graph/generators.hpp"
#include "sim/thread_pool.hpp"
#include "util/rng.hpp"

namespace dlb {
namespace {

TEST(Metrics, MaxMinusAverage)
{
    const std::vector<std::int64_t> load{10, 20, 30};
    EXPECT_DOUBLE_EQ(max_minus_average(std::span<const std::int64_t>(load)), 10.0);
    const std::vector<double> flat{5.0, 5.0, 5.0};
    EXPECT_DOUBLE_EQ(max_minus_average(std::span<const double>(flat)), 0.0);
}

TEST(Metrics, MaxMinusIdeal)
{
    const std::vector<std::int64_t> load{10, 20};
    const std::vector<double> ideal{12.0, 15.0};
    EXPECT_DOUBLE_EQ(
        max_minus_ideal(std::span<const std::int64_t>(load), ideal), 5.0);
}

TEST(Metrics, MaxLocalDifference)
{
    const graph g = make_path(4);
    const std::vector<std::int64_t> load{0, 10, 3, 4};
    EXPECT_DOUBLE_EQ(max_local_difference(g, std::span<const std::int64_t>(load)),
                     10.0);
}

TEST(Metrics, MaxLocalDifferenceIgnoresNonEdges)
{
    // Star: only center-leaf differences matter.
    const graph g = make_star(4);
    const std::vector<std::int64_t> load{5, 0, 10, 5};
    // Edges: (0,1): 5, (0,2): 5, (0,3): 0. Leaf-leaf difference 10 ignored.
    EXPECT_DOUBLE_EQ(max_local_difference(g, std::span<const std::int64_t>(load)),
                     5.0);
}

/// Compares max_local_difference bitwise, serially and on `pool`, with a
/// written-out max of |x_v - x_u| over every half-edge v -> u.
template <class Load>
void expect_matches_half_edge_walk(const graph& g, const std::vector<Load>& load,
                                   executor& pool, const std::string& label)
{
    double walk = 0.0;
    for (node_id v = 0; v < g.num_nodes(); ++v)
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h)
            walk = std::max(walk, std::fabs(static_cast<double>(load[v]) -
                                            static_cast<double>(load[g.head(h)])));
    const std::span<const Load> view(load);
    const auto expected = std::bit_cast<std::uint64_t>(walk);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(max_local_difference(g, view)), expected)
        << label;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(max_local_difference(g, view, pool)),
              expected)
        << label << " pooled";
}

TEST(Metrics, LocalDifferenceMatchesHalfEdgeWalk)
{
    // int64 loads with negatives and magnitudes above 2^53 (where the
    // conversion to double rounds), and double loads with negatives and
    // both signed zeros.
    thread_pool pool(3);
    xoshiro256ss rng{19};
    const auto pick = [&](std::uint64_t range) {
        return static_cast<std::int64_t>(rng() % range);
    };
    const auto check = [&](const std::string& name, const graph& g) {
        const auto n = static_cast<std::size_t>(g.num_nodes());
        std::vector<std::vector<std::int64_t>> int_loads(4, std::vector<std::int64_t>(n));
        std::vector<std::vector<double>> real_loads(4, std::vector<double>(n));
        for (std::size_t v = 0; v < n; ++v) {
            int_loads[0][v] = pick(201) - 50;
            int_loads[1][v] = (std::int64_t{1} << 60) + pick(4001) - 2000;
            int_loads[2][v] =
                pick(2) == 0 ? -(std::int64_t{1} << 55) - pick(999) : pick(7);
            int_loads[3][v] = 42;
            const std::int64_t kind = pick(4);
            real_loads[0][v] = kind == 0   ? 0.0
                               : kind == 1 ? -0.0
                                           : static_cast<double>(pick(1000)) / 7.0 - 70.0;
            real_loads[1][v] = pick(2) == 0 ? 0.0 : -0.0;
            real_loads[2][v] =
                std::ldexp(static_cast<double>(pick(1 << 20)), -30) - 0.0004;
            real_loads[3][v] = -3.25;
        }
        for (std::size_t i = 0; i < 4; ++i) {
            const std::string label = name + " load " + std::to_string(i);
            expect_matches_half_edge_walk(g, int_loads[i], pool, label + " int64");
            expect_matches_half_edge_walk(g, real_loads[i], pool, label + " double");
        }
    };
    check("path", make_path(9));
    check("star", make_star(7));
    check("isolated", graph::from_edge_list(
                          12, std::vector<edge>{{1, 2}, {2, 5}, {5, 7}, {3, 9}}));
    check("torus_67x67", make_torus_2d(67, 67));
    const graph cube = make_hypercube(13);
    ASSERT_EQ(cube.num_nodes(), 2 * executor::reduce_chunk);
    check("hypercube13", cube);
    check("complete50", make_complete(50));
    check("random_regular7", make_random_regular_cm(5000, 7, 11));
}

TEST(Metrics, NormalizedLocalDifference)
{
    const graph g = make_path(2);
    const std::vector<std::int64_t> load{10, 30};
    const std::vector<double> speeds{1.0, 3.0};
    EXPECT_DOUBLE_EQ(max_local_difference_normalized(
                         g, std::span<const std::int64_t>(load), speeds),
                     0.0);
}

TEST(Metrics, Potential)
{
    const std::vector<std::int64_t> load{0, 10};
    const std::vector<double> ideal{5.0, 5.0};
    EXPECT_DOUBLE_EQ(potential(std::span<const std::int64_t>(load), ideal), 50.0);
    EXPECT_DOUBLE_EQ(potential_homogeneous(std::span<const std::int64_t>(load)),
                     50.0);
}

TEST(Metrics, MinLoadAndDeviation)
{
    const std::vector<std::int64_t> load{3, -2, 7};
    EXPECT_DOUBLE_EQ(min_load(std::span<const std::int64_t>(load)), -2.0);

    const std::vector<std::int64_t> a{1, 2, 3};
    const std::vector<double> b{1.5, 2.0, 0.0};
    EXPECT_DOUBLE_EQ(
        max_deviation(std::span<const std::int64_t>(a), std::span<const double>(b)),
        3.0);
}

TEST(Metrics, DeltaInfinity)
{
    const std::vector<double> load{9.0, 11.0};
    const std::vector<double> ideal{10.0, 10.0};
    EXPECT_DOUBLE_EQ(delta_infinity(std::span<const double>(load), ideal), 1.0);
}

TEST(ImbalanceTracker, DetectsPlateau)
{
    imbalance_tracker tracker(10, 0.01);
    // Steady improvement: never converged.
    for (int i = 0; i < 50; ++i) tracker.observe(1000.0 / (i + 1));
    EXPECT_FALSE(tracker.converged());
    // Plateau at ~8 for a full window.
    for (int i = 0; i < 12; ++i) tracker.observe(8.0 + (i % 3));
    EXPECT_TRUE(tracker.converged());
    EXPECT_NEAR(tracker.remaining(), 9.0, 1.0);
}

TEST(ImbalanceTracker, SmallFluctuationsDontResetPlateau)
{
    imbalance_tracker tracker(5, 0.05);
    tracker.observe(100.0);
    // Tiny improvements below 5% don't count as progress.
    for (int i = 0; i < 6; ++i) tracker.observe(99.0 - i * 0.1);
    EXPECT_TRUE(tracker.converged());
}

TEST(ImbalanceTracker, LargeImprovementResets)
{
    imbalance_tracker tracker(5, 0.01);
    for (int i = 0; i < 6; ++i) tracker.observe(100.0);
    EXPECT_TRUE(tracker.converged());
    tracker.observe(10.0); // big improvement: plateau broken
    EXPECT_FALSE(tracker.converged());
}

TEST(ImbalanceTracker, Validation)
{
    EXPECT_THROW(imbalance_tracker(0), std::invalid_argument);
    EXPECT_THROW(imbalance_tracker(10, -1.0), std::invalid_argument);
}

TEST(Metrics, RoundMeasurementDerivesTheZipfIdealBitwise)
{
    // measure_round computes each zipf ideal load from the total and the
    // speeds as it reads it. Its potential and global metric keep the bits
    // of the per-node view the runner once stored, speed_profile's
    // ideal_load vector: for int64 and double loads, against the load's own
    // total and against other bases (a dynamic run measures against the
    // total its injections left, which the load need not hold).
    const graph g = make_torus_2d(24, 24);
    const node_id n = g.num_nodes();
    const auto speeds = speed_profile::zipf(n, 1.0, 8.0, 3);
    std::vector<std::int64_t> tokens(static_cast<std::size_t>(n));
    counter_rng rng(5, 0, 0);
    double sum = 0.0;
    for (auto& value : tokens) {
        value = static_cast<std::int64_t>(rng.next_below(2001)) - 400;
        sum += static_cast<double>(value);
    }
    std::vector<double> reals(tokens.begin(), tokens.end());
    for (double& value : reals) value += 0.3;
    const auto bits = [](double value) { return std::bit_cast<std::uint64_t>(value); };
    const auto check = [&](auto load, double basis) {
        const ideal_loads ideal{basis, &speeds};
        const round_measurement measured =
            measure_round(g, load, &ideal, false, default_executor());
        const std::vector<double> per_node = speeds.ideal_load(basis);
        EXPECT_EQ(bits(measured.potential),
                  bits(potential(load, std::span<const double>(per_node))))
            << basis;
        EXPECT_EQ(bits(measured.global), bits(max_minus_average(load))) << basis;
    };
    for (const double basis : {sum, sum + 37.0, sum - 1e6, 0.0}) {
        check(std::span<const std::int64_t>(tokens), basis);
        check(std::span<const double>(reals), basis);
    }
}

TEST(Metrics, EmptyInputs)
{
    EXPECT_DOUBLE_EQ(max_minus_average(std::span<const double>{}), 0.0);
    EXPECT_DOUBLE_EQ(potential_homogeneous(std::span<const double>{}), 0.0);
    EXPECT_DOUBLE_EQ(min_load(std::span<const double>{}), 0.0);
}

} // namespace
} // namespace dlb
