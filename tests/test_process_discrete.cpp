// Tests for the discrete process engine: conservation, deviation from the
// continuous twin, negative-load tracking, prevention policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/alpha.hpp"
#include "core/beta.hpp"
#include "core/metrics.hpp"
#include "core/process.hpp"
#include "graph/generators.hpp"
#include "linalg/spectra.hpp"
#include "sim/initial_load.hpp"

namespace dlb {
namespace {

diffusion_config make_config(const graph& g, scheme_params scheme)
{
    return {&g, make_alpha(g, alpha_policy::max_degree_plus_one),
            speed_profile::uniform(g.num_nodes()), scheme};
}

TEST(DiscreteProcess, ExactTokenConservation)
{
    const graph g = make_torus_2d(6, 6);
    for (const auto rounding :
         {rounding_kind::randomized, rounding_kind::floor, rounding_kind::nearest,
          rounding_kind::bernoulli_edge}) {
        discrete_process proc(make_config(g, fos_scheme()),
                              point_load(36, 0, 36000), rounding, 42);
        proc.run(200);
        EXPECT_TRUE(proc.verify_conservation()) << to_string(rounding);
        EXPECT_EQ(proc.total_load(), 36000) << to_string(rounding);
    }
}

TEST(DiscreteProcess, SosConservation)
{
    const graph g = make_torus_2d(8, 8);
    const double beta = beta_opt(torus_2d_lambda(8, 8));
    discrete_process proc(make_config(g, sos_scheme(beta)),
                          point_load(64, 0, 64000), rounding_kind::randomized, 7);
    proc.run(500);
    EXPECT_TRUE(proc.verify_conservation());
}

TEST(DiscreteProcess, BalancedInputStaysBalanced)
{
    // With perfectly balanced integer loads all scheduled flows are zero.
    const graph g = make_random_regular_exact(40, 4, 9);
    discrete_process proc(make_config(g, fos_scheme()), balanced_load(40, 25),
                          rounding_kind::randomized, 3);
    proc.run(50);
    for (const auto v : proc.load()) EXPECT_EQ(v, 25);
}

TEST(DiscreteProcess, ConvergesNearAverage)
{
    const graph g = make_torus_2d(8, 8);
    discrete_process proc(make_config(g, fos_scheme()), point_load(64, 0, 64000),
                          rounding_kind::randomized, 5);
    proc.run(3000);
    // Paper: FOS reaches a constant remaining imbalance (single digits).
    EXPECT_LE(max_minus_average(proc.load()), 10.0);
    EXPECT_GE(min_load(proc.load()), 1000.0 - 10.0);
}

TEST(DiscreteProcess, DeterministicInSeed)
{
    // Compare mid-convergence (after full convergence all seeds coincide at
    // the balanced configuration, which would make the inequality vacuous).
    const graph g = make_torus_2d(5, 5);
    discrete_process a(make_config(g, fos_scheme()), point_load(25, 0, 2500),
                       rounding_kind::randomized, 11);
    discrete_process b(make_config(g, fos_scheme()), point_load(25, 0, 2500),
                       rounding_kind::randomized, 11);
    discrete_process c(make_config(g, fos_scheme()), point_load(25, 0, 2500),
                       rounding_kind::randomized, 12);
    a.run(8);
    b.run(8);
    c.run(8);
    EXPECT_TRUE(std::equal(a.load().begin(), a.load().end(), b.load().begin()));
    EXPECT_FALSE(std::equal(a.load().begin(), a.load().end(), c.load().begin()));
}

TEST(DiscreteProcess, StaysCloseToContinuousTwinFos)
{
    // Theorem 4 shape: deviation O(d sqrt(log n / (1-lambda))) — for the
    // 8x8 torus this is far below the slack asserted here.
    const graph g = make_torus_2d(8, 8);
    const auto config = make_config(g, fos_scheme());
    discrete_process discrete(config, point_load(64, 0, 6400),
                              rounding_kind::randomized, 21);
    continuous_process continuous(config, to_continuous(point_load(64, 0, 6400)));
    double worst = 0.0;
    for (int t = 0; t < 400; ++t) {
        discrete.step();
        continuous.step();
        worst = std::max(worst, max_deviation(discrete.load(), continuous.load()));
    }
    EXPECT_LT(worst, 60.0);
}

TEST(DiscreteProcess, StaysCloseToContinuousTwinSos)
{
    const graph g = make_torus_2d(8, 8);
    const double beta = beta_opt(torus_2d_lambda(8, 8));
    const auto config = make_config(g, sos_scheme(beta));
    discrete_process discrete(config, point_load(64, 0, 6400),
                              rounding_kind::randomized, 23);
    continuous_process continuous(config, to_continuous(point_load(64, 0, 6400)));
    double worst = 0.0;
    for (int t = 0; t < 400; ++t) {
        discrete.step();
        continuous.step();
        worst = std::max(worst, max_deviation(discrete.load(), continuous.load()));
    }
    EXPECT_LT(worst, 120.0);
}

TEST(DiscreteProcess, TransientTrackingDetectsNegativeSos)
{
    // A large point load with SOS overshoots: some node sees negative
    // transient load during the run (that is the paper's Section V premise).
    const graph g = make_torus_2d(10, 10);
    const double beta = beta_opt(torus_2d_lambda(10, 10));
    discrete_process proc(make_config(g, sos_scheme(beta)),
                          point_load(100, 0, 100000), rounding_kind::randomized, 2);
    proc.run(300);
    EXPECT_LT(proc.negative_stats().min_transient_load, 0.0);
}

TEST(DiscreteProcess, PreventPolicyKeepsLoadsNonNegative)
{
    const graph g = make_torus_2d(10, 10);
    const double beta = beta_opt(torus_2d_lambda(10, 10));
    discrete_process proc(make_config(g, sos_scheme(beta)),
                          point_load(100, 0, 100000), rounding_kind::randomized, 2,
                          negative_load_policy::prevent);
    proc.run(300);
    EXPECT_GE(proc.negative_stats().min_end_of_round_load, 0.0);
    EXPECT_GE(proc.negative_stats().min_transient_load, 0.0);
    EXPECT_GT(proc.clipped_tokens(), 0);
    EXPECT_TRUE(proc.verify_conservation());
}

TEST(DiscreteProcess, AllowPolicyReportsZeroClipped)
{
    const graph g = make_cycle(8);
    discrete_process proc(make_config(g, fos_scheme()), point_load(8, 0, 800),
                          rounding_kind::randomized, 3);
    proc.run(50);
    EXPECT_EQ(proc.clipped_tokens(), 0);
}

TEST(DiscreteProcess, HeterogeneousBalancesProportionally)
{
    const graph g = make_torus_2d(5, 5);
    std::vector<double> speed_values(25, 1.0);
    for (int i = 0; i < 25; i += 5) speed_values[i] = 4.0;
    const auto speeds = speed_profile::from_vector(speed_values);
    diffusion_config config{&g, make_alpha(g, alpha_policy::max_degree_plus_one),
                            speeds, fos_scheme()};
    const std::int64_t total = 40000;
    discrete_process proc(config, point_load(25, 3, total),
                          rounding_kind::randomized, 31);
    proc.run(4000);
    EXPECT_TRUE(proc.verify_conservation());
    const auto ideal = speeds.ideal_load(static_cast<double>(total));
    // Every node within a small constant of its speed-proportional share.
    for (node_id v = 0; v < 25; ++v)
        EXPECT_NEAR(static_cast<double>(proc.load()[v]), ideal[v], 25.0)
            << "node " << v << " speed " << speeds.speed(v);
}

TEST(DiscreteProcess, SwitchToFosReducesImbalance)
{
    // The paper's headline hybrid observation, in miniature.
    const graph g = make_torus_2d(10, 10);
    const double beta = beta_opt(torus_2d_lambda(10, 10));
    discrete_process proc(make_config(g, sos_scheme(beta)),
                          point_load(100, 0, 100000), rounding_kind::randomized, 8);
    proc.run(600);
    const double sos_imbalance = max_minus_average(proc.load());
    proc.set_scheme(fos_scheme());
    proc.run(400);
    const double fos_imbalance = max_minus_average(proc.load());
    EXPECT_LE(fos_imbalance, sos_imbalance);
    EXPECT_LE(fos_imbalance, 6.0);
}

TEST(DiscreteProcess, ScheduledFlowIntrospection)
{
    const graph g = make_path(3);
    discrete_process proc(make_config(g, fos_scheme()),
                          std::vector<std::int64_t>{9, 3, 0},
                          rounding_kind::floor, 1);
    proc.step();
    // FOS flows: edge (0,1): 2.0, edge (1,2): 1.0 (alpha = 1/3).
    const auto scheduled = proc.last_scheduled_flows();
    for (half_edge_id h = g.half_edge_begin(0); h < g.half_edge_end(0); ++h) {
        if (g.head(h) == 1) {
            EXPECT_NEAR(scheduled[h], 2.0, 1e-12);
        }
    }
    // Loads after the step: 9-2=7, 3+2-1=4, 0+1=1.
    EXPECT_EQ(proc.load()[0], 7);
    EXPECT_EQ(proc.load()[1], 4);
    EXPECT_EQ(proc.load()[2], 1);
}

TEST(DiscreteProcess, RejectsAsymmetricAlpha)
{
    const graph g = make_cycle(5);
    auto config = make_config(g, fos_scheme());
    const half_edge_id h = 3;
    config.alpha[h] *= 2.0;
    const half_edge_id first = std::min(h, g.twin(h));
    try {
        discrete_process proc(config, balanced_load(5, 4),
                              rounding_kind::randomized, 1);
        FAIL() << "an asymmetric alpha was accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("half-edge " + std::to_string(first)),
                  std::string::npos)
            << e.what();
    }
}

TEST(DiscreteProcess, NegativeStatsStartAtInfinity)
{
    const graph g = make_cycle(4);
    discrete_process proc(make_config(g, fos_scheme()), balanced_load(4, 5),
                          rounding_kind::randomized, 1);
    EXPECT_TRUE(std::isinf(proc.negative_stats().min_end_of_round_load));
    proc.step();
    EXPECT_EQ(proc.negative_stats().min_end_of_round_load, 5.0);
}

} // namespace
} // namespace dlb
