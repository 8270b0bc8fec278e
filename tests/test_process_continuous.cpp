// Tests for the continuous (idealized) process engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/alpha.hpp"
#include "core/beta.hpp"
#include "core/diffusion_matrix.hpp"
#include "core/metrics.hpp"
#include "core/process.hpp"
#include "core/second_order_matrix.hpp"
#include "graph/generators.hpp"
#include "linalg/spectra.hpp"

namespace dlb {
namespace {

diffusion_config make_config(const graph& g, scheme_params scheme)
{
    return {&g, make_alpha(g, alpha_policy::max_degree_plus_one),
            speed_profile::uniform(g.num_nodes()), scheme};
}

TEST(ContinuousProcess, ConservesTotalLoad)
{
    const graph g = make_torus_2d(5, 5);
    continuous_process proc(make_config(g, fos_scheme()),
                            std::vector<double>(25, 0.0));
    // All load on node 0.
    std::vector<double> load(25, 0.0);
    load[0] = 1000.0;
    continuous_process p2(make_config(g, fos_scheme()), load);
    p2.run(100);
    EXPECT_NEAR(p2.total_load(), 1000.0, 1e-6);
}

TEST(ContinuousProcess, FosMatchesMatrixIteration)
{
    const graph g = make_cycle(7);
    const auto config = make_config(g, fos_scheme());
    std::vector<double> load{10, 0, 0, 5, 0, 0, 6};
    continuous_process proc(config, load);

    const auto m = make_dense_diffusion_matrix(g, config.alpha, config.speeds);
    std::vector<double> expected = load;
    for (int t = 0; t < 20; ++t) {
        proc.step();
        expected = m.multiply(expected);
        for (node_id v = 0; v < 7; ++v)
            EXPECT_NEAR(proc.load()[v], expected[v], 1e-10)
                << "round " << t + 1 << " node " << v;
    }
}

TEST(ContinuousProcess, SosMatchesMtRecursion)
{
    // x(t) = M(t) x(0) with the Muthukrishnan recursion.
    const graph g = make_torus_2d(3, 4);
    const double beta = 1.7;
    const auto config = make_config(g, sos_scheme(beta));
    std::vector<double> load(12, 0.0);
    load[3] = 60.0;
    continuous_process proc(config, load);

    const auto m = make_dense_diffusion_matrix(g, config.alpha, config.speeds);
    m_sequence seq(m, beta);
    for (int t = 1; t <= 15; ++t) {
        proc.step();
        seq.advance();
        const auto expected = seq.current().multiply(load);
        for (node_id v = 0; v < 12; ++v)
            EXPECT_NEAR(proc.load()[v], expected[v], 1e-9)
                << "round " << t << " node " << v;
    }
}

TEST(ContinuousProcess, FosConvergesToAverage)
{
    const graph g = make_torus_2d(4, 4);
    std::vector<double> load(16, 0.0);
    load[0] = 1600.0;
    continuous_process proc(make_config(g, fos_scheme()), load);
    proc.run(2000);
    for (node_id v = 0; v < 16; ++v) EXPECT_NEAR(proc.load()[v], 100.0, 1e-6);
}

TEST(ContinuousProcess, SosConvergesFasterThanFos)
{
    const graph g = make_torus_2d(10, 10);
    const double lambda = torus_2d_lambda(10, 10);
    std::vector<double> load(100, 0.0);
    load[0] = 100000.0;

    continuous_process fos(make_config(g, fos_scheme()), load);
    continuous_process sos(make_config(g, sos_scheme(beta_opt(lambda))), load);
    const int rounds = 120;
    fos.run(rounds);
    sos.run(rounds);

    const auto ideal = std::vector<double>(100, 1000.0);
    const double fos_potential = potential(fos.load(), std::span<const double>(ideal));
    const double sos_potential = potential(sos.load(), std::span<const double>(ideal));
    EXPECT_LT(sos_potential, fos_potential / 10.0);
}

TEST(ContinuousProcess, SosPotentialDecaysAtLambdaRate)
{
    // Equation (30): Phi(t) <= lambda^t * Phi(0).
    const graph g = make_torus_2d(6, 6);
    const double lambda = torus_2d_lambda(6, 6);
    std::vector<double> load(36, 0.0);
    load[0] = 36000.0;
    continuous_process proc(make_config(g, sos_scheme(beta_opt(lambda))), load);

    const std::vector<double> ideal(36, 1000.0);
    const double phi0 = std::sqrt(potential(proc.load(), std::span<const double>(ideal)));
    for (int t = 1; t <= 60; ++t) {
        proc.step();
        const double phi =
            std::sqrt(potential(proc.load(), std::span<const double>(ideal)));
        EXPECT_LE(phi, std::pow(lambda, t) * phi0 * (1.0 + 1e-9))
            << "round " << t;
    }
}

TEST(ContinuousProcess, FosMaxNeverIncreases)
{
    const graph g = make_random_regular_exact(50, 4, 13);
    std::vector<double> load(50, 0.0);
    load[7] = 5000.0;
    continuous_process proc(make_config(g, fos_scheme()), load);
    double previous_max = 5000.0;
    for (int t = 0; t < 200; ++t) {
        proc.step();
        double current_max = 0.0;
        for (const double v : proc.load()) current_max = std::max(current_max, v);
        EXPECT_LE(current_max, previous_max + 1e-9);
        previous_max = current_max;
    }
}

TEST(ContinuousProcess, FosNeverGoesNegativeFromNonNegativeStart)
{
    const graph g = make_star(9);
    std::vector<double> load(9, 0.0);
    load[0] = 90.0;
    continuous_process proc(make_config(g, fos_scheme()), load);
    proc.run(300);
    EXPECT_GE(proc.negative_stats().min_end_of_round_load, -1e-12);
    EXPECT_GE(proc.negative_stats().min_transient_load, -1e-12);
}

TEST(ContinuousProcess, HeterogeneousConvergesToSpeedProportional)
{
    const graph g = make_torus_2d(4, 4);
    const auto speeds = speed_profile::bimodal(16, 0.5, 3.0, 17);
    diffusion_config config{&g, make_alpha(g, alpha_policy::max_degree_plus_one),
                            speeds, fos_scheme()};
    std::vector<double> load(16, 0.0);
    load[0] = 3200.0;
    continuous_process proc(config, load);
    proc.run(4000);
    const auto ideal = speeds.ideal_load(3200.0);
    for (node_id v = 0; v < 16; ++v)
        EXPECT_NEAR(proc.load()[v], ideal[v], 1e-5) << "node " << v;
}

TEST(ContinuousProcess, SwitchSchemeMidRun)
{
    const graph g = make_torus_2d(5, 5);
    const double lambda = torus_2d_lambda(5, 5);
    std::vector<double> load(25, 0.0);
    load[0] = 2500.0;
    continuous_process proc(make_config(g, sos_scheme(beta_opt(lambda))), load);
    proc.run(20);
    proc.set_scheme(fos_scheme());
    proc.run(500);
    for (node_id v = 0; v < 25; ++v) EXPECT_NEAR(proc.load()[v], 100.0, 1e-6);
}

TEST(ContinuousProcess, RoundCounter)
{
    const graph g = make_cycle(5);
    continuous_process proc(make_config(g, fos_scheme()),
                            std::vector<double>(5, 1.0));
    EXPECT_EQ(proc.round(), 0);
    proc.run(7);
    EXPECT_EQ(proc.round(), 7);
}

TEST(ContinuousProcess, ValidatesConfig)
{
    const graph g = make_cycle(5);
    auto config = make_config(g, fos_scheme());
    EXPECT_THROW(continuous_process(config, std::vector<double>(4, 0.0)),
                 std::invalid_argument);
    config.network = nullptr;
    EXPECT_THROW(continuous_process(config, std::vector<double>(5, 0.0)),
                 std::invalid_argument);
}

TEST(ContinuousProcess, RejectsAsymmetricAlpha)
{
    const graph g = make_cycle(5);
    auto config = make_config(g, fos_scheme());
    const half_edge_id h = 3;
    std::vector<double> weights(static_cast<std::size_t>(g.num_half_edges()),
                                config.alpha.value());
    weights[h] *= 2.0;
    config.alpha = alpha_weights::from_vector(std::move(weights));
    const half_edge_id first = std::min(h, g.twin(h));
    try {
        continuous_process proc(config, std::vector<double>(5, 1.0));
        FAIL() << "an asymmetric alpha was accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("half-edge " + std::to_string(first)),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace dlb
