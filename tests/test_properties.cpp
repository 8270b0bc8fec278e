// Property-based sweeps: invariants that must hold for every combination of
// graph family x scheme x rounding x speed profile.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "core/alpha.hpp"
#include "core/beta.hpp"
#include "core/diffusion_matrix.hpp"
#include "core/metrics.hpp"
#include "core/process.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sim/initial_load.hpp"

namespace dlb {
namespace {

enum class graph_family { torus, hypercube, random_regular, rgg, cycle, star };

const char* family_name(graph_family f)
{
    switch (f) {
    case graph_family::torus: return "torus";
    case graph_family::hypercube: return "hypercube";
    case graph_family::random_regular: return "random_regular";
    case graph_family::rgg: return "rgg";
    case graph_family::cycle: return "cycle";
    case graph_family::star: return "star";
    }
    return "?";
}

graph build(graph_family family)
{
    switch (family) {
    case graph_family::torus: return make_torus_2d(6, 6);
    case graph_family::hypercube: return make_hypercube(5);
    case graph_family::random_regular: return make_random_regular_exact(36, 4, 7);
    case graph_family::rgg: return make_random_geometric(64, 2.0, 13);
    case graph_family::cycle: return make_cycle(30);
    case graph_family::star: return make_star(20);
    }
    throw std::logic_error("unknown family");
}

enum class speed_kind { uniform, bimodal };

using param_tuple =
    std::tuple<graph_family, scheme_kind, rounding_kind, speed_kind>;

std::string param_name(const ::testing::TestParamInfo<param_tuple>& info)
{
    const auto [family, scheme, rounding, speeds] = info.param;
    std::string name = family_name(family);
    name += scheme == scheme_kind::fos
                ? "_fos"
                : (scheme == scheme_kind::sos ? "_sos" : "_cheb");
    name += "_";
    name += to_string(rounding);
    name += speeds == speed_kind::uniform ? "_uni" : "_het";
    return name;
}

class ProcessProperties : public ::testing::TestWithParam<param_tuple> {
protected:
    void SetUp() override
    {
        graph_ = build(std::get<0>(GetParam()));
        alpha_ = make_alpha(graph_, alpha_policy::max_degree_plus_one);
        speeds_ = std::get<3>(GetParam()) == speed_kind::uniform
                      ? speed_profile::uniform(graph_.num_nodes())
                      : speed_profile::bimodal(graph_.num_nodes(), 0.3, 4.0, 99);
        switch (std::get<1>(GetParam())) {
        case scheme_kind::fos:
            scheme_ = fos_scheme();
            break;
        case scheme_kind::sos: {
            const double lambda = compute_lambda(graph_, alpha_, speeds_);
            // Guard against degenerate lambda ~ 0 (complete-like graphs).
            scheme_ = sos_scheme(beta_opt(std::min(lambda, 0.999999)));
            break;
        }
        case scheme_kind::chebyshev: {
            const double lambda = compute_lambda(graph_, alpha_, speeds_);
            scheme_ = chebyshev_scheme(std::min(lambda, 0.999999));
            break;
        }
        }
        config_ = {&graph_, alpha_, speeds_, scheme_};
    }

    graph graph_;
    alpha_weights alpha_;
    speed_profile speeds_;
    scheme_params scheme_;
    diffusion_config config_;
};

TEST_P(ProcessProperties, TokensConservedEveryRound)
{
    discrete_process proc(config_, point_load(graph_.num_nodes(), 0,
                                              graph_.num_nodes() * 100LL),
                          std::get<2>(GetParam()), 1234);
    for (int t = 0; t < 60; ++t) {
        proc.step();
        ASSERT_TRUE(proc.verify_conservation()) << "round " << t;
    }
}

TEST_P(ProcessProperties, FlowsAntisymmetricEveryRound)
{
    discrete_process proc(config_, point_load(graph_.num_nodes(), 0,
                                              graph_.num_nodes() * 50LL),
                          std::get<2>(GetParam()), 77);
    for (int t = 0; t < 30; ++t) {
        proc.step();
        const auto flows = proc.previous_flows();
        for (half_edge_id h = 0; h < graph_.num_half_edges(); ++h)
            ASSERT_EQ(flows[h], -flows[graph_.twin(h)])
                << "round " << t << " half-edge " << h;
    }
}

TEST_P(ProcessProperties, DeterministicReplay)
{
    const auto initial =
        random_load(graph_.num_nodes(), graph_.num_nodes() * 20LL, 5);
    discrete_process a(config_, initial, std::get<2>(GetParam()), 42);
    discrete_process b(config_, initial, std::get<2>(GetParam()), 42);
    a.run(40);
    b.run(40);
    ASSERT_TRUE(std::equal(a.load().begin(), a.load().end(), b.load().begin()));
}

TEST_P(ProcessProperties, ImbalanceEventuallyBounded)
{
    // After enough rounds the global imbalance settles to a small constant
    // (paper metric 5); bound generously to stay robust across families.
    discrete_process proc(config_, point_load(graph_.num_nodes(), 0,
                                              graph_.num_nodes() * 1000LL),
                          std::get<2>(GetParam()), 7);
    proc.run(4000);
    const double imbalance = max_minus_ideal(
        proc.load(), speeds_.ideal_load(static_cast<double>(proc.total_load())));
    const double slack =
        std::get<2>(GetParam()) == rounding_kind::floor ? 60.0 : 40.0;
    EXPECT_LE(imbalance, slack * speeds_.max_speed());
}

TEST_P(ProcessProperties, ContinuousTwinDeviationBounded)
{
    // Theorem 3/8/9 regime: randomized rounding stays within a modest
    // envelope of the continuous process on all tested families.
    if (std::get<2>(GetParam()) != rounding_kind::randomized)
        GTEST_SKIP() << "deviation envelope asserted for the paper's scheme";
    const auto initial =
        point_load(graph_.num_nodes(), 0, graph_.num_nodes() * 200LL);
    discrete_process discrete(config_, initial, rounding_kind::randomized, 11);
    continuous_process continuous(config_, to_continuous(initial));
    double worst = 0.0;
    for (int t = 0; t < 300; ++t) {
        discrete.step();
        continuous.step();
        worst = std::max(worst, max_deviation(discrete.load(), continuous.load()));
    }
    const double d = graph_.max_degree();
    const double n = graph_.num_nodes();
    // Generous multiple of d * sqrt(log n) (Theorem 3 scale with the
    // divergence folded into the constant).
    EXPECT_LT(worst, 25.0 * d * std::sqrt(std::log(n)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProcessProperties,
    ::testing::Combine(
        ::testing::Values(graph_family::torus, graph_family::hypercube,
                          graph_family::random_regular, graph_family::rgg,
                          graph_family::cycle, graph_family::star),
        ::testing::Values(scheme_kind::fos, scheme_kind::sos,
                          scheme_kind::chebyshev),
        ::testing::Values(rounding_kind::randomized, rounding_kind::floor,
                          rounding_kind::bernoulli_edge),
        ::testing::Values(speed_kind::uniform, speed_kind::bimodal)),
    param_name);

// ---- Beta sweep: SOS must converge for all beta in (0, 2). ----

class BetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(BetaSweep, ContinuousSosConvergesAndConserves)
{
    const graph g = make_torus_2d(6, 6);
    const diffusion_config config{
        &g, make_alpha(g, alpha_policy::max_degree_plus_one),
        speed_profile::uniform(36), sos_scheme(GetParam())};
    continuous_process proc(config, to_continuous(point_load(36, 0, 3600)));
    proc.run(4000);
    EXPECT_NEAR(proc.total_load(), 3600.0, 1e-5);
    for (const double v : proc.load()) EXPECT_NEAR(v, 100.0, 1.0);
}

INSTANTIATE_TEST_SUITE_P(BetaRange, BetaSweep,
                         ::testing::Values(0.5, 1.0, 1.2, 1.5, 1.8, 1.9),
                         [](const auto& info) {
                             const int code = static_cast<int>(
                                 std::lround(info.param * 100));
                             return "beta" + std::to_string(code);
                         });

// ---- Graph-size sweep for the rounding error accumulation. ----

class TorusSizeSweep : public ::testing::TestWithParam<node_id> {};

TEST_P(TorusSizeSweep, RandomizedFosRemainingImbalanceIsSizeIndependent)
{
    const node_id side = GetParam();
    const graph g = make_torus_2d(side, side);
    const diffusion_config config{
        &g, make_alpha(g, alpha_policy::max_degree_plus_one),
        speed_profile::uniform(g.num_nodes()), fos_scheme()};
    discrete_process proc(config,
                          point_load(g.num_nodes(), 0, g.num_nodes() * 100LL),
                          rounding_kind::randomized, 55);
    proc.run(side * side * 4);
    // Paper Figure 2: remaining imbalance does not grow with n (or the
    // average load); single-digit for the torus.
    EXPECT_LE(max_minus_average(proc.load()), 10.0) << "side " << side;
}

INSTANTIATE_TEST_SUITE_P(Sizes, TorusSizeSweep,
                         ::testing::Values<node_id>(6, 10, 16, 24),
                         [](const auto& info) {
                             return "side" + std::to_string(info.param);
                         });

} // namespace
} // namespace dlb
