// Tests for the FOS/SOS flow rules, including the linearity property
// (paper Lemma 1 / Definition 4).
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <stdexcept>
#include <string>

#include "core/alpha.hpp"
#include "core/scheme.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace dlb {
namespace {

std::vector<double> random_vector(std::size_t size, std::uint64_t seed)
{
    std::vector<double> values(size);
    xoshiro256ss rng{seed};
    for (auto& v : values) v = rng.next_double() * 20.0 - 10.0;
    return values;
}

/// Antisymmetrizes a random per-half-edge vector to make a valid y(t-1).
std::vector<double> random_flows(const graph& g, std::uint64_t seed)
{
    std::vector<double> flows(static_cast<std::size_t>(g.num_half_edges()));
    xoshiro256ss rng{seed};
    for (node_id v = 0; v < g.num_nodes(); ++v)
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h)
            if (v < g.head(h)) {
                flows[h] = rng.next_double() * 4.0 - 2.0;
                flows[g.twin(h)] = -flows[h];
            }
    return flows;
}

TEST(Scheme, ValidateRejectsBadBeta)
{
    EXPECT_THROW(validate_scheme(sos_scheme(0.0)), std::invalid_argument);
    EXPECT_THROW(validate_scheme(sos_scheme(2.0)), std::invalid_argument);
    EXPECT_NO_THROW(validate_scheme(sos_scheme(1.5)));
    EXPECT_NO_THROW(validate_scheme(fos_scheme()));
}

TEST(Scheme, FosFlowsMatchFormula)
{
    const graph g = make_path(3); // alpha = 1/3 on both edges
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const std::vector<double> load{9.0, 3.0, 0.0};
    std::vector<double> flows(static_cast<std::size_t>(g.num_half_edges()));
    scheduled_flows(g, alpha, fos_scheme(), 0, load, {}, flows, default_executor());

    // Edge (0,1): 1/3 * (9-3) = 2 from 0's side.
    for (half_edge_id h = g.half_edge_begin(0); h < g.half_edge_end(0); ++h) {
        if (g.head(h) == 1) {
            EXPECT_NEAR(flows[h], 2.0, 1e-12);
        }
    }
    // Edge (1,2): 1/3 * (3-0) = 1 from 1's side.
    for (half_edge_id h = g.half_edge_begin(1); h < g.half_edge_end(1); ++h) {
        if (g.head(h) == 2) {
            EXPECT_NEAR(flows[h], 1.0, 1e-12);
        }
    }
}

TEST(Scheme, FlowsAreAntisymmetric)
{
    const graph g = make_torus_2d(4, 4);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto load = random_vector(static_cast<std::size_t>(g.num_nodes()), 3);
    const auto prev = random_flows(g, 4);

    for (const auto scheme : {fos_scheme(), sos_scheme(1.7)}) {
        for (const std::int64_t rounds_in : {0, 5}) {
            std::vector<double> flows(static_cast<std::size_t>(g.num_half_edges()));
            scheduled_flows(g, alpha, scheme, rounds_in, load, prev, flows,
                            default_executor());
            for (half_edge_id h = 0; h < g.num_half_edges(); ++h)
                EXPECT_NEAR(flows[h], -flows[g.twin(h)], 1e-12);
        }
    }
}

TEST(Scheme, SosFirstRoundEqualsFos)
{
    const graph g = make_cycle(6);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto load = random_vector(6, 9);
    const auto prev = random_flows(g, 10);

    std::vector<double> fos_flows(static_cast<std::size_t>(g.num_half_edges()));
    std::vector<double> sos_flows(fos_flows.size());
    scheduled_flows(g, alpha, fos_scheme(), 0, load, {}, fos_flows,
                    default_executor());
    // rounds_in_scheme == 0: SOS must ignore prev and apply FOS.
    scheduled_flows(g, alpha, sos_scheme(1.9), 0, load, prev, sos_flows,
                    default_executor());
    for (half_edge_id h = 0; h < g.num_half_edges(); ++h)
        EXPECT_DOUBLE_EQ(sos_flows[h], fos_flows[h]);
}

TEST(Scheme, SosSecondRoundUsesPreviousFlows)
{
    const graph g = make_cycle(4);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const std::vector<double> load{1.0, 0.0, 0.0, 0.0};
    const auto prev = random_flows(g, 21);
    const double beta = 1.6;

    std::vector<double> flows(static_cast<std::size_t>(g.num_half_edges()));
    scheduled_flows(g, alpha, sos_scheme(beta), 3, load, prev, flows,
                    default_executor());
    for (node_id v = 0; v < 4; ++v)
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h) {
            const double expected = (beta - 1.0) * prev[h] +
                                    beta * alpha[h] * (load[v] - load[g.head(h)]);
            EXPECT_NEAR(flows[h], expected, 1e-12);
        }
}

TEST(Scheme, LinearityLemma1)
{
    // A(a x + b x', a y + b y') == a A(x, y) + b A(x', y').
    const graph g = make_torus_2d(3, 4);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto x1 = random_vector(12, 31);
    const auto x2 = random_vector(12, 32);
    const auto y1 = random_flows(g, 33);
    const auto y2 = random_flows(g, 34);
    const double a = 2.5, b = -1.25;

    for (const auto scheme : {fos_scheme(), sos_scheme(1.8)}) {
        std::vector<double> f1(static_cast<std::size_t>(g.num_half_edges()));
        std::vector<double> f2(f1.size()), f_combo(f1.size());
        std::vector<double> x_combo(12), y_combo(f1.size());
        for (std::size_t i = 0; i < 12; ++i) x_combo[i] = a * x1[i] + b * x2[i];
        for (std::size_t i = 0; i < y_combo.size(); ++i)
            y_combo[i] = a * y1[i] + b * y2[i];

        scheduled_flows(g, alpha, scheme, 2, x1, y1, f1, default_executor());
        scheduled_flows(g, alpha, scheme, 2, x2, y2, f2, default_executor());
        scheduled_flows(g, alpha, scheme, 2, x_combo, y_combo, f_combo,
                        default_executor());

        for (std::size_t i = 0; i < f_combo.size(); ++i)
            EXPECT_NEAR(f_combo[i], a * f1[i] + b * f2[i], 1e-10);
    }
}

TEST(Scheme, HeterogeneousGradientUsesNormalizedLoad)
{
    // Two nodes with speeds 1 and 3: flow follows x_i/s_i - x_j/s_j.
    const graph g = make_path(2);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    // Caller passes load_over_speed; verify a balanced-by-speed vector
    // produces zero flow.
    const std::vector<double> load_over_speed{5.0, 5.0}; // x = (5, 15), s = (1, 3)
    std::vector<double> flows(static_cast<std::size_t>(g.num_half_edges()));
    scheduled_flows(g, alpha, fos_scheme(), 0, load_over_speed, {}, flows,
                    default_executor());
    for (const double f : flows) EXPECT_DOUBLE_EQ(f, 0.0);
}

TEST(Scheme, SizeValidation)
{
    const graph g = make_cycle(4);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    std::vector<double> flows(static_cast<std::size_t>(g.num_half_edges()));
    EXPECT_THROW(scheduled_flows(g, alpha, fos_scheme(), 0,
                                 std::vector<double>(3), {}, flows,
                                 default_executor()),
                 std::invalid_argument);
    EXPECT_THROW(scheduled_flows(g, alpha, sos_scheme(1.5), 1,
                                 std::vector<double>(4), {}, flows,
                                 default_executor()),
                 std::invalid_argument);
}

TEST(Scheme, PreviousFlowsMayBeTheOutputButOverlapNoOtherWay)
{
    const graph g = make_cycle(4);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const std::vector<double> load{4.0, 0.0, 1.0, 3.0};
    const auto half_edges = static_cast<std::size_t>(g.num_half_edges());
    std::vector<double> buffer(half_edges + 1);
    const std::span<double> out(buffer.data(), half_edges);
    const std::span<double> shifted(buffer.data() + 1, half_edges);
    const std::span<double> prefix(buffer.data(), half_edges - 1);
    EXPECT_NO_THROW(scheduled_flows(g, alpha, sos_scheme(1.5), 1, load, out, out,
                                    default_executor()));
    const auto expect_overlap_error = [&](std::span<const double> previous,
                                          std::span<double> flows,
                                          scheme_params scheme) {
        try {
            scheduled_flows(g, alpha, scheme, 1, load, previous, flows,
                            default_executor());
            ADD_FAILURE() << "an overlap that is not in place was accepted";
        } catch (const std::invalid_argument& error) {
            EXPECT_NE(std::string(error.what()).find("overlaps"), std::string::npos)
                << error.what();
        }
    };
    expect_overlap_error(shifted, out, sos_scheme(1.5));
    expect_overlap_error(out, shifted, sos_scheme(1.5));
    // FOS reads no previous flows, but the contract is the same.
    expect_overlap_error(prefix, out, fos_scheme());
}

} // namespace
} // namespace dlb
