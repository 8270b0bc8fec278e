// Tests for alpha_ij policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "core/alpha.hpp"
#include "graph/generators.hpp"

namespace dlb {
namespace {

TEST(Alpha, MaxDegreePlusOneOnRegularGraph)
{
    const graph g = make_torus_2d(4, 4);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    EXPECT_TRUE(alpha.is_uniform());
    EXPECT_EQ(alpha.size(), static_cast<std::size_t>(g.num_half_edges()));
    for (half_edge_id h = 0; h < g.num_half_edges(); ++h)
        EXPECT_DOUBLE_EQ(alpha[h], 0.2);
    EXPECT_TRUE(alpha_is_valid(g, alpha));
}

TEST(Alpha, RegularGraphsHoldOneValueWithThePerHalfEdgeBits)
{
    // The paper default on a regular graph is one value, 0 bytes per
    // half-edge, with the bits the per-half-edge formula gives each one.
    for (const graph& g : {make_torus_2d(6, 5), make_hypercube(5),
                           make_complete(9), make_cycle(3)}) {
        const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
        ASSERT_TRUE(alpha.is_uniform());
        EXPECT_TRUE(alpha.weights().empty());
        EXPECT_EQ(alpha.size(), static_cast<std::size_t>(g.num_half_edges()));
        for (node_id u = 0; u < g.num_nodes(); ++u)
            for (half_edge_id h = g.half_edge_begin(u); h < g.half_edge_end(u);
                 ++h) {
                const double expected =
                    1.0 / (std::max(g.degree(u), g.degree(g.head(h))) + 1.0);
                const double got = alpha[h];
                EXPECT_EQ(std::memcmp(&got, &expected, sizeof got), 0) << h;
            }
    }
}

TEST(Alpha, IrregularGraphsShareOneWeightVector)
{
    // The 37x23 grid has degrees 2, 3 and 4, so max(d_u, d_v) is 3 on the
    // boundary and 4 elsewhere: two weights, held once per half-edge and
    // shared, not copied, by every copy of the weights.
    const graph g = make_grid_2d(37, 23);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    ASSERT_FALSE(alpha.is_uniform());
    ASSERT_EQ(alpha.weights().size(), static_cast<std::size_t>(g.num_half_edges()));
    const std::set<double> values(alpha.weights().begin(), alpha.weights().end());
    EXPECT_EQ(values, (std::set<double>{1.0 / 5.0, 1.0 / 4.0}));
    const alpha_weights copy = alpha; // NOLINT(performance-unnecessary-copy-initialization)
    EXPECT_EQ(copy.weights().data(), alpha.weights().data());
    EXPECT_TRUE(alpha_is_valid(g, alpha));

    // An explicit vector stays explicit even when its values are equal.
    const auto explicit_uniform = alpha_weights::from_vector(
        std::vector<double>(static_cast<std::size_t>(g.num_half_edges()), 0.2));
    EXPECT_FALSE(explicit_uniform.is_uniform());
    EXPECT_EQ(explicit_uniform[7], 0.2);
}

TEST(Alpha, MaxDegreePlusOneOnStar)
{
    const graph g = make_star(5); // center degree 4, leaves degree 1
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    for (half_edge_id h = 0; h < g.num_half_edges(); ++h)
        EXPECT_DOUBLE_EQ(alpha[h], 1.0 / 5.0);
    EXPECT_TRUE(alpha_is_valid(g, alpha));
}

TEST(Alpha, MixedDegreesUseEdgeMaximum)
{
    // Path 0-1-2: degrees 1, 2, 1; every edge max degree 2 -> alpha 1/3.
    const graph g = make_path(3);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    EXPECT_FALSE(alpha.is_uniform());
    for (half_edge_id h = 0; h < g.num_half_edges(); ++h)
        EXPECT_DOUBLE_EQ(alpha[h], 1.0 / 3.0);
}

TEST(Alpha, UniformGammaD)
{
    const graph g = make_hypercube(4); // d = 4
    const auto alpha = make_alpha(g, alpha_policy::uniform_gamma_d, 2.0);
    EXPECT_TRUE(alpha.is_uniform());
    for (half_edge_id h = 0; h < g.num_half_edges(); ++h)
        EXPECT_DOUBLE_EQ(alpha[h], 1.0 / 8.0);
    EXPECT_TRUE(alpha_is_valid(g, alpha));
    // One value on an irregular graph too: 1/(gamma * max degree).
    const auto star = make_alpha(make_star(6), alpha_policy::uniform_gamma_d, 2.0);
    EXPECT_TRUE(star.is_uniform());
    EXPECT_EQ(star.value(), 1.0 / (2.0 * 5));
}

TEST(Alpha, UniformGammaRequiresGreaterThanOne)
{
    const graph g = make_cycle(5);
    EXPECT_THROW(make_alpha(g, alpha_policy::uniform_gamma_d, 1.0),
                 std::invalid_argument);
    EXPECT_THROW(make_alpha(g, alpha_policy::uniform_gamma_d, 0.5),
                 std::invalid_argument);
}

TEST(Alpha, ValidityChecks)
{
    const graph g = make_cycle(4);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    EXPECT_TRUE(alpha_is_valid(g, alpha));
    const std::vector<double> weights(alpha.size(), alpha.value());
    EXPECT_TRUE(alpha_is_valid(g, alpha_weights::from_vector(weights)));

    // Wrong size.
    EXPECT_FALSE(alpha_is_valid(g, alpha_weights::from_vector({0.1, 0.1, 0.1})));
    EXPECT_FALSE(alpha_is_valid(g, alpha_weights::uniform(3, 0.1)));

    // Asymmetric.
    auto broken = weights;
    broken[0] += 0.01;
    EXPECT_FALSE(alpha_is_valid(g, alpha_weights::from_vector(broken)));

    // Row sum > 1.
    EXPECT_FALSE(alpha_is_valid(g, alpha_weights::uniform(g.num_half_edges(), 0.6)));

    // Non-positive.
    auto zeroed = weights;
    zeroed[0] = 0.0;
    zeroed[g.twin(0)] = 0.0;
    EXPECT_FALSE(alpha_is_valid(g, alpha_weights::from_vector(zeroed)));
}

TEST(Alpha, DiagonalNonNegativity)
{
    // Paper-default alpha keeps 1 - sum_j alpha_ij >= 1/(d+1) > 0.
    for (const graph& g :
         {make_torus_2d(5, 5), make_star(8), make_complete(6), make_path(9)}) {
        const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
        for (node_id v = 0; v < g.num_nodes(); ++v) {
            double sum = 0.0;
            for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h)
                sum += alpha[h];
            EXPECT_LT(sum, 1.0) << "node " << v;
        }
    }
}

} // namespace
} // namespace dlb
