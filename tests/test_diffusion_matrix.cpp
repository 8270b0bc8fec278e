// Tests for diffusion matrix construction (homogeneous and heterogeneous).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/alpha.hpp"
#include "core/diffusion_matrix.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace dlb {
namespace {

TEST(DiffusionMatrix, HomogeneousIsDoublyStochastic)
{
    const graph g = make_torus_2d(4, 5);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto m = make_dense_diffusion_matrix(
        g, alpha, speed_profile::uniform(g.num_nodes()));
    const std::size_t n = m.rows();
    for (std::size_t i = 0; i < n; ++i) {
        double row_sum = 0.0, col_sum = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            row_sum += m(i, j);
            col_sum += m(j, i);
            EXPECT_GE(m(i, j), 0.0);
        }
        EXPECT_NEAR(row_sum, 1.0, 1e-12);
        EXPECT_NEAR(col_sum, 1.0, 1e-12);
    }
}

TEST(DiffusionMatrix, HomogeneousIsSymmetric)
{
    const graph g = make_star(6);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto m = make_dense_diffusion_matrix(
        g, alpha, speed_profile::uniform(g.num_nodes()));
    EXPECT_LT(m.max_abs_diff(m.transposed()), 1e-15);
}

TEST(DiffusionMatrix, HeterogeneousColumnsSumToOne)
{
    // Column sums of M = I - L S^{-1} are 1: load is conserved.
    const graph g = make_cycle(6);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::from_vector({1, 2, 3, 1, 5, 1});
    const auto m = make_dense_diffusion_matrix(g, alpha, speeds);
    for (std::size_t j = 0; j < 6; ++j) {
        double col_sum = 0.0;
        for (std::size_t i = 0; i < 6; ++i) col_sum += m(i, j);
        EXPECT_NEAR(col_sum, 1.0, 1e-12) << "column " << j;
    }
}

TEST(DiffusionMatrix, FixedPointIsProportionalToSpeed)
{
    const graph g = make_complete(5);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::from_vector({1, 2, 3, 4, 5});
    const auto m = make_dense_diffusion_matrix(g, alpha, speeds);
    std::vector<double> x(5);
    for (node_id v = 0; v < 5; ++v) x[v] = speeds.speed(v);
    const auto y = m.multiply(x);
    for (node_id v = 0; v < 5; ++v) EXPECT_NEAR(y[v], x[v], 1e-12);
}

TEST(DiffusionMatrix, SparseMatchesDense)
{
    const graph g = make_torus_2d(3, 4);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::bimodal(g.num_nodes(), 0.5, 3.0, 4);
    const auto dense = make_dense_diffusion_matrix(g, alpha, speeds);
    const auto sparse = make_diffusion_operator(g, alpha, speeds);

    std::vector<double> x(static_cast<std::size_t>(g.num_nodes()));
    xoshiro256ss rng{5};
    for (auto& v : x) v = rng.next_double();
    const auto dense_result = dense.multiply(x);
    const auto sparse_result = sparse.apply(x);
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(sparse_result[i], dense_result[i], 1e-12);
}

TEST(DiffusionMatrix, TransposedOperatorMatchesDenseTranspose)
{
    const graph g = make_path(7);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds =
        speed_profile::from_vector({1, 2, 1, 4, 1, 2, 1});
    const auto dense_t =
        make_dense_diffusion_matrix(g, alpha, speeds).transposed();
    const auto sparse_t = make_diffusion_operator_transposed(g, alpha, speeds);

    std::vector<double> x(7);
    xoshiro256ss rng{6};
    for (auto& v : x) v = rng.next_double();
    const auto expected = dense_t.multiply(x);
    const auto actual = sparse_t.apply(x);
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(actual[i], expected[i], 1e-12);
}

TEST(DiffusionMatrix, SymmetrizedOperatorIsSymmetric)
{
    const graph g = make_torus_2d(3, 3);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::bimodal(9, 0.4, 5.0, 11);
    const auto sym = make_symmetrized_diffusion_operator(g, alpha, speeds);
    EXPECT_LT(sym.symmetry_defect(), 1e-15);
}

TEST(DiffusionMatrix, SymmetrizedSharesSpectrumSqrtSEigenvector)
{
    const graph g = make_cycle(5);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::from_vector({1, 4, 9, 1, 4});
    const auto sym = make_symmetrized_diffusion_operator(g, alpha, speeds);
    const auto top = top_eigenvector_symmetrized(speeds);
    const auto image = sym.apply(top);
    for (std::size_t i = 0; i < top.size(); ++i)
        EXPECT_NEAR(image[i], top[i], 1e-12) << "entry " << i;
    // And it is unit-norm.
    EXPECT_NEAR(std::inner_product(top.begin(), top.end(), top.begin(), 0.0),
                1.0, 1e-12);
}

TEST(DiffusionMatrix, SizeValidation)
{
    const graph g = make_cycle(4);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    EXPECT_THROW(make_diffusion_operator(
                     g, alpha_weights::from_vector(std::vector<double>(3)),
                     speed_profile::uniform(4)),
                 std::invalid_argument);
    EXPECT_THROW(make_diffusion_operator(g, alpha_weights::uniform(3, 0.25),
                                         speed_profile::uniform(4)),
                 std::invalid_argument);
    EXPECT_THROW(make_diffusion_operator(g, alpha, speed_profile::uniform(5)),
                 std::invalid_argument);
}

} // namespace
} // namespace dlb
