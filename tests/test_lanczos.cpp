// Tests for the Lanczos extreme-eigenvalue solver.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/alpha.hpp"
#include "core/diffusion_matrix.hpp"
#include "core/speeds.hpp"
#include "graph/generators.hpp"
#include "linalg/jacobi.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/spectra.hpp"

namespace dlb {
namespace {

/// Dense operator wrapper.
auto dense_apply(const dense_matrix& m)
{
    return [&m](std::span<const double> x, std::span<double> y) {
        const auto result = m.multiply(x);
        std::copy(result.begin(), result.end(), y.begin());
    };
}

TEST(Lanczos, DiagonalOperatorExtremes)
{
    const std::size_t n = 50;
    dense_matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = static_cast<double>(i) / static_cast<double>(n - 1); // [0, 1]
    const auto result = lanczos_extreme_eigenvalues(dense_apply(m), n, {});
    EXPECT_NEAR(result.largest, 1.0, 1e-8);
    EXPECT_NEAR(result.smallest, 0.0, 1e-8);
    EXPECT_TRUE(result.converged);
}

TEST(Lanczos, DeflationRemovesTopEigenvalue)
{
    const std::size_t n = 40;
    dense_matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    m(0, 0) = 5.0; // top eigenpair: e_0 with value 5
    std::vector<double> top(n, 0.0);
    top[0] = 1.0;
    const std::vector<std::vector<double>> deflate{top};
    const auto result = lanczos_extreme_eigenvalues(dense_apply(m), n, deflate);
    EXPECT_TRUE(result.converged);
    EXPECT_NEAR(result.largest, 1.0, 1e-8);
}

TEST(Lanczos, StepCapReportsUnconverged)
{
    const std::size_t n = 50;
    dense_matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = static_cast<double>(i) / static_cast<double>(n - 1);
    const auto result = lanczos_extreme_eigenvalues(dense_apply(m), n, {}, 3);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.iterations, 3);
    EXPECT_GT(result.residual, kLanczosTolerance);
}

TEST(Lanczos, UnconvergedLambdaThrowsNamingLambdaStepsAndResidual)
{
    // A NaN weight keeps every residual from meeting the bound, so the
    // solver runs to its step cap; compute_lambda must refuse the value.
    const graph g = make_cycle(8);
    auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    alpha[0] = std::nan("");
    try {
        compute_lambda(g, alpha, speed_profile::uniform(g.num_nodes()));
        FAIL() << "an unconverged lambda was returned";
    } catch (const std::runtime_error& unconverged) {
        const std::string message = unconverged.what();
        EXPECT_NE(message.find("lambda did not converge"), std::string::npos)
            << message;
        EXPECT_NE(message.find(std::to_string(kLanczosMaxSteps) +
                               " Lanczos steps"),
                  std::string::npos)
            << message;
        EXPECT_NE(message.find("residual"), std::string::npos) << message;
    }
}

TEST(Lanczos, TorusLambdaMatchesAnalyticAtScale)
{
    // 2^16 nodes, the scale the lambda benchmark solves at: the solver on
    // its own, without the registry's closed form.
    const graph g = make_torus_2d(256, 256);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    int steps = 0;
    const double lambda =
        compute_lambda(g, alpha, speed_profile::uniform(g.num_nodes()), &steps);
    EXPECT_NEAR(lambda, torus_2d_lambda(256, 256), kLanczosTolerance);
    EXPECT_GT(steps, 0);
}

TEST(Lanczos, CycleLambdaMatchesAnalytic)
{
    for (const node_id n : {8, 16, 33}) {
        const graph g = make_cycle(n);
        const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
        const double lambda =
            compute_lambda(g, alpha, speed_profile::uniform(n));
        EXPECT_NEAR(lambda, cycle_lambda(n), 1e-8) << "n=" << n;
    }
}

TEST(Lanczos, TorusLambdaMatchesAnalytic)
{
    const graph g = make_torus_2d(8, 10);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const double lambda =
        compute_lambda(g, alpha, speed_profile::uniform(g.num_nodes()));
    EXPECT_NEAR(lambda, torus_2d_lambda(8, 10), 1e-8);
}

TEST(Lanczos, HypercubeLambdaMatchesAnalytic)
{
    const graph g = make_hypercube(7);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const double lambda =
        compute_lambda(g, alpha, speed_profile::uniform(g.num_nodes()));
    EXPECT_NEAR(lambda, hypercube_lambda(7), 1e-8);
}

TEST(Lanczos, CompleteGraphLambdaIsZero)
{
    const graph g = make_complete(20);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const double lambda =
        compute_lambda(g, alpha, speed_profile::uniform(g.num_nodes()));
    // K_n with alpha = 1/n: all non-trivial eigenvalues are exactly 0.
    EXPECT_NEAR(lambda, 0.0, 1e-7);
}

TEST(Lanczos, HeterogeneousLambdaMatchesDenseJacobi)
{
    struct heterogeneous_case {
        const char* name;
        graph g;
        speed_profile speeds;
    };
    std::vector<double> every_third(16, 1.0);
    for (std::size_t i = 0; i < every_third.size(); i += 3) every_third[i] = 4.0;
    std::vector<heterogeneous_case> cases;
    cases.push_back({"4x4 torus, every third node 4x", make_torus_2d(4, 4),
                     speed_profile::from_vector(every_third)});
    cases.push_back({"20x20 torus, zipf", make_torus_2d(20, 20),
                     speed_profile::zipf(400, 1.0, 8.0, 11)});
    cases.push_back({"400-node random regular, zipf",
                     make_random_regular_cm(400, 8, 5),
                     speed_profile::zipf(400, 1.0, 8.0, 13)});

    for (const auto& c : cases) {
        const auto alpha = make_alpha(c.g, alpha_policy::max_degree_plus_one);
        const double lanczos_lambda = compute_lambda(c.g, alpha, c.speeds);

        // Reference: dense eigensolve on the symmetrized matrix.
        const auto n = static_cast<std::size_t>(c.g.num_nodes());
        const auto sym = make_symmetrized_diffusion_operator(c.g, alpha, c.speeds);
        dense_matrix dense(n, n);
        for (std::size_t v = 0; v < n; ++v) {
            std::vector<double> unit(n, 0.0);
            unit[v] = 1.0;
            const auto column = sym.apply(unit);
            for (std::size_t u = 0; u < n; ++u) dense(u, v) = column[u];
        }
        const auto eigen = jacobi_eigen(dense);
        // eigen.values sorted descending; top is 1. lambda = max(|v2|, |vn|).
        const double reference =
            std::max(std::abs(eigen.values[1]), std::abs(eigen.values.back()));
        EXPECT_NEAR(lanczos_lambda, reference, 1e-12) << c.name;
    }
}

TEST(Lanczos, EmptyOperatorThrows)
{
    EXPECT_THROW(
        lanczos_extreme_eigenvalues([](auto, auto) {}, 0, {}),
        std::invalid_argument);
}

} // namespace
} // namespace dlb
