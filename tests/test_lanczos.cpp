// Tests for the Lanczos extreme-eigenvalue solver.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
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
#include "linalg/sparse_op.hpp"
#include "reference_kernels.hpp"

namespace dlb {
namespace {

/// The diagonal operator diag(entries): a sparse_op on g, a graph of
/// entries.size() nodes and no edges.
sparse_op diagonal_operator(const graph& g, std::vector<double> entries)
{
    return sparse_op(&g, std::move(entries), {});
}

/// n evenly spaced entries from 0 to 1.
std::vector<double> ramp(std::size_t n)
{
    std::vector<double> entries(n);
    for (std::size_t i = 0; i < n; ++i)
        entries[i] = static_cast<double>(i) / static_cast<double>(n - 1);
    return entries;
}

TEST(Lanczos, DiagonalOperatorExtremes)
{
    const std::size_t n = 50;
    const graph g = graph::from_edge_list(n, {});
    const sparse_op m = diagonal_operator(g, ramp(n)); // [0, 1]
    const auto result = lanczos_extreme_eigenvalues(m, {});
    EXPECT_NEAR(result.largest, 1.0, 1e-8);
    EXPECT_NEAR(result.smallest, 0.0, 1e-8);
    EXPECT_TRUE(result.converged);
}

TEST(Lanczos, DeflationRemovesTopEigenvalue)
{
    const std::size_t n = 40;
    const graph g = graph::from_edge_list(n, {});
    std::vector<double> entries(n, 1.0);
    entries[0] = 5.0; // top eigenpair: e_0 with value 5
    const sparse_op m = diagonal_operator(g, entries);
    std::vector<double> top(n, 0.0);
    top[0] = 1.0;
    const std::vector<std::vector<double>> deflate{top};
    const auto result = lanczos_extreme_eigenvalues(m, deflate);
    EXPECT_TRUE(result.converged);
    EXPECT_NEAR(result.largest, 1.0, 1e-8);
}

TEST(Lanczos, StepCapReportsUnconverged)
{
    const std::size_t n = 50;
    const graph g = graph::from_edge_list(n, {});
    const sparse_op m = diagonal_operator(g, ramp(n));
    const auto result = lanczos_extreme_eigenvalues(m, {}, 3);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.iterations, 3);
    EXPECT_GT(result.residual, kLanczosTolerance);
}

TEST(Lanczos, UnconvergedLambdaThrowsNamingLambdaStepsAndResidual)
{
    // A NaN weight keeps every residual from meeting the bound, so the
    // solver runs to its step cap; compute_lambda must refuse the value.
    const graph g = make_cycle(8);
    std::vector<double> weights(static_cast<std::size_t>(g.num_half_edges()),
                                1.0 / 3.0);
    weights[0] = std::nan("");
    try {
        compute_lambda(g, alpha_weights::from_vector(std::move(weights)),
                       speed_profile::uniform(g.num_nodes()));
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
    lanczos_result solved;
    const double lambda =
        compute_lambda(g, alpha, speed_profile::uniform(g.num_nodes()), &solved);
    EXPECT_NEAR(lambda, torus_2d_lambda(256, 256), kLanczosTolerance);
    EXPECT_GT(solved.iterations, 0);
    EXPECT_GT(solved.applies, solved.iterations); // a passed check adds k
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

/// What one solve of the bitwise pin runs: an operator, the vectors it
/// deflates and the step cap.
struct pinned_solve {
    std::string name;
    const sparse_op* op;
    std::vector<std::vector<double>> deflate;
    int max_steps = kLanczosMaxSteps;
};

/// compute_lambda's operator and deflated vector for g under the paper's
/// alpha and `speeds`.
struct lambda_problem {
    lambda_problem(const graph& g, const speed_profile& speeds)
        : op(make_symmetrized_diffusion_operator(
              g, make_alpha(g, alpha_policy::max_degree_plus_one), speeds)),
          deflate{top_eigenvector_symmetrized(speeds)}
    {
    }
    sparse_op op;
    std::vector<std::vector<double>> deflate;
};

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(Lanczos, MatchesReferenceRecurrenceBitwise)
{
    // Every element of every vector takes the reference's rounded
    // operations in its order, and every dot sums from +0.0 in ascending
    // index order, so the extremes, the step count and the residual keep
    // their bits: diagonal operators with and without deflation, a step
    // cap that stops unconverged, regular and irregular degrees, and
    // zipf speeds (the symmetrization's unequal weights).
    const graph isolated50 = graph::from_edge_list(50, {});
    const sparse_op diagonal50 = diagonal_operator(isolated50, ramp(50));
    const graph isolated40 = graph::from_edge_list(40, {});
    std::vector<double> spike(40, 1.0);
    spike[0] = 5.0;
    const sparse_op diagonal40 = diagonal_operator(isolated40, spike);
    std::vector<double> e0(40, 0.0);
    e0[0] = 1.0;
    // The ramp's top two unit vectors: a second deflated vector takes the
    // extra deflation sweep.
    std::vector<double> e48(50, 0.0);
    std::vector<double> e49(50, 0.0);
    e48[48] = 1.0;
    e49[49] = 1.0;

    const auto uniform = [](const graph& g) {
        return speed_profile::uniform(g.num_nodes());
    };
    const graph cycle = make_cycle(33);
    const graph torus = make_torus_2d(8, 10);
    const graph cube = make_hypercube(7);
    const graph path = make_path(30);
    const graph small_torus = make_torus_2d(20, 20);
    const graph large_torus = make_torus_2d(128, 128);
    const graph regular = make_random_regular_cm(400, 8, 5);
    std::vector<lambda_problem> problems;
    problems.emplace_back(cycle, uniform(cycle));
    problems.emplace_back(torus, uniform(torus));
    problems.emplace_back(cube, uniform(cube));
    problems.emplace_back(path, uniform(path));
    problems.emplace_back(small_torus, speed_profile::zipf(400, 1.0, 8.0, 11));
    problems.emplace_back(large_torus,
                          speed_profile::zipf(128 * 128, 1.0, 8.0, 17));
    problems.emplace_back(regular, speed_profile::zipf(400, 1.0, 8.0, 13));

    std::vector<pinned_solve> solves;
    solves.push_back({"50-entry diagonal", &diagonal50, {}});
    solves.push_back({"40-entry diagonal, e0 deflated", &diagonal40, {e0}});
    solves.push_back({"50-entry diagonal, 3-step cap", &diagonal50, {}, 3});
    solves.push_back(
        {"50-entry diagonal, top two deflated", &diagonal50, {e49, e48}});
    const char* const names[] = {"cycle 33",        "8x10 torus",
                                 "2^7 hypercube",   "path 30",
                                 "20x20 zipf torus", "128^2 zipf torus",
                                 "400-node 8-regular, zipf"};
    for (std::size_t i = 0; i < problems.size(); ++i)
        solves.push_back({names[i], &problems[i].op, problems[i].deflate});

    for (const pinned_solve& solve : solves) {
        const sparse_op& op = *solve.op;
        // The reference takes the operator opaquely; counting its calls
        // gives the operator applications the fused solver must report.
        int applies = 0;
        const lanczos_result want = lanczos_reference(
            [&op, &applies](std::span<const double> x, std::span<double> y) {
                ++applies;
                op.apply(x, y);
            },
            op.dimension(), solve.deflate, solve.max_steps);
        const lanczos_result got =
            lanczos_extreme_eigenvalues(op, solve.deflate, solve.max_steps);
        EXPECT_EQ(bits(got.largest), bits(want.largest)) << solve.name;
        EXPECT_EQ(bits(got.smallest), bits(want.smallest)) << solve.name;
        EXPECT_EQ(got.iterations, want.iterations) << solve.name;
        EXPECT_EQ(bits(got.residual), bits(want.residual)) << solve.name;
        EXPECT_EQ(got.converged, want.converged) << solve.name;
        EXPECT_EQ(want.converged, solve.max_steps == kLanczosMaxSteps)
            << solve.name;
        EXPECT_EQ(got.applies, applies) << solve.name;
    }
}

TEST(Lanczos, EmptyOperatorThrows)
{
    const graph g = graph::from_edge_list(0, {});
    EXPECT_THROW(lanczos_extreme_eigenvalues(diagonal_operator(g, {}), {}),
                 std::invalid_argument);
}

} // namespace
} // namespace dlb
