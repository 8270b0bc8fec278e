// Three-term Lanczos for the extreme eigenvalues of large sparse symmetric
// operators, in memory that does not grow with the step count.
//
// Used to obtain lambda = second-largest eigenvalue in magnitude of the
// (symmetrized) diffusion matrix M, which determines beta_opt =
// 2 / (1 + sqrt(1 - lambda^2)). The known top eigenvector of M
// (constant / speed-weighted) is projected out of every new Lanczos vector,
// so the extremes found are lambda_2 and lambda_n.
//
// No Krylov basis is kept: the solver holds the previous, current and next
// Lanczos vectors, the start vector and the deflated vectors, plus the
// tridiagonal T_k (two doubles per step). Every 20 steps it finds T_k's
// extreme eigenvalues by Sturm bisection and their residual estimates
// beta_k * |y_k| by inverse iteration on T_k. Once both ends are below the
// tolerance, a second pass regenerates the Lanczos vectors from the start
// vector and T_k, forms the unit Ritz vector x of the end with the larger
// magnitude, and checks the true residual ||M x - theta x||. Only a passed
// check converges; otherwise iteration continues. The solver is serial.
//
// What convergence means, and no more: theta is a Ritz value, the Rayleigh
// quotient of x, so it never lies beyond lambda_2's end of the spectrum
// (lambda_n's for the smallest end); ||M x - theta x|| <= kLanczosTolerance
// puts some eigenvalue of M within kLanczosTolerance of theta.
#ifndef DLB_LINALG_LANCZOS_HPP
#define DLB_LINALG_LANCZOS_HPP

#include <functional>
#include <span>
#include <vector>

namespace dlb {

/// Residual bound a converged result meets: ||M x - theta x|| for unit x.
inline constexpr double kLanczosTolerance = 1e-12;

/// Step cap. Without reorthogonalization a small operator can need more
/// steps than its dimension, so the cap does not shrink with n.
inline constexpr int kLanczosMaxSteps = 20000;

struct lanczos_result {
    double largest = 0.0;    // largest Ritz value (after deflation)
    double smallest = 0.0;   // smallest Ritz value (after deflation)
    int iterations = 0;      // Lanczos steps (operator applications) taken
    double residual = 0.0;   // true ||M x - theta x|| once checked, else the
                             // larger of the two ends' estimates
    bool converged = false;  // the true residual met kLanczosTolerance
};

/// Extreme eigenvalues of the symmetric operator `apply` (dimension n) on the
/// complement of span(deflate) — pass the known top eigenvector(s),
/// normalized, in `deflate`. Stops converged or after `max_steps` steps;
/// callers must check `converged`. Deterministic: the start vector is a
/// fixed pseudo-random one.
lanczos_result lanczos_extreme_eigenvalues(
    const std::function<void(std::span<const double>, std::span<double>)>& apply,
    std::size_t n, std::span<const std::vector<double>> deflate,
    int max_steps = kLanczosMaxSteps);

} // namespace dlb

#endif // DLB_LINALG_LANCZOS_HPP
