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
// Each step is a few node sweeps that carry their own sums, over the
// operator's row kernel (sparse_op::for_each_row). With d deflated vectors
// b_i, step k runs d + 3 sweeps, against 2d + 6 passes for the plain
// recurrence (operator, axpy, dot, projection and scale as separate passes):
// (A) w = M v - beta_{k-1} v_prev row by row, summing alpha = w . v;
// (B) w -= alpha v, summing c_0 = w . b_0; one more sweep per further b_i,
// subtracting c_{i-1} b_{i-1} and summing c_i; (C) w -= c_{d-1} b_{d-1},
// summing ||w||^2; (D) w /= beta. The regeneration pass folds x += y_j v_j,
// the row, both subtractions and the c_0 sum into one sweep, and the last
// subtraction and the scale into another. Every element takes the plain
// recurrence's rounded operations in its order, and every sum runs from
// +0.0 in ascending index order, so the sweeps return the plain
// recurrence's bits, and the regeneration pass regenerates the first
// pass's vectors bit for bit.
//
// What convergence means, and no more: theta is a Ritz value, the Rayleigh
// quotient of x, so it never lies beyond lambda_2's end of the spectrum
// (lambda_n's for the smallest end); ||M x - theta x|| <= kLanczosTolerance
// puts some eigenvalue of M within kLanczosTolerance of theta.
#ifndef DLB_LINALG_LANCZOS_HPP
#define DLB_LINALG_LANCZOS_HPP

#include <span>
#include <vector>

#include "linalg/sparse_op.hpp"

namespace dlb {

/// Residual bound a converged result meets: ||M x - theta x|| for unit x.
inline constexpr double kLanczosTolerance = 1e-12;

/// Step cap. Without reorthogonalization a small operator can need more
/// steps than its dimension, so the cap does not shrink with n.
inline constexpr int kLanczosMaxSteps = 20000;

struct lanczos_result {
    double largest = 0.0;    // largest Ritz value (after deflation)
    double smallest = 0.0;   // smallest Ritz value (after deflation)
    int iterations = 0;      // Lanczos steps taken
    int applies = 0;         // operator applications: one per step, plus
                             // k per true-residual check at step k
    double residual = 0.0;   // true ||M x - theta x|| once checked, else the
                             // larger of the two ends' estimates
    bool converged = false;  // the true residual met kLanczosTolerance
};

/// The n-vectors a solve that returned `result` held at its peak, besides
/// the caller's deflated vectors: the start vector and the three Lanczos
/// vectors, and during a true-residual check (one ran iff applies >
/// iterations) the Ritz vector and the three vectors it regenerates.
inline int lanczos_peak_vectors(const lanczos_result& result) noexcept
{
    return result.applies > result.iterations ? 8 : 4;
}

/// Extreme eigenvalues of the symmetric operator `op` on the complement of
/// span(deflate) — pass the known top eigenvector(s), normalized, in
/// `deflate`. Stops converged or after `max_steps` steps; callers must
/// check `converged`. Deterministic: the start vector is a fixed
/// pseudo-random one.
lanczos_result lanczos_extreme_eigenvalues(
    const sparse_op& op, std::span<const std::vector<double>> deflate,
    int max_steps = kLanczosMaxSteps);

} // namespace dlb

#endif // DLB_LINALG_LANCZOS_HPP
