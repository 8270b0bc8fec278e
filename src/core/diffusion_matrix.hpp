// Construction of the (heterogeneous) diffusion matrix M = I - L S^{-1}
// in sparse and dense form, plus lambda (second-largest eigenvalue in
// magnitude) computation.
//
// Entries: M_ij = alpha_ij / s_j for j in N(i), M_ii = 1 - (sum_j alpha_ij)/s_i.
// In the homogeneous case this reduces to the doubly stochastic M of eq. (2).
// M is not symmetric when speeds differ, but S^{-1/2} M S^{1/2} is, with top
// eigenvector proportional to sqrt(s); lambda is computed on that
// symmetrization (paper Section IV, Lemma 5/7 machinery). Uniform speeds on
// the closed-form families skip the solver: the campaign registry's
// closed_form_lambda hook gives their lambda exactly.
#ifndef DLB_CORE_DIFFUSION_MATRIX_HPP
#define DLB_CORE_DIFFUSION_MATRIX_HPP

#include <vector>

#include "core/speeds.hpp"
#include "graph/graph.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/sparse_op.hpp"

namespace dlb {

/// Sparse M (row-action: y = M x). Off-diagonal weight on half-edge
/// h = (i -> j) is M_ij = alpha[h] / s_j.
sparse_op make_diffusion_operator(const graph& g, const std::vector<double>& alpha,
                                  const speed_profile& speeds);

/// Sparse M^T; needed for row-vector recursions (contributions, divergence).
sparse_op make_diffusion_operator_transposed(const graph& g,
                                             const std::vector<double>& alpha,
                                             const speed_profile& speeds);

/// Sparse symmetrization S^{-1/2} M S^{1/2}; equals M when speeds are
/// uniform. Shares the spectrum of M.
sparse_op make_symmetrized_diffusion_operator(const graph& g,
                                              const std::vector<double>& alpha,
                                              const speed_profile& speeds);

/// Dense M for small graphs / tests.
dense_matrix make_dense_diffusion_matrix(const graph& g,
                                         const std::vector<double>& alpha,
                                         const speed_profile& speeds);

/// The unit top eigenvector of the symmetrized operator: sqrt(s)/||sqrt(s)||.
std::vector<double> top_eigenvector_symmetrized(const speed_profile& speeds);

/// lambda = second-largest eigenvalue of M in magnitude, via the three-term
/// Lanczos solver (linalg/lanczos.hpp) on the symmetrization with its top
/// eigenvector deflated. The solver's steps are node sweeps over the
/// symmetrized operator's row kernel (sparse_op::for_each_row) that carry
/// their own sums; per element they run the plain recurrence's rounded
/// operations in its order, so lambda keeps the plain recurrence's bits.
/// Deterministic and serial, so its bits do not depend on any executor.
/// The returned value passed the solver's true residual check: some
/// eigenvalue of M lies within kLanczosTolerance of it, and it never lies
/// beyond lambda's end of the spectrum. beta_opt then moves by at most
/// beta_opt'(lambda) * kLanczosTolerance, about 1.3e-10 on the 256^2 torus
/// and 5e-10 on the 1024^2 one. Throws std::runtime_error naming lambda,
/// the step count and the residual when the solver reaches
/// kLanczosMaxSteps unconverged. Under a trace session the solve is a
/// `linalg`/`lanczos` span whose args are the steps, operator applications,
/// residual and converged flag. `solve`, when given, receives the solver's
/// result.
double compute_lambda(const graph& g, const std::vector<double>& alpha,
                      const speed_profile& speeds,
                      lanczos_result* solve = nullptr);

} // namespace dlb

#endif // DLB_CORE_DIFFUSION_MATRIX_HPP
