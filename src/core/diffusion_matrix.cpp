#include "core/diffusion_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"

namespace dlb {

namespace {

void check_sizes(const graph& g, const alpha_weights& alpha,
                 const speed_profile& speeds)
{
    if (alpha.size() != static_cast<std::size_t>(g.num_half_edges()))
        throw std::invalid_argument("diffusion_matrix: alpha size mismatch");
    if (speeds.size() != g.num_nodes())
        throw std::invalid_argument("diffusion_matrix: speeds size mismatch");
}

std::vector<double> diagonal_of_m(const graph& g, const alpha_weights& alpha,
                                  const speed_profile& speeds)
{
    std::vector<double> diag(static_cast<std::size_t>(g.num_nodes()));
    for (node_id v = 0; v < g.num_nodes(); ++v) {
        double alpha_sum = 0.0;
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h)
            alpha_sum += alpha[h];
        diag[v] = 1.0 - alpha_sum / speeds.speed(v);
    }
    return diag;
}

} // namespace

sparse_op make_diffusion_operator(const graph& g, const alpha_weights& alpha,
                                  const speed_profile& speeds)
{
    check_sizes(g, alpha, speeds);
    std::vector<double> weights(alpha.size());
    for (half_edge_id h = 0; h < g.num_half_edges(); ++h)
        weights[h] = alpha[h] / speeds.speed(g.head(h));
    return sparse_op(&g, diagonal_of_m(g, alpha, speeds), std::move(weights));
}

sparse_op make_diffusion_operator_transposed(const graph& g,
                                             const alpha_weights& alpha,
                                             const speed_profile& speeds)
{
    check_sizes(g, alpha, speeds);
    // (M^T)_ij = M_ji = alpha_ij / s_i: the weight of half-edge (i -> j)
    // depends on the tail's speed.
    std::vector<double> weights(alpha.size());
    for (node_id v = 0; v < g.num_nodes(); ++v) {
        const double sv = speeds.speed(v);
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h)
            weights[h] = alpha[h] / sv;
    }
    return sparse_op(&g, diagonal_of_m(g, alpha, speeds), std::move(weights));
}

sparse_op make_symmetrized_diffusion_operator(const graph& g,
                                              const alpha_weights& alpha,
                                              const speed_profile& speeds)
{
    check_sizes(g, alpha, speeds);
    std::vector<double> weights(alpha.size());
    for (node_id v = 0; v < g.num_nodes(); ++v) {
        const double sv = speeds.speed(v);
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h)
            weights[h] = alpha[h] / std::sqrt(sv * speeds.speed(g.head(h)));
    }
    return sparse_op(&g, diagonal_of_m(g, alpha, speeds), std::move(weights));
}

dense_matrix make_dense_diffusion_matrix(const graph& g,
                                         const alpha_weights& alpha,
                                         const speed_profile& speeds)
{
    check_sizes(g, alpha, speeds);
    const auto n = static_cast<std::size_t>(g.num_nodes());
    dense_matrix m(n, n);
    const auto diag = diagonal_of_m(g, alpha, speeds);
    for (node_id v = 0; v < g.num_nodes(); ++v) {
        m(v, v) = diag[v];
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h) {
            const node_id u = g.head(h);
            m(v, u) = alpha[h] / speeds.speed(u);
        }
    }
    return m;
}

std::vector<double> top_eigenvector_symmetrized(const speed_profile& speeds)
{
    std::vector<double> v(static_cast<std::size_t>(speeds.size()));
    double norm_sq = 0.0;
    for (node_id i = 0; i < speeds.size(); ++i) {
        v[i] = std::sqrt(speeds.speed(i));
        norm_sq += v[i] * v[i];
    }
    const double inv_norm = 1.0 / std::sqrt(norm_sq);
    for (double& entry : v) entry *= inv_norm;
    return v;
}

double compute_lambda(const graph& g, const alpha_weights& alpha,
                      const speed_profile& speeds, lanczos_result* solve)
{
    const sparse_op sym = make_symmetrized_diffusion_operator(g, alpha, speeds);
    const std::vector<std::vector<double>> deflate{
        top_eigenvector_symmetrized(speeds)};
    lanczos_result result;
    {
        obs::trace_span span("linalg", "lanczos");
        result = lanczos_extreme_eigenvalues(sym, deflate);
        span.set_args({{"steps", static_cast<double>(result.iterations)},
                       {"applies", static_cast<double>(result.applies)},
                       {"residual", result.residual},
                       {"converged", result.converged ? 1.0 : 0.0}});
    }
    const double lambda =
        std::max(std::abs(result.largest), std::abs(result.smallest));
    if (!result.converged) {
        std::ostringstream message;
        message << std::setprecision(17) << "lambda did not converge: "
                << lambda << " after " << result.iterations
                << " Lanczos steps, residual " << std::setprecision(3)
                << result.residual << " > " << kLanczosTolerance;
        throw std::runtime_error(message.str());
    }
    if (solve != nullptr) *solve = result;
    return lambda;
}

} // namespace dlb
