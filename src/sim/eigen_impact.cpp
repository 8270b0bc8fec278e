#include "sim/eigen_impact.hpp"

#include <cmath>
#include <stdexcept>

#include "core/diffusion_matrix.hpp"
#include "core/speeds.hpp"

namespace dlb {

eigen_impact_analyzer eigen_impact_analyzer::for_torus(node_id width, node_id height)
{
    eigen_impact_analyzer analyzer;
    analyzer.torus_ = std::make_shared<torus_fourier_basis>(width, height);
    analyzer.dimension_ = analyzer.torus_->dimension();
    return analyzer;
}

eigen_impact_analyzer eigen_impact_analyzer::for_graph(
    const graph& g, const alpha_weights& alpha)
{
    eigen_impact_analyzer analyzer;
    const auto m = make_dense_diffusion_matrix(
        g, alpha, speed_profile::uniform(g.num_nodes()));
    analyzer.dense_ =
        std::make_shared<eigen_decomposition>(jacobi_eigen(m));
    analyzer.dimension_ = static_cast<std::size_t>(g.num_nodes());
    return analyzer;
}

std::vector<double> eigen_impact_analyzer::coefficients(
    std::span<const double> load) const
{
    if (load.size() != dimension_)
        throw std::invalid_argument("eigen_impact_analyzer: load size mismatch");
    if (torus_) return torus_->project(load);
    // Orthonormal V: solving the paper's V a = x is the projection a = V^T x.
    return dense_->vectors.multiply_transposed(load);
}

double eigen_impact_analyzer::eigenvalue(std::size_t rank) const
{
    if (rank >= dimension_)
        throw std::invalid_argument("eigen_impact_analyzer: bad rank");
    if (torus_) return torus_->modes()[rank].eigenvalue;
    return dense_->values[rank];
}

eigen_impact_analyzer::sample eigen_impact_analyzer::analyze(
    std::span<const double> load) const
{
    const auto coeffs = coefficients(load);
    sample result;
    for (std::size_t k = 1; k < coeffs.size(); ++k) {
        if (std::abs(coeffs[k]) > result.max_abs_coefficient) {
            result.max_abs_coefficient = std::abs(coeffs[k]);
            result.leading_rank = k;
            result.leading_value = coeffs[k];
        }
    }
    if (coeffs.size() > 3) result.a4 = coeffs[3];
    return result;
}

eigen_impact_analyzer::sample eigen_impact_analyzer::analyze(
    std::span<const std::int64_t> load) const
{
    std::vector<double> as_double(load.begin(), load.end());
    return analyze(std::span<const double>(as_double));
}

} // namespace dlb
