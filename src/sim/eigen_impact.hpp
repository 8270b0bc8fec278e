// Eigenvector-impact analysis (paper Section VI, metric 4).
//
// Decomposes the load vector in the eigenbasis of the diffusion matrix:
// x(t) = sum_i a_i(t) * v_i. The coefficient with the largest magnitude
// among the non-constant modes governs the convergence rate; the paper
// observes on the 100x100 torus that a_4 leads between rounds ~100 and
// ~700 and that no mode leads afterwards (Figures 7 and 15).
//
// Backends: the analytic torus Fourier basis (exact, fast) or a Jacobi
// eigendecomposition of the dense diffusion matrix (general homogeneous
// graphs, analysis-sized n).
#ifndef DLB_SIM_EIGEN_IMPACT_HPP
#define DLB_SIM_EIGEN_IMPACT_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/alpha.hpp"
#include "graph/graph.hpp"
#include "linalg/jacobi.hpp"
#include "linalg/torus_basis.hpp"

namespace dlb {

class eigen_impact_analyzer {
public:
    struct sample {
        double max_abs_coefficient = 0.0; // over non-constant modes
        std::size_t leading_rank = 0;     // eigenvalue-descending rank (>= 1)
        double leading_value = 0.0;
        double a4 = 0.0;                  // paper's a_4 (rank 3, 0-based)
    };

    /// Exact Fourier backend for the width x height torus.
    static eigen_impact_analyzer for_torus(node_id width, node_id height);

    /// Jacobi backend for an arbitrary homogeneous graph with the given
    /// alpha weights; n is limited by the dense eigensolver.
    static eigen_impact_analyzer for_graph(const graph& g,
                                           const alpha_weights& alpha);

    std::size_t dimension() const noexcept { return dimension_; }

    sample analyze(std::span<const double> load) const;
    sample analyze(std::span<const std::int64_t> load) const;

    /// Full coefficient vector in eigenvalue-descending rank order.
    std::vector<double> coefficients(std::span<const double> load) const;

    /// Eigenvalue of the rank-k mode.
    double eigenvalue(std::size_t rank) const;

private:
    eigen_impact_analyzer() = default;

    std::size_t dimension_ = 0;
    std::shared_ptr<const torus_fourier_basis> torus_;
    std::shared_ptr<const eigen_decomposition> dense_;
};

} // namespace dlb

#endif // DLB_SIM_EIGEN_IMPACT_HPP
