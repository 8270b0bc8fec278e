// Edge contributions C_{k,i->j}(t) (paper Definitions 3 and 5, Lemma 6).
//
// For FOS, C_{k,i->j}(t) = (M^t)_{k,i} - (M^t)_{k,j}; for SOS,
// C_{k,i->j}(t) = Q(t-1)_{k,i} - Q(t-1)_{k,j} with C(0) = 0 (Lemma 6).
// Only row k of the matrix power/Q-sequence is needed, so we iterate
// sparse row-vector recursions in O(t * |E|):
//   FOS:  r_t = r_{t-1} M            (i.e. M^T applied to r)
//   SOS:  r_t = beta * r_{t-1} M + (1 - beta) * r_{t-2}
// (valid because Q(t) is a polynomial in M and therefore commutes with it).
#ifndef DLB_CORE_CONTRIBUTION_HPP
#define DLB_CORE_CONTRIBUTION_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/alpha.hpp"
#include "core/scheme.hpp"
#include "core/speeds.hpp"
#include "graph/graph.hpp"
#include "linalg/sparse_op.hpp"

namespace dlb {

/// Streams row k of M^t (FOS) or of Q(t) (SOS) for t = 0, 1, 2, ...
class contribution_rows {
public:
    /// For SOS, scheme.beta is the relaxation parameter.
    contribution_rows(const graph& g, const alpha_weights& alpha,
                      const speed_profile& speeds, scheme_params scheme,
                      node_id k);

    std::int64_t t() const noexcept { return t_; }

    /// Row k of M^t (FOS) or Q(t) (SOS).
    std::span<const double> row() const noexcept { return current_; }

    void advance();

    /// The contribution of edge (i -> j) on node k after `t()+1` rounds for
    /// SOS (C(t+1) = Q(t) difference) or after `t()` rounds for FOS.
    double contribution(node_id i, node_id j) const
    {
        return current_[i] - current_[j];
    }

    /// sum_i max_{j in N(i)} contribution(i, j)^2 for the current row —
    /// one term of the refined local divergence.
    double divergence_term() const;

private:
    const graph& graph_;
    scheme_params scheme_;
    sparse_op m_transposed_;
    std::vector<double> current_;
    std::vector<double> previous_;
    std::vector<double> scratch_;
    std::int64_t t_ = 0;
};

} // namespace dlb

#endif // DLB_CORE_CONTRIBUTION_HPP
