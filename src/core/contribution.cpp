#include "core/contribution.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/diffusion_matrix.hpp"

namespace dlb {

contribution_rows::contribution_rows(const graph& g,
                                     const alpha_weights& alpha,
                                     const speed_profile& speeds,
                                     scheme_params scheme, node_id k)
    : graph_(g),
      scheme_(scheme),
      m_transposed_(make_diffusion_operator_transposed(g, alpha, speeds))
{
    validate_scheme(scheme);
    if (scheme.kind == scheme_kind::chebyshev)
        throw std::invalid_argument(
            "contribution_rows: Chebyshev propagation depends on the absolute "
            "round (time-varying omega_t); a single Q sequence cannot "
            "represent it — use FOS or SOS");
    if (k < 0 || k >= g.num_nodes())
        throw std::invalid_argument("contribution_rows: bad node k");
    current_.assign(static_cast<std::size_t>(g.num_nodes()), 0.0);
    current_[k] = 1.0; // row k of M^0 = Q(0) = I
    previous_.assign(current_.size(), 0.0);
    scratch_.assign(current_.size(), 0.0);
}

void contribution_rows::advance()
{
    // r M  ==  M^T r. The generalized recursion
    //   Q(t) = beta_t * M * Q(t-1) + (1 - beta_t) * Q(t-2)
    // covers all three schemes through scheme_beta_for_round: FOS has
    // beta_t = 1 (plain matrix powers), SOS a constant beta, Chebyshev the
    // omega_t sequence. Commutation with M holds because every Q(t) is a
    // polynomial in M.
    m_transposed_.apply(current_, scratch_);
    const double beta = scheme_beta_for_round(scheme_, t_ + 1);
    if (t_ == 0) {
        // Q(1) = beta * M (FOS: beta = 1, giving plain powers).
        for (std::size_t i = 0; i < current_.size(); ++i) scratch_[i] *= beta;
        previous_ = current_; // Q(0) row
        std::swap(current_, scratch_);
    } else {
        for (std::size_t i = 0; i < current_.size(); ++i)
            scratch_[i] = beta * scratch_[i] + (1.0 - beta) * previous_[i];
        previous_ = current_;
        std::swap(current_, scratch_);
    }
    ++t_;
}

double contribution_rows::divergence_term() const
{
    double total = 0.0;
    for (node_id i = 0; i < graph_.num_nodes(); ++i) {
        double best = 0.0;
        for (half_edge_id h = graph_.half_edge_begin(i);
             h < graph_.half_edge_end(i); ++h) {
            const double c = current_[i] - current_[graph_.head(h)];
            best = std::max(best, c * c);
        }
        total += best;
    }
    return total;
}

} // namespace dlb
