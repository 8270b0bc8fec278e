#include "core/divergence.hpp"

#include <algorithm>
#include <cmath>

#include "core/contribution.hpp"

namespace dlb {

divergence_result refined_local_divergence(const graph& g,
                                           const alpha_weights& alpha,
                                           const speed_profile& speeds,
                                           scheme_params scheme, node_id k,
                                           const divergence_options& options)
{
    contribution_rows rows(g, alpha, speeds, scheme, k);

    divergence_result result;
    double sum = 0.0;
    int small_streak = 0;

    // s = 0 term. FOS: C(0) rows are the identity row (term comes out as
    // sum_i max_j (delta_ki - delta_kj)^2 >= 1). SOS: C(0) = 0 by Lemma 6.
    if (scheme.kind == scheme_kind::fos) sum += rows.divergence_term();
    ++result.terms;

    for (std::int64_t s = 1; s < options.max_terms; ++s) {
        rows.advance();
        // For SOS the s-th series term uses Q(s-1), which after `advance`
        // s-1 times is exactly rows.row() at t = s-1; we advance first and
        // use Q(t) for the term of s = t+1 — same series, shifted index.
        const double term = rows.divergence_term();
        sum += term;
        ++result.terms;

        if (term <= options.tail_tolerance * std::max(sum, 1e-300)) {
            if (++small_streak >= options.consecutive_small) {
                result.upsilon = std::sqrt(sum);
                return result;
            }
        } else {
            small_streak = 0;
        }
    }
    result.truncated = true;
    result.upsilon = std::sqrt(sum);
    return result;
}

divergence_result refined_local_divergence_max(
    const graph& g, const alpha_weights& alpha, const speed_profile& speeds,
    scheme_params scheme, std::span<const node_id> anchors,
    const divergence_options& options)
{
    divergence_result best;
    for (const node_id k : anchors) {
        const auto r = refined_local_divergence(g, alpha, speeds, scheme, k, options);
        if (r.upsilon > best.upsilon) best = r;
    }
    return best;
}

} // namespace dlb
