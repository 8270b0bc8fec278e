// Refined local divergence Upsilon_C(G) (paper Section III-B):
//
//   Upsilon_C(G) = max_k ( sum_{s>=0} sum_i max_{j in N(i)} C_{k,i->j}(s)^2 )^(1/2)
//
// Theorem 3 bounds the randomized-rounding deviation by
// O(Upsilon_C(G) * sqrt(d log n)); Theorem 4 gives
// Upsilon_FOS = O(sqrt(d log s_max / (1-lambda))) and Theorem 9 gives
// Upsilon_SOS = O(sqrt(d) log s_max / (1-lambda)^(3/4)). This module
// evaluates the truncated series numerically so those bounds can be
// checked empirically (tests, ablation benches).
#ifndef DLB_CORE_DIVERGENCE_HPP
#define DLB_CORE_DIVERGENCE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/alpha.hpp"
#include "core/scheme.hpp"
#include "core/speeds.hpp"
#include "graph/graph.hpp"

namespace dlb {

struct divergence_options {
    /// Hard cap on series terms.
    std::int64_t max_terms = 20000;
    /// Stop once `consecutive_small` successive terms fall below
    /// `tail_tolerance` relative to the running sum.
    double tail_tolerance = 1e-12;
    int consecutive_small = 25;
};

struct divergence_result {
    double upsilon = 0.0;       // sqrt of the series sum
    std::int64_t terms = 0;     // terms actually evaluated
    bool truncated = false;     // hit max_terms before the tail test
};

/// Upsilon evaluated for a fixed anchor node k. For SOS the series uses
/// C(s) = Q(s-1) rows per Lemma 6 (C(0) = 0); for FOS C(s) = M^s rows.
divergence_result refined_local_divergence(const graph& g,
                                           const alpha_weights& alpha,
                                           const speed_profile& speeds,
                                           scheme_params scheme, node_id k,
                                           const divergence_options& options = {});

/// max over a sample of anchor nodes (the paper's definition maximizes over
/// all k; on vertex-transitive graphs any single k suffices).
divergence_result refined_local_divergence_max(
    const graph& g, const alpha_weights& alpha, const speed_profile& speeds,
    scheme_params scheme, std::span<const node_id> anchors,
    const divergence_options& options = {});

} // namespace dlb

#endif // DLB_CORE_DIVERGENCE_HPP
