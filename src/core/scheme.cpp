#include "core/scheme.hpp"

#include <stdexcept>

namespace dlb {

executor& default_executor()
{
    static serial_executor instance;
    return instance;
}

void validate_scheme(scheme_params scheme)
{
    if (scheme.kind == scheme_kind::sos &&
        !(scheme.beta > 0.0 && scheme.beta < 2.0))
        throw std::invalid_argument("scheme: SOS requires beta in (0, 2)");
    if (scheme.kind == scheme_kind::chebyshev &&
        !(scheme.lambda >= 0.0 && scheme.lambda < 1.0))
        throw std::invalid_argument("scheme: Chebyshev requires lambda in [0, 1)");
}

double scheme_beta_for_round(scheme_params scheme, std::int64_t rounds_in_scheme)
{
    // O(1) for FOS/SOS; only Chebyshev needs the recurrence replayed
    // (per-round callers like contribution_rows rely on the fast paths).
    if (scheme.kind != scheme_kind::chebyshev)
        return scheme.kind == scheme_kind::fos || rounds_in_scheme == 0
                   ? 1.0
                   : scheme.beta;
    scheme_beta_state state(scheme);
    double beta = 1.0;
    for (std::int64_t t = 0; t <= rounds_in_scheme; ++t) beta = state.next();
    return beta;
}

namespace {

// Each undirected edge is evaluated once from its canonical half-edge
// (tail < head, found by scanning each node's slice for larger-id
// neighbors — cheaper than streaming the canonical index list through
// the cache) and mirrored by negation. For a nonzero flow the mirror is
// bitwise what the two-sided evaluation would produce: alpha is
// symmetric, the twin's previous flow and gradient are exact negations,
// and IEEE operations commute with jointly negating their inputs. Zero
// flows are the one asymmetric corner (x - x is +0.0 in both
// directions, and a sum cancelling to zero is +0.0 regardless of sign),
// so that rare case re-evaluates the twin's own expression instead.
void canonical_flows(const graph& g, std::span<const double> alpha,
                     bool second_order, double beta,
                     std::span<const double> load_over_speed,
                     std::span<const double> previous_flows,
                     std::span<double> flows_out, executor& exec)
{
    exec.parallel_for(g.num_nodes(), [&](std::int64_t begin, std::int64_t end) {
        for (node_id u = static_cast<node_id>(begin); u < end; ++u) {
            const double xu = load_over_speed[u];
            const half_edge_id he_begin = g.half_edge_begin(u);
            const half_edge_id he_end = g.half_edge_end(u);
            if (second_order) {
                for (half_edge_id h = he_begin; h < he_end; ++h) {
                    const node_id v = g.head(h);
                    if (v < u) continue; // the twin writes this edge
                    const half_edge_id tw = g.twin(h);
                    const double xv = load_over_speed[v];
                    const double f = second_order_flow(beta, previous_flows[h],
                                                       alpha[h], xu - xv);
                    flows_out[h] = f;
                    flows_out[tw] =
                        f != 0.0 ? -f
                                 : second_order_flow(beta, previous_flows[tw],
                                                     alpha[tw], xv - xu);
                }
            } else {
                for (half_edge_id h = he_begin; h < he_end; ++h) {
                    const node_id v = g.head(h);
                    if (v < u) continue;
                    const half_edge_id tw = g.twin(h);
                    const double xv = load_over_speed[v];
                    const double f = first_order_flow(alpha[h], xu - xv);
                    flows_out[h] = f;
                    flows_out[tw] =
                        f != 0.0 ? -f : first_order_flow(alpha[tw], xv - xu);
                }
            }
        }
    });
}

} // namespace

void scheduled_flows(const graph& g, std::span<const double> alpha,
                     scheme_params scheme, std::int64_t rounds_in_scheme,
                     double beta, std::span<const double> load_over_speed,
                     std::span<const double> previous_flows,
                     std::span<double> flows_out, executor& exec)
{
    if (alpha.size() != static_cast<std::size_t>(g.num_half_edges()) ||
        flows_out.size() != alpha.size())
        throw std::invalid_argument("scheduled_flows: size mismatch");
    if (load_over_speed.size() != static_cast<std::size_t>(g.num_nodes()))
        throw std::invalid_argument("scheduled_flows: load size mismatch");

    const bool second_order =
        scheme.kind != scheme_kind::fos && rounds_in_scheme > 0;
    if (second_order && previous_flows.size() != alpha.size())
        throw std::invalid_argument("scheduled_flows: previous flows missing");
    canonical_flows(g, alpha, second_order, beta, load_over_speed,
                    previous_flows, flows_out, exec);
}

void scheduled_flows(const graph& g, std::span<const double> alpha,
                     scheme_params scheme, std::int64_t rounds_in_scheme,
                     std::span<const double> load_over_speed,
                     std::span<const double> previous_flows,
                     std::span<double> flows_out, executor& exec)
{
    scheduled_flows(g, alpha, scheme, rounds_in_scheme,
                    scheme_beta_for_round(scheme, rounds_in_scheme),
                    load_over_speed, previous_flows, flows_out, exec);
}

} // namespace dlb
