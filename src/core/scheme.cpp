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

template <bool SecondOrder>
void flows_sweep(const graph& g, const double* alpha, const double* previous,
                 double beta, const double* x, double* out, node_id begin,
                 node_id end)
{
    for_each_node_slice(g, begin, end,
                        [&](auto, node_id u, half_edge_id first,
                            std::int32_t degree) {
                            node_flows<SecondOrder>(g, x, alpha, previous, beta,
                                                    u, first, degree, out);
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
    exec.parallel_for(g.num_nodes(), [&](std::int64_t begin, std::int64_t end) {
        const auto b = static_cast<node_id>(begin);
        const auto e = static_cast<node_id>(end);
        if (second_order)
            flows_sweep<true>(g, alpha.data(), previous_flows.data(), beta,
                              load_over_speed.data(), flows_out.data(), b, e);
        else
            flows_sweep<false>(g, alpha.data(), previous_flows.data(), beta,
                               load_over_speed.data(), flows_out.data(), b, e);
    });
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
