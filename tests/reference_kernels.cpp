#include "reference_kernels.hpp"

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace dlb {

namespace {

void round_node_randomized_reference(const graph& g, node_id v,
                                     std::span<const double> scheduled,
                                     std::uint64_t seed, std::int64_t round,
                                     std::span<std::int64_t> flows_out)
{
    const half_edge_id begin = g.half_edge_begin(v);
    const half_edge_id end = g.half_edge_end(v);

    // Pass 1: floor all outgoing flows, accumulate the excess mass r.
    double excess = 0.0;
    for (half_edge_id h = begin; h < end; ++h) {
        const double yhat = scheduled[h];
        if (yhat > 0.0) {
            const double floored = std::floor(yhat);
            flows_out[h] = static_cast<std::int64_t>(floored);
            excess += yhat - floored;
        }
    }
    if (excess <= 0.0) return;

    // Pass 2: ceil(r) candidate tokens, one draw u each. The token leaves
    // iff u * ceil(r) < r (probability r/ceil(r)); that target is then
    // uniform on [0, r) and picks the outgoing edge h with probability
    // {Yhat_h}/r by an inverse-CDF walk over the fractional parts.
    const double token_count_real = std::ceil(excess);
    const auto token_count = static_cast<std::int64_t>(token_count_real);
    for (std::int64_t token = 0; token < token_count; ++token) {
        const double target =
            to_unit_double(draw_u64(seed, static_cast<std::uint64_t>(v),
                                    static_cast<std::uint64_t>(round),
                                    static_cast<std::uint64_t>(token))) *
            token_count_real;
        if (target >= excess) continue;
        double cumulative = 0.0;
        half_edge_id chosen = -1;
        for (half_edge_id h = begin; h < end; ++h) {
            const double yhat = scheduled[h];
            if (yhat <= 0.0) continue;
            const double fraction = yhat - std::floor(yhat);
            if (fraction <= 0.0) continue;
            chosen = h;
            cumulative += fraction;
            if (cumulative >= target) break;
        }
        flows_out[chosen] += 1;
    }
}

void round_node_bernoulli_reference(const graph& g, node_id v,
                                    std::span<const double> scheduled,
                                    std::uint64_t seed, std::int64_t round,
                                    std::span<std::int64_t> flows_out)
{
    const half_edge_id begin = g.half_edge_begin(v);
    for (half_edge_id h = begin; h < g.half_edge_end(v); ++h) {
        const double yhat = scheduled[h];
        if (yhat <= 0.0) continue;
        const double floored = std::floor(yhat);
        const double coin = to_unit_double(
            draw_u64(seed, static_cast<std::uint64_t>(v),
                     static_cast<std::uint64_t>(round),
                     static_cast<std::uint64_t>(h - begin)));
        flows_out[h] = static_cast<std::int64_t>(floored) +
                       (coin < yhat - floored ? 1 : 0);
    }
}

} // namespace

void scheduled_flows_reference(const graph& g, std::span<const double> alpha,
                               scheme_params scheme,
                               std::int64_t rounds_in_scheme,
                               std::span<const double> load_over_speed,
                               std::span<const double> previous_flows,
                               std::span<double> flows_out, executor& exec)
{
    const bool second_order =
        scheme.kind != scheme_kind::fos && rounds_in_scheme > 0;
    if (alpha.size() != flows_out.size() ||
        (second_order && previous_flows.size() != alpha.size()))
        throw std::invalid_argument("scheduled_flows_reference: size mismatch");
    const double beta = scheme_beta_for_round(scheme, rounds_in_scheme);

    // Parallel over nodes; each chunk writes only its nodes' half-edges.
    exec.parallel_for(g.num_nodes(), [&](std::int64_t begin, std::int64_t end) {
        for (node_id v = static_cast<node_id>(begin); v < end; ++v) {
            const double xv = load_over_speed[v];
            for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v);
                 ++h) {
                const double gradient = xv - load_over_speed[g.head(h)];
                flows_out[h] = second_order ? (beta - 1.0) * previous_flows[h] +
                                                  beta * alpha[h] * gradient
                                            : alpha[h] * gradient;
            }
        }
    });
}

void round_flows_reference(const graph& g, rounding_kind kind,
                           std::span<const double> scheduled, std::uint64_t seed,
                           std::int64_t round, std::span<std::int64_t> flows_out,
                           executor& exec)
{
    if (scheduled.size() != static_cast<std::size_t>(g.num_half_edges()) ||
        flows_out.size() != scheduled.size())
        throw std::invalid_argument("round_flows_reference: size mismatch");

    // Owners write their outgoing half-edges only; twins are fixed after.
    exec.parallel_for(g.num_nodes(), [&](std::int64_t chunk_begin, std::int64_t chunk_end) {
        for (node_id v = static_cast<node_id>(chunk_begin); v < chunk_end; ++v) {
            const half_edge_id begin = g.half_edge_begin(v);
            const half_edge_id end = g.half_edge_end(v);
            for (half_edge_id h = begin; h < end; ++h) flows_out[h] = 0;

            switch (kind) {
            case rounding_kind::randomized:
                round_node_randomized_reference(g, v, scheduled, seed, round,
                                                flows_out);
                break;
            case rounding_kind::floor:
                for (half_edge_id h = begin; h < end; ++h)
                    if (scheduled[h] > 0.0)
                        flows_out[h] =
                            static_cast<std::int64_t>(std::floor(scheduled[h]));
                break;
            case rounding_kind::nearest:
                for (half_edge_id h = begin; h < end; ++h)
                    if (scheduled[h] > 0.0)
                        flows_out[h] = std::llround(scheduled[h]);
                break;
            case rounding_kind::bernoulli_edge:
                round_node_bernoulli_reference(g, v, scheduled, seed, round,
                                               flows_out);
                break;
            }
        }
    });

    // Mirror pass: the negative side of each edge is minus the owner's
    // rounded flow. Safe in parallel: each index writes only itself.
    exec.parallel_for(g.num_half_edges(), [&](std::int64_t begin, std::int64_t end) {
        for (half_edge_id h = begin; h < end; ++h)
            if (scheduled[h] < 0.0) flows_out[h] = -flows_out[g.twin(h)];
    });
}

} // namespace dlb
