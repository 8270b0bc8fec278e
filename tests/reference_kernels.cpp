#include "reference_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

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

void continuous_step_reference(const graph& g, std::span<const double> alpha,
                               const speed_profile& speeds,
                               continuous_engine_state& state, executor& exec)
{
    const scheme_params scheme{static_cast<scheme_kind>(state.scheme.kind),
                               state.scheme.beta, state.scheme.lambda};
    const std::int64_t rounds_in_scheme = state.scheme.rounds_in_scheme;
    std::vector<double> x_over_s(state.load.size());
    for (node_id v = 0; v < g.num_nodes(); ++v)
        x_over_s[v] = state.load[v] / speeds.speed(v);
    std::vector<double> flows(state.previous_flows.size());
    scheduled_flows_reference(g, alpha, scheme, rounds_in_scheme, x_over_s,
                              state.previous_flows, flows, exec);
    if (scheme.kind == scheme_kind::chebyshev && rounds_in_scheme > 0)
        state.scheme.omega = scheme_beta_for_round(scheme, rounds_in_scheme);

    double min_end = std::numeric_limits<double>::infinity();
    double min_transient = std::numeric_limits<double>::infinity();
    for (node_id v = 0; v < g.num_nodes(); ++v) {
        double net_out = 0.0;
        double positive_out = 0.0;
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h) {
            net_out += flows[h];
            if (flows[h] > 0.0) positive_out += flows[h];
        }
        min_transient = std::min(min_transient, state.load[v] - positive_out);
        state.load[v] -= net_out;
        min_end = std::min(min_end, state.load[v]);
    }
    if (state.load.empty()) min_end = min_transient = 0.0;
    negative_load_stats& negative = state.negative;
    negative.min_end_of_round_load = std::min(negative.min_end_of_round_load, min_end);
    negative.min_transient_load = std::min(negative.min_transient_load, min_transient);
    if (min_end < 0.0) ++negative.rounds_with_negative_end_load;
    if (min_transient < 0.0) ++negative.rounds_with_negative_transient;

    state.previous_flows = std::move(flows);
    ++state.round;
    ++state.scheme.rounds_in_scheme;
}

void cumulative_step_reference(const graph& g, std::span<const double> alpha,
                               const speed_profile& speeds,
                               cumulative_engine_state& state, executor& exec)
{
    continuous_step_reference(g, alpha, speeds, state.twin, exec);
    const std::vector<double>& continuous_flows = state.twin.previous_flows;
    std::vector<std::int64_t>& load = state.load;
    std::vector<double>& cumulative_continuous = state.cumulative_continuous;
    std::vector<std::int64_t>& cumulative_discrete = state.cumulative_discrete;

    exec.parallel_for(g.num_half_edges(), [&](std::int64_t begin, std::int64_t end) {
        for (half_edge_id h = begin; h < end; ++h)
            cumulative_continuous[h] += continuous_flows[h];
    });

    std::vector<double> transient(static_cast<std::size_t>(g.num_nodes()));
    exec.parallel_for(g.num_nodes(), [&](std::int64_t begin, std::int64_t end) {
        for (node_id v = static_cast<node_id>(begin); v < end; ++v) {
            std::int64_t net_out = 0;
            std::int64_t positive_out = 0;
            for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h) {
                const node_id u = g.head(h);
                std::int64_t flow;
                if (v < u) {
                    flow = std::llround(cumulative_continuous[h]) -
                           cumulative_discrete[h];
                } else {
                    const half_edge_id tw = g.twin(h);
                    flow = -(std::llround(cumulative_continuous[tw]) -
                             cumulative_discrete[tw]);
                }
                net_out += flow;
                if (flow > 0) positive_out += flow;
            }
            transient[v] = static_cast<double>(load[v] - positive_out);
            load[v] -= net_out;
        }
    });

    exec.parallel_for(g.num_half_edges(), [&](std::int64_t begin, std::int64_t end) {
        for (half_edge_id h = begin; h < end; ++h) {
            const half_edge_id tw = g.twin(h);
            const node_id tail = g.head(tw); // tail of h
            if (tail < g.head(h))
                cumulative_discrete[h] = std::llround(cumulative_continuous[h]);
        }
    });
    exec.parallel_for(g.num_half_edges(), [&](std::int64_t begin, std::int64_t end) {
        for (half_edge_id h = begin; h < end; ++h) {
            const half_edge_id tw = g.twin(h);
            const node_id tail = g.head(tw);
            if (tail > g.head(h))
                cumulative_discrete[h] = -cumulative_discrete[tw];
        }
    });

    double min_end = load.empty() ? 0.0 : static_cast<double>(load.front());
    double min_transient = transient.empty() ? 0.0 : transient.front();
    for (node_id v = 0; v < g.num_nodes(); ++v) {
        min_end = std::min(min_end, static_cast<double>(load[v]));
        min_transient = std::min(min_transient, transient[v]);
    }
    negative_load_stats& negative = state.negative;
    negative.min_end_of_round_load = std::min(negative.min_end_of_round_load, min_end);
    negative.min_transient_load = std::min(negative.min_transient_load, min_transient);
    if (min_end < 0.0) ++negative.rounds_with_negative_end_load;
    if (min_transient < 0.0) ++negative.rounds_with_negative_transient;

    ++state.round;
}

} // namespace dlb
