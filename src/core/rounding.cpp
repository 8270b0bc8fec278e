#include "core/rounding.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace dlb {

namespace {

// Half-edges processed per rounding kernel: with the engine's round counter
// and a trace this gives per-kernel edges/s. randomized is counted inside
// round_flows_randomized_owner (the entry point both round_flows and the
// discrete engine use), the rest in round_flows.
obs::counter& kernel_counter(rounding_kind kind)
{
    static obs::counter& randomized =
        obs::registry_counter("rounding.randomized_half_edges");
    static obs::counter& floor_edges =
        obs::registry_counter("rounding.floor_half_edges");
    static obs::counter& nearest =
        obs::registry_counter("rounding.nearest_half_edges");
    static obs::counter& bernoulli =
        obs::registry_counter("rounding.bernoulli_edge_half_edges");
    switch (kind) {
    case rounding_kind::randomized: return randomized;
    case rounding_kind::floor: return floor_edges;
    case rounding_kind::nearest: return nearest;
    case rounding_kind::bernoulli_edge: return bernoulli;
    }
    return randomized;
}

} // namespace

std::string_view to_string(rounding_kind kind) noexcept
{
    switch (kind) {
    case rounding_kind::randomized: return "randomized";
    case rounding_kind::floor: return "floor";
    case rounding_kind::nearest: return "nearest";
    case rounding_kind::bernoulli_edge: return "bernoulli-edge";
    }
    return "unknown";
}

namespace {

/// Cold path of the inverse-CDF walk: an exact-zero target starts
/// non-positive before any subtraction and, like the early-exit walk,
/// lands on the first fractional edge (one exists whenever the caller's
/// excess is positive). Out of line so the hot walk stays compact.
[[gnu::noinline]] void credit_first_fractional(std::span<const double> fractions,
                                               std::span<std::int64_t> flows_out,
                                               half_edge_id begin)
{
    std::int32_t first_fractional = 0;
    while (fractions[first_fractional] <= 0.0) ++first_fractional;
    flows_out[begin + first_fractional] += 1;
}

/// Pass 1 of the owner sweep, shared bit-for-bit by both stream formats:
/// floor all outgoing flows (zeroing the rest), accumulate the excess mass
/// r, and cache the fractional parts slice-aligned. The gate multiply
/// keeps the loop free of data-dependent branches: x * 1.0 == x and
/// (nonnegative) * 0.0 == +0.0 exactly, so outgoing edges contribute
/// bit-identically to the original guarded sum and the rest contribute an
/// exact 0.0.
struct owner_floor_pass {
    double excess = 0.0;
    std::int32_t last_fractional = 0;
};

inline owner_floor_pass floor_outgoing(std::span<const double> scheduled,
                                       std::span<std::int64_t> flows_out,
                                       half_edge_id begin, std::int32_t degree,
                                       std::span<double> fractions)
{
    owner_floor_pass pass;
    for (std::int32_t j = 0; j < degree; ++j) {
        const double yhat = scheduled[begin + j];
        const double gate = yhat > 0.0 ? 1.0 : 0.0;
        const double magnitude = std::fabs(yhat);
        const double floored = std::floor(magnitude);
        flows_out[begin + j] = static_cast<std::int64_t>(floored * gate);
        const double fraction = (magnitude - floored) * gate;
        pass.excess += fraction;
        fractions[j] = fraction;
        pass.last_fractional = fraction > 0.0 ? j : pass.last_fractional;
    }
    return pass;
}

/// The shared inverse-CDF walk of one token: branch-free — the remainders
/// decrease only at fractional slots (subtracting the cached 0.0 elsewhere
/// is exact), so the slot where the remainder first turns non-positive —
/// the edge the early-exit walk stopped on — is the count of positive
/// remainders. `target` may stay positive through the whole slice due to
/// floating-point slack, landing on the last fractional edge, preserving
/// totals.
inline void credit_token(std::span<const double> fractions,
                         std::span<std::int64_t> flows_out, half_edge_id begin,
                         std::int32_t degree, std::int32_t last_fractional,
                         double target)
{
    if (target <= 0.0) [[unlikely]] {
        credit_first_fractional(fractions, flows_out, begin);
        return;
    }
    std::int32_t chosen = 0;
    for (std::int32_t j = 0; j < degree; ++j) {
        target -= fractions[j];
        chosen += target > 0.0 ? 1 : 0;
    }
    flows_out[begin + (chosen < degree ? chosen : last_fractional)] += 1;
}

/// The paper's randomized rounding for one node's outgoing flows, v1
/// stream format (per-(node, round) xoshiro stream).
///
/// The scratch span `fractions` (at least degree(v) long) lets the
/// inverse-CDF walk run over a cached slice-aligned array instead of
/// rescanning the adjacency slice per token. Draw sequence and results are
/// bit-identical to the pre-canonical early-exit loop.
void round_node_randomized(const graph& g, node_id v,
                           std::span<const double> scheduled,
                           std::uint64_t seed, std::int64_t round,
                           std::span<std::int64_t> flows_out,
                           std::span<double> fractions)
{
    const half_edge_id begin = g.half_edge_begin(v);
    const auto degree = static_cast<std::int32_t>(g.half_edge_end(v) - begin);
    const auto pass = floor_outgoing(scheduled, flows_out, begin, degree,
                                     fractions);
    const double excess = pass.excess;
    if (excess <= 0.0) return;

    // Pass 2: distribute ceil(r) candidate tokens. Each leaves the node
    // with probability r/ceil(r); a leaving token picks the outgoing edge
    // h with probability {Yhat_h}/r.
    const double token_count_real = std::ceil(excess);
    const auto token_count = static_cast<std::int64_t>(token_count_real);
    const double send_probability = excess / token_count_real;

    auto rng = stream_for(seed, static_cast<std::uint64_t>(v),
                          static_cast<std::uint64_t>(round));
    for (std::int64_t token = 0; token < token_count; ++token) {
        if (!rng.next_bernoulli(send_probability)) continue;
        credit_token(fractions, flows_out, begin, degree, pass.last_fractional,
                     rng.next_double() * excess);
    }
}

/// The same rounding under the v2 format: stateless counter-based draws.
/// Token `i` owns exactly draw index i, so every token's bits are a pure
/// function of (seed, node, round, i) — no generator state is seeded or
/// carried, and the per-node RNG cost is one mix64 plus one splitmix
/// finalizer per token.
///
/// The v2 pipeline restructures both passes around the new format (the
/// frozen v1 path above is deliberately untouched):
///
///  * Pass 1 floors with a trunc-by-cast — exact for the nonnegative
///    magnitudes < 2^63 the int64 cast already requires — and caches the
///    *cumulative* fractional mass per slot (the running sum the excess
///    accumulator computes anyway) instead of the raw fractions.
///  * One draw decides both the send coin and the edge pick: with
///    u ~ U[0, 1), the scaled target u * ceil(r) is below r with
///    probability exactly r/ceil(r) (the paper's send probability), and
///    conditioned on that event it is uniform on [0, r) — the inverse-CDF
///    value. The joint distribution equals v1's two independent draws with
///    half the hashing.
///  * The walk picks the first slot whose cumulative mass reaches the
///    target by counting independent prefix[j] < target compares — no
///    loop-carried subtract chain. prefix jumps only at fractional slots
///    and a sent token has 0 < target < excess == prefix[degree-1], so the
///    chosen slot is always a fractional one.
///
/// StaticDegree != 0 instantiates the node kernel for that exact degree,
/// fully unrolling both short loops into straight-line code (worth ~1.3x
/// alone on the 2.1 GHz Xeon this was tuned on); 0 is the generic
/// dynamic-degree fallback. The caller dispatches, so regular and
/// irregular graphs both get the right body — with identical results, the
/// degree only changes trip counts. Raw restrict pointers (the spans'
/// data) keep the compiler from re-reading across the flows stores.
template <std::int32_t StaticDegree>
[[gnu::always_inline]] inline void
round_node_randomized_v2(const double* __restrict scheduled,
                              std::int64_t* __restrict flows_out,
                              half_edge_id begin, std::int32_t dynamic_degree,
                              std::uint64_t seed, std::uint64_t node,
                              std::int64_t round, double* __restrict prefix)
{
    const std::int32_t degree =
        StaticDegree != 0 ? StaticDegree : dynamic_degree;

    // Pass 1: floor and accumulate the cumulative fractional mass.
    double excess = 0.0;
    for (std::int32_t j = 0; j < degree; ++j) {
        const double yhat = scheduled[begin + j];
        const double gate = yhat > 0.0 ? 1.0 : 0.0;
        const double magnitude = std::fabs(yhat);
        const auto floored_int = static_cast<std::int64_t>(magnitude);
        const double floored = static_cast<double>(floored_int);
        flows_out[begin + j] = static_cast<std::int64_t>(floored * gate);
        excess += (magnitude - floored) * gate;
        prefix[j] = excess;
    }
    if (excess <= 0.0) return;

    const double token_count_real = std::ceil(excess);
    const auto token_count = static_cast<std::int64_t>(token_count_real);

    const std::uint64_t base =
        stream_base(seed, node, static_cast<std::uint64_t>(round));
    for (std::int64_t token = 0; token < token_count; ++token) {
        const double target =
            to_unit_double(draw_at(base, static_cast<std::uint64_t>(token))) *
            token_count_real;
        if (target >= excess) continue;
        if (target <= 0.0) [[unlikely]] {
            // The one-in-2^53 exact-zero draw: land on the first fractional
            // slot (the first strictly positive prefix; one exists because
            // excess > 0).
            std::int32_t first_fractional = 0;
            while (prefix[first_fractional] <= 0.0) ++first_fractional;
            flows_out[begin + first_fractional] += 1;
            continue;
        }
        std::int32_t chosen = 0;
        for (std::int32_t j = 0; j < degree; ++j)
            chosen += prefix[j] < target ? 1 : 0;
        flows_out[begin + chosen] += 1;
    }
}

void round_node_bernoulli(const graph& g, node_id v,
                          std::span<const double> scheduled, std::uint64_t seed,
                          std::int64_t round, std::span<std::int64_t> flows_out)
{
    auto rng = stream_for(seed, static_cast<std::uint64_t>(v),
                          static_cast<std::uint64_t>(round));
    for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h) {
        const double yhat = scheduled[h];
        if (yhat <= 0.0) {
            flows_out[h] = 0;
            continue;
        }
        const double floored = std::floor(yhat);
        const double fraction = yhat - floored;
        flows_out[h] = static_cast<std::int64_t>(floored) +
                       (rng.next_bernoulli(fraction) ? 1 : 0);
    }
}

/// Per-edge Bernoulli rounding under the v2 format: outgoing slot j of the
/// node always owns draw index j, so each edge coin is a pure function of
/// (seed, node, round, j) regardless of how many edges are outgoing.
void round_node_bernoulli_v2(const graph& g, node_id v,
                             std::span<const double> scheduled,
                             std::uint64_t seed, std::int64_t round,
                             std::span<std::int64_t> flows_out)
{
    const half_edge_id begin = g.half_edge_begin(v);
    const std::uint64_t base = stream_base(seed, static_cast<std::uint64_t>(v),
                                           static_cast<std::uint64_t>(round));
    for (half_edge_id h = begin; h < g.half_edge_end(v); ++h) {
        const double yhat = scheduled[h];
        if (yhat <= 0.0) {
            flows_out[h] = 0;
            continue;
        }
        const double floored = std::floor(yhat);
        const double fraction = yhat - floored;
        const double coin =
            to_unit_double(draw_at(base, static_cast<std::uint64_t>(h - begin)));
        flows_out[h] = static_cast<std::int64_t>(floored) +
                       (fraction > 0.0 && coin < fraction ? 1 : 0);
    }
}

/// Pre-canonical helpers, kept verbatim for round_flows_reference.
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

    // Pass 2: distribute ceil(r) candidate tokens. Each leaves the node
    // with probability r/ceil(r); a leaving token picks the outgoing edge
    // h with probability {Yhat_h}/r.
    const double token_count_real = std::ceil(excess);
    const auto token_count = static_cast<std::int64_t>(token_count_real);
    const double send_probability = excess / token_count_real;

    auto rng = stream_for(seed, static_cast<std::uint64_t>(v),
                          static_cast<std::uint64_t>(round));
    for (std::int64_t token = 0; token < token_count; ++token) {
        if (!rng.next_bernoulli(send_probability)) continue;
        // Inverse-CDF walk over the fractional parts.
        double target = rng.next_double() * excess;
        half_edge_id chosen = -1;
        for (half_edge_id h = begin; h < end; ++h) {
            const double yhat = scheduled[h];
            if (yhat <= 0.0) continue;
            const double fraction = yhat - std::floor(yhat);
            if (fraction <= 0.0) continue;
            chosen = h;
            target -= fraction;
            if (target <= 0.0) break;
        }
        // target may stay positive due to floating-point slack; the walk
        // then lands on the last fractional edge, preserving totals.
        if (chosen >= 0) flows_out[chosen] += 1;
    }
}

} // namespace

void round_flows(const graph& g, rounding_kind kind,
                 std::span<const double> scheduled, std::uint64_t seed,
                 std::int64_t round, std::span<std::int64_t> flows_out,
                 executor& exec, rng_version version)
{
    if (scheduled.size() != static_cast<std::size_t>(g.num_half_edges()) ||
        flows_out.size() != scheduled.size())
        throw std::invalid_argument("round_flows: size mismatch");

    if (kind != rounding_kind::randomized)
        kernel_counter(kind).add(g.num_half_edges());

    // Deterministic roundings need no owner/mirror split: the negative side
    // is the exact negation of rounding the positive side (each half-edge
    // rounds |yhat| and restores the sign, and the scheduled flows are
    // antisymmetric), so one fused branch-free sweep writes every
    // half-edge exactly once.
    if (kind == rounding_kind::floor || kind == rounding_kind::nearest) {
        exec.parallel_for(
            g.num_half_edges(), [&](std::int64_t begin, std::int64_t end) {
                if (kind == rounding_kind::floor) {
                    for (half_edge_id h = begin; h < end; ++h) {
                        const double yhat = scheduled[h];
                        const auto magnitude = static_cast<std::int64_t>(
                            std::floor(std::fabs(yhat)));
                        flows_out[h] = yhat > 0.0 ? magnitude : -magnitude;
                    }
                } else {
                    // Half away from zero, as std::llround, without its
                    // libm call: trunc-by-cast is floor for the magnitude,
                    // and magnitude - floor is exact, so this equals
                    // llround for every finite magnitude below 2^63 (the
                    // range the int64 cast already requires).
                    for (half_edge_id h = begin; h < end; ++h) {
                        const double yhat = scheduled[h];
                        const double magnitude = std::fabs(yhat);
                        const auto floored = static_cast<std::int64_t>(magnitude);
                        const std::int64_t rounded =
                            floored +
                            (magnitude - static_cast<double>(floored) >= 0.5);
                        flows_out[h] = yhat > 0.0 ? rounded : -rounded;
                    }
                }
            });
        return;
    }

    // Randomized schemes: the owner (positive-scheduled) side's RNG decides,
    // so owners write their outgoing half-edges first ...
    if (kind == rounding_kind::randomized) {
        round_flows_randomized_owner(g, scheduled, seed, round, flows_out, exec,
                                     version);
    } else {
        exec.parallel_for(
            g.num_nodes(), [&](std::int64_t chunk_begin, std::int64_t chunk_end) {
                for (node_id v = static_cast<node_id>(chunk_begin); v < chunk_end;
                     ++v) {
                    if (version == rng_version::v2)
                        round_node_bernoulli_v2(g, v, scheduled, seed, round,
                                                flows_out);
                    else
                        round_node_bernoulli(g, v, scheduled, seed, round,
                                             flows_out);
                }
            });
    }

    // ... and each canonical edge then mirrors its owner's result onto the
    // negative side. Each half-edge belongs to exactly one edge, so the
    // edge-parallel writes are disjoint. Both sides are rewritten
    // unconditionally (select, no data-dependent branch): the owner side
    // keeps its value, the other side gets the negation, and zero-scheduled
    // edges rewrite the 0 both owner passes produced.
    const auto canonical = g.canonical_half_edges();
    exec.parallel_for(g.num_edges(), [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t e = begin; e < end; ++e) {
            const half_edge_id h = canonical[e];
            const half_edge_id tw = g.twin(h);
            const std::int64_t forward = flows_out[h];
            const std::int64_t backward = flows_out[tw];
            const bool owner_is_canonical = scheduled[h] > 0.0;
            flows_out[h] = owner_is_canonical ? forward : -backward;
            flows_out[tw] = owner_is_canonical ? -forward : backward;
        }
    });
}

namespace {

/// One chunk of the v2 owner sweep, out of line so the hot loops are
/// compiled standalone (sharing the v1 lambda costs measurable codegen
/// quality). Degree-4 fast path: the 2D torus — the paper's primary
/// topology — and every other 4-regular family get the fully unrolled
/// kernel with a stack prefix and begin == 4v (no CSR offset loads);
/// irregular graphs dispatch per node so e.g. grid interiors still
/// qualify. Identical results either way: the degree only changes trip
/// counts and addressing.
[[gnu::noinline]] void owner_sweep_v2(const graph& g, node_id chunk_begin,
                                      node_id chunk_end,
                                      std::span<const double> scheduled,
                                      std::uint64_t seed, std::int64_t round,
                                      std::span<std::int64_t> flows_out)
{
    const double* __restrict sched = scheduled.data();
    std::int64_t* __restrict flows = flows_out.data();
    const bool regular4 =
        g.max_degree() == 4 &&
        g.num_half_edges() == 4 * static_cast<std::int64_t>(g.num_nodes());
    if (regular4) {
        for (node_id v = chunk_begin; v < chunk_end; ++v) {
            double prefix[4];
            round_node_randomized_v2<4>(
                sched, flows, static_cast<half_edge_id>(v) * 4, 4, seed,
                static_cast<std::uint64_t>(v), round, prefix);
        }
        return;
    }
    std::vector<double> prefix(static_cast<std::size_t>(g.max_degree()));
    for (node_id v = chunk_begin; v < chunk_end; ++v) {
        const half_edge_id begin = g.half_edge_begin(v);
        const auto degree =
            static_cast<std::int32_t>(g.half_edge_end(v) - begin);
        if (degree == 4)
            round_node_randomized_v2<4>(sched, flows, begin, 4, seed,
                                        static_cast<std::uint64_t>(v), round,
                                        prefix.data());
        else
            round_node_randomized_v2<0>(sched, flows, begin, degree, seed,
                                        static_cast<std::uint64_t>(v), round,
                                        prefix.data());
    }
}

} // namespace

void round_flows_randomized_owner(const graph& g,
                                  std::span<const double> scheduled,
                                  std::uint64_t seed, std::int64_t round,
                                  std::span<std::int64_t> flows_out,
                                  executor& exec, rng_version version)
{
    if (scheduled.size() != static_cast<std::size_t>(g.num_half_edges()) ||
        flows_out.size() != scheduled.size())
        throw std::invalid_argument("round_flows_randomized_owner: size mismatch");

    kernel_counter(rounding_kind::randomized).add(g.num_half_edges());

    if (version == rng_version::v2) {
        exec.parallel_for(g.num_nodes(),
                          [&](std::int64_t chunk_begin, std::int64_t chunk_end) {
                              owner_sweep_v2(g, static_cast<node_id>(chunk_begin),
                                             static_cast<node_id>(chunk_end),
                                             scheduled, seed, round, flows_out);
                          });
        return;
    }

    exec.parallel_for(g.num_nodes(), [&](std::int64_t chunk_begin,
                                         std::int64_t chunk_end) {
        std::vector<double> fractions(static_cast<std::size_t>(g.max_degree()));
        for (node_id v = static_cast<node_id>(chunk_begin); v < chunk_end; ++v)
            round_node_randomized(g, v, scheduled, seed, round, flows_out,
                                  fractions);
    });
}

void round_flows_reference(const graph& g, rounding_kind kind,
                           std::span<const double> scheduled, std::uint64_t seed,
                           std::int64_t round, std::span<std::int64_t> flows_out,
                           executor& exec)
{
    if (scheduled.size() != static_cast<std::size_t>(g.num_half_edges()) ||
        flows_out.size() != scheduled.size())
        throw std::invalid_argument("round_flows: size mismatch");

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
                round_node_bernoulli(g, v, scheduled, seed, round, flows_out);
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
