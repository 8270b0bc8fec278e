// Rounding schemes that turn the continuous scheduled flows Yhat into
// integral token movements (paper Definition 1 and Section III-B).
//
// Every scheme rounds only the positive direction of each edge: the node
// with outgoing scheduled flow "owns" it, rounds it with its own kernel and
// leaves 0 on every other slot. The negative side is then the owner's
// negation (round_flows mirrors it; the discrete engine gathers it in its
// apply sweep), so antisymmetry holds exactly.
//
//  * randomized    — the paper's framework R(C): floor every outgoing flow,
//                    gather the fractional parts r, take ceil(r) excess
//                    tokens, send each with probability r/ceil(r) to
//                    neighbor j with probability {Yhat_ij}/r. Unbiased
//                    (Observation 1: E[error] = 0).
//  * floor         — always round down [Sauerwald & Sun, FOCS'12 style].
//  * nearest       — deterministic round-half-away-from-zero.
//  * bernoulli_edge— per-edge independent randomized rounding:
//                    floor + Bernoulli(fractional part) [Friedrich et al.].
//
// All randomness comes from the stateless per-(seed, node, round) draws of
// util/rng.hpp, computed inline per token or edge, so outcomes are
// independent of thread count and fully reproducible. Golden vectors in
// tests/test_rng_golden.cpp pin the outputs of both randomized schemes.
//
// The per-node kernels below are the only definitions of each rule:
// round_flows and the discrete engine's round sweep both call them through
// round_owner_node.
#ifndef DLB_CORE_ROUNDING_HPP
#define DLB_CORE_ROUNDING_HPP

#include <cmath>
#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/executor.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace dlb {

enum class rounding_kind {
    randomized,     // paper Section III-B framework
    floor,          // always round down
    nearest,        // round half away from zero
    bernoulli_edge, // independent per-edge randomized rounding
};

std::string_view to_string(rounding_kind kind) noexcept;

/// Rounds scheduled flows to integer flows with the chosen scheme.
/// `scheduled` and `flows_out` are per-half-edge; `scheduled` must be
/// antisymmetric. `seed`/`round` select the deterministic random streams
/// (unused by the deterministic schemes). One node-parallel owner sweep
/// rounds every positive side, then one canonical-edge sweep mirrors it
/// onto the negative side.
void round_flows(const graph& g, rounding_kind kind,
                 std::span<const double> scheduled, std::uint64_t seed,
                 std::int64_t round, std::span<std::int64_t> flows_out,
                 executor& exec);

/// Adds `half_edges` to the `rounding.<kind>_half_edges` counter; every
/// caller of the per-node kernels counts its half-edges here once per
/// round.
void count_rounded_half_edges(rounding_kind kind, std::int64_t half_edges);

// --- per-node kernels ------------------------------------------------------
//
// Each kernel reads node `node`'s slots [begin, begin + degree) of
// `scheduled`, writes the rounded flow to every slot with scheduled > 0 and
// 0 to every other slot (±0.0 included). Raw restrict pointers (the spans'
// data) keep the compiler from re-reading across the flows stores.

/// Slots per pass-1 block of the generic-degree randomized kernel.
inline constexpr std::int32_t kSlotBlock = 4;

/// Floors one slot's outgoing flow (zeroing the rest) and returns its
/// fractional part. Trunc-by-cast is exact for the nonnegative magnitudes
/// < 2^63 the int64 cast already requires. The gate multiply keeps the
/// slot free of data-dependent branches: x * 1.0 == x and
/// (nonnegative) * 0.0 == +0.0 exactly, so non-outgoing slots contribute an
/// exact 0.0.
[[gnu::always_inline]] inline double floor_slot(const double* __restrict scheduled,
                                                std::int64_t* __restrict flows_out,
                                                half_edge_id h)
{
    const double yhat = scheduled[h];
    const double gate = yhat > 0.0 ? 1.0 : 0.0;
    const double magnitude = std::fabs(yhat);
    const double floored = static_cast<double>(static_cast<std::int64_t>(magnitude));
    flows_out[h] = static_cast<std::int64_t>(floored * gate);
    return (magnitude - floored) * gate;
}

/// The paper's randomized rounding for one node's outgoing flows. Token `i`
/// owns exactly draw index i of the node's (seed, node, round) substream,
/// so every token's bits are a pure function of (seed, node, round, i): no
/// generator state is seeded or carried, and the per-node RNG cost is one
/// mix64 plus one splitmix finalizer per token.
///
///  * Pass 1 floors every outgoing flow and caches the *cumulative*
///    fractional mass per slot (the running sum the excess accumulator
///    computes anyway).
///  * One draw decides both the send coin and the edge pick: with
///    u ~ U[0, 1), the scaled target u * ceil(r) is below r with
///    probability exactly r/ceil(r) (the paper's send probability), and
///    conditioned on that event it is uniform on [0, r) — the inverse-CDF
///    value.
///  * The walk picks the first slot whose cumulative mass reaches the
///    target by counting independent prefix[j] < target compares — no
///    loop-carried subtract chain. prefix jumps only at fractional slots
///    and a sent token has 0 < target < excess == prefix[degree-1], so the
///    chosen slot is always a fractional one.
///
/// StaticDegree != 0 instantiates the node kernel for that exact degree,
/// fully unrolling both short loops into straight-line code; 0 is the
/// generic dynamic-degree body. Its pass 1 runs in blocks of kSlotBlock
/// slots plus a scalar tail, with the additions in slot order; against
/// the plain loop that makes the whole kernel 1.3-1.8x faster at degrees
/// 5 to 16 (4-vCPU Xeon, GCC 12). So every instantiation chooses the same
/// slot with the same bits; the caller dispatches, and the degree only
/// changes trip counts. `prefix` holds at least `degree` entries.
template <std::int32_t StaticDegree>
[[gnu::always_inline]] inline void
round_node_randomized(const double* __restrict scheduled,
                      std::int64_t* __restrict flows_out, half_edge_id begin,
                      std::int32_t dynamic_degree, std::uint64_t seed,
                      std::uint64_t node, std::int64_t round,
                      double* __restrict prefix)
{
    const std::int32_t degree =
        StaticDegree != 0 ? StaticDegree : dynamic_degree;

    // Pass 1: floor and accumulate the cumulative fractional mass.
    double excess = 0.0;
    std::int32_t j = 0;
    for (; j + kSlotBlock <= degree; j += kSlotBlock) {
        for (std::int32_t k = 0; k < kSlotBlock; ++k) {
            excess += floor_slot(scheduled, flows_out, begin + j + k);
            prefix[j + k] = excess;
        }
    }
    for (; j < degree; ++j) {
        excess += floor_slot(scheduled, flows_out, begin + j);
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
        for (std::int32_t slot = 0; slot < degree; ++slot)
            chosen += prefix[slot] < target ? 1 : 0;
        flows_out[begin + chosen] += 1;
    }
}

/// Per-edge Bernoulli rounding: outgoing slot j of the node always owns
/// draw index j, so each edge coin is a pure function of
/// (seed, node, round, j) regardless of how many edges are outgoing.
[[gnu::always_inline]] inline void
round_node_bernoulli(const double* __restrict scheduled,
                     std::int64_t* __restrict flows_out, half_edge_id begin,
                     std::int32_t degree, std::uint64_t seed, std::uint64_t node,
                     std::int64_t round)
{
    const std::uint64_t base =
        stream_base(seed, node, static_cast<std::uint64_t>(round));
    for (std::int32_t j = 0; j < degree; ++j) {
        const double yhat = scheduled[begin + j];
        if (yhat <= 0.0) {
            flows_out[begin + j] = 0;
            continue;
        }
        const double floored = std::floor(yhat);
        const double fraction = yhat - floored;
        const double coin =
            to_unit_double(draw_at(base, static_cast<std::uint64_t>(j)));
        flows_out[begin + j] = static_cast<std::int64_t>(floored) +
                               (fraction > 0.0 && coin < fraction ? 1 : 0);
    }
}

/// floor and nearest on one node's owner slots, branch-free. Trunc-by-cast
/// is floor for the nonnegative magnitude; nearest rounds half away from
/// zero as std::llround, without its libm call: magnitude - floor is
/// exact, so this equals llround for every finite magnitude below 2^63
/// (the range the int64 cast already requires). The owner test is an
/// all-ones/zero mask: GCC compiles `yhat > 0.0 ? rounded : 0` to a
/// branch on the sign, which mispredicts on about half the slots.
template <rounding_kind Kind>
[[gnu::always_inline]] inline void
round_node_deterministic(const double* __restrict scheduled,
                         std::int64_t* __restrict flows_out, half_edge_id begin,
                         std::int32_t degree)
{
    static_assert(Kind == rounding_kind::floor || Kind == rounding_kind::nearest);
    for (std::int32_t j = 0; j < degree; ++j) {
        const double yhat = scheduled[begin + j];
        const double magnitude = std::fabs(yhat);
        auto rounded = static_cast<std::int64_t>(magnitude);
        if constexpr (Kind == rounding_kind::nearest)
            rounded += magnitude - static_cast<double>(rounded) >= 0.5;
        flows_out[begin + j] = rounded & -static_cast<std::int64_t>(yhat > 0.0);
    }
}

/// One node's owner rounding with the kernel of `Kind`. StaticDegree is 4
/// when the caller knows the degree (the 4-regular fast path of
/// for_each_node_slice) and 0 otherwise; randomized then still takes the
/// unrolled kernel for each degree-4 node.
template <rounding_kind Kind, std::int32_t StaticDegree>
[[gnu::always_inline]] inline void
round_owner_node(const double* __restrict scheduled,
                 std::int64_t* __restrict flows_out, half_edge_id begin,
                 std::int32_t dynamic_degree, std::uint64_t seed,
                 std::uint64_t node, std::int64_t round, double* prefix)
{
    const std::int32_t degree =
        StaticDegree != 0 ? StaticDegree : dynamic_degree;
    if constexpr (Kind == rounding_kind::randomized) {
        if (StaticDegree == 4 || degree == 4)
            round_node_randomized<4>(scheduled, flows_out, begin, 4, seed, node,
                                     round, prefix);
        else
            round_node_randomized<0>(scheduled, flows_out, begin, degree, seed,
                                     node, round, prefix);
    } else if constexpr (Kind == rounding_kind::bernoulli_edge) {
        round_node_bernoulli(scheduled, flows_out, begin, degree, seed, node,
                             round);
    } else {
        round_node_deterministic<Kind>(scheduled, flows_out, begin, degree);
    }
}

/// Calls visit(degree_tag, v, begin, degree, prefix) for every node v in
/// [chunk_begin, chunk_end), in order. On a 4-regular graph (the 2-D torus,
/// the paper's primary topology) degree_tag is
/// std::integral_constant<std::int32_t, 4> and begin == 4v (no CSR offset
/// loads); otherwise it is the 0 tag and the degree is read per node.
/// `prefix` is a scratch row of max_degree() doubles for the randomized
/// kernel. Identical results either way: the tag only changes trip counts
/// and addressing.
template <class Visit>
[[gnu::always_inline]] inline void for_each_node_slice(const graph& g,
                                                       node_id chunk_begin,
                                                       node_id chunk_end,
                                                       Visit&& visit)
{
    if (g.max_degree() == 4 &&
        g.num_half_edges() == 4 * static_cast<std::int64_t>(g.num_nodes())) {
        double prefix[4];
        for (node_id v = chunk_begin; v < chunk_end; ++v)
            visit(std::integral_constant<std::int32_t, 4>{}, v,
                  static_cast<half_edge_id>(v) * 4, std::int32_t{4}, prefix);
        return;
    }
    std::vector<double> prefix(static_cast<std::size_t>(g.max_degree()));
    for (node_id v = chunk_begin; v < chunk_end; ++v) {
        const half_edge_id begin = g.half_edge_begin(v);
        visit(std::integral_constant<std::int32_t, 0>{}, v, begin,
              static_cast<std::int32_t>(g.half_edge_end(v) - begin),
              prefix.data());
    }
}

/// Calls f(std::integral_constant<rounding_kind, kind>{}): the runtime kind
/// selects one compile-time instantiation of the caller's sweep.
template <class F>
decltype(auto) with_rounding_kind(rounding_kind kind, F&& f)
{
    switch (kind) {
    case rounding_kind::floor:
        return f(std::integral_constant<rounding_kind, rounding_kind::floor>{});
    case rounding_kind::nearest:
        return f(std::integral_constant<rounding_kind, rounding_kind::nearest>{});
    case rounding_kind::bernoulli_edge:
        return f(std::integral_constant<rounding_kind,
                                        rounding_kind::bernoulli_edge>{});
    case rounding_kind::randomized:
        break;
    }
    return f(std::integral_constant<rounding_kind, rounding_kind::randomized>{});
}

} // namespace dlb

#endif // DLB_CORE_ROUNDING_HPP
