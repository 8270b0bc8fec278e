// Rounding schemes that turn the continuous scheduled flows Yhat into
// integral token movements (paper Definition 1 and Section III-B).
//
// Every scheme rounds only the positive direction of each edge: the node
// with outgoing scheduled flow "owns" it, rounds it with its own kernel and
// leaves 0 on every other slot. The negative side is then the owner's
// negation (round_flows' node sweep mirrors it; the discrete engine's
// in-place apply reads it from the twin's slot), so antisymmetry holds
// exactly.
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
// independent of thread count, chunking and block layout, and fully
// reproducible. Golden vectors in tests/test_rng_golden.cpp pin the
// outputs of both randomized schemes.
//
// round_owner_nodes is the one owner pass: round_flows and the discrete
// engine's round sweep both call it on a chunk of nodes. Floor, nearest
// and bernoulli_edge round node by node with branch-free kernels.
// Randomized rounds blocks of nodes (round_randomized_block): it floors
// and lays out a whole block first, then draws every token of the block in
// one flat loop and walks the sent ones in another, so no loop branches on
// a node's token count or on a token's send coin. The engine's scheduled
// flows Yhat never leave the pass: each node writes its own into a buffer
// local to its node (floor, nearest, bernoulli_edge) or to its randomized
// block, and the kernel reads them back from L1. round_flows reads its
// caller's array instead.
#ifndef DLB_CORE_ROUNDING_HPP
#define DLB_CORE_ROUNDING_HPP

#include <algorithm>
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
/// rounds every positive side, then a second node sweep mirrors it onto
/// the negative side: node v writes both sides of each edge to a larger
/// node.
void round_flows(const graph& g, rounding_kind kind,
                 std::span<const double> scheduled, std::uint64_t seed,
                 std::int64_t round, std::span<std::int64_t> flows_out,
                 executor& exec);

/// Adds `half_edges` to the `rounding.<kind>_half_edges` counter; every
/// caller of round_owner_nodes counts its half-edges here once per round.
void count_rounded_half_edges(rounding_kind kind, std::int64_t half_edges);

// --- owner kernels ----------------------------------------------------------
//
// Each kernel reads one node's slots [0, degree) of `scheduled` (its Yhat)
// and writes the rounded flow to every slot of `flows_out` (the node's
// slice) with scheduled > 0 and 0 to every other slot (±0.0 included). Raw
// restrict pointers keep the compiler from re-reading across the flows
// stores.

/// Slots per pass-1 block of the generic-degree randomized floor.
inline constexpr std::int32_t kSlotBlock = 4;

/// Bounds of one randomized block: at most kBlockNodes nodes and at most
/// kBlockHalfEdges half-edges (exactly both at degree 4), except that a
/// node of larger degree gets a block of its own. A block's buffers then
/// stay in L1.
inline constexpr std::int32_t kBlockNodes = 128;
inline constexpr std::int32_t kBlockHalfEdges = 4 * kBlockNodes;

/// Floors one slot's outgoing flow (zeroing the rest) and returns its
/// fractional part. Trunc-by-cast is exact for the nonnegative magnitudes
/// < 2^63 the int64 cast already requires. The gate multiply keeps the
/// slot free of data-dependent branches: x * 1.0 == x and
/// (nonnegative) * 0.0 == +0.0 exactly, so non-outgoing slots contribute an
/// exact 0.0.
[[gnu::always_inline]] inline double floor_slot(const double* __restrict scheduled,
                                                std::int64_t* __restrict flows_out,
                                                std::int32_t j)
{
    const double yhat = scheduled[j];
    const double gate = yhat > 0.0 ? 1.0 : 0.0;
    const double magnitude = std::fabs(yhat);
    const double floored = static_cast<double>(static_cast<std::int64_t>(magnitude));
    flows_out[j] = static_cast<std::int64_t>(floored * gate);
    return (magnitude - floored) * gate;
}

/// Pass 1 of the randomized rule on one node: floors every slot and
/// writes the *cumulative* fractional mass after slot j to prefix[j].
/// Returns the excess r == prefix[degree - 1]. The generic degree runs in
/// blocks of kSlotBlock slots plus a scalar tail, with the additions in
/// slot order; against the plain loop that made the generic kernel
/// 1.3-1.8x faster at degrees 5 to 16 (4-vCPU Xeon, GCC 12). StaticDegree
/// 4 unrolls it into straight-line code; every instantiation adds in the
/// same order, so the bits are the same.
template <std::int32_t StaticDegree>
[[gnu::always_inline]] inline double
floor_owner_slots(const double* __restrict scheduled,
                  std::int64_t* __restrict flows_out,
                  std::int32_t dynamic_degree, double* __restrict prefix)
{
    const std::int32_t degree =
        StaticDegree != 0 ? StaticDegree : dynamic_degree;
    double excess = 0.0;
    std::int32_t j = 0;
    for (; j + kSlotBlock <= degree; j += kSlotBlock) {
        for (std::int32_t k = 0; k < kSlotBlock; ++k) {
            excess += floor_slot(scheduled, flows_out, j + k);
            prefix[j + k] = excess;
        }
    }
    for (; j < degree; ++j) {
        excess += floor_slot(scheduled, flows_out, j);
        prefix[j] = excess;
    }
    return excess;
}

/// The slot a sent token lands on: the first whose cumulative fractional
/// mass reaches `target`, found by counting independent prefix[j] < target
/// compares (no loop-carried chain, no exit branch). prefix jumps only at
/// fractional slots, and a sent token has target < r == prefix[degree - 1],
/// so the last slot's compare is always 0 and is left out: the count needs
/// no clamp. The one-in-2^53 exact-zero draw (target == +0.0) would count
/// 0 and land on slot 0 whether or not it is fractional, so it takes the
/// first strictly positive prefix instead; one exists because r > 0.
template <std::int32_t StaticDegree>
[[gnu::always_inline]] inline std::int32_t
pick_token_slot(const double* prefix, std::int32_t dynamic_degree, double target)
{
    const std::int32_t degree =
        StaticDegree != 0 ? StaticDegree : dynamic_degree;
    if (target <= 0.0) [[unlikely]] {
        std::int32_t first_fractional = 0;
        while (prefix[first_fractional] <= 0.0) ++first_fractional;
        return first_fractional;
    }
    std::int32_t chosen = 0;
    for (std::int32_t j = 0; j + 1 < degree; ++j)
        chosen += prefix[j] < target ? 1 : 0;
    return chosen;
}

/// One candidate token of a randomized block: its node's index in the
/// block and its draw index.
struct block_token {
    std::int32_t node;
    std::int32_t draw;
};

/// One sent token of a randomized block: its inverse-CDF target and its
/// node's index in the block.
struct sent_token {
    double target;
    std::int32_t node;
};

/// Scratch of one randomized block. The node arrays are indexed by a
/// node's index in the block; the four buffers each hold at least the
/// block's half-edge count, and the scheduled and prefix rows sit in
/// half-edge order.
struct randomized_block {
    double excess[kBlockNodes];
    double token_count[kBlockNodes]; // ceil(excess)
    std::uint64_t base[kBlockNodes]; // stream_base(seed, node, round)
    half_edge_id first[kBlockNodes];
    std::int32_t degree[kBlockNodes];
    std::int32_t with_excess[kBlockNodes]; // the nodes with r > 0, in order
    double* scheduled; // Yhat rows the schedule callback may fill
    double* prefix;
    block_token* tokens;
    sent_token* sent;
};

/// The paper's randomized rounding on nodes [block_begin, block_end), one
/// block. Token i of node v owns exactly draw index i of v's
/// (seed, node, round) substream, so every token's bits are a pure function
/// of (seed, node, round, i), whatever the block layout.
///
///  * Phase A, per node in order: the caller's schedule(degree_tag, v,
///    first, degree, row), which returns the node's Yhat (the engine
///    evaluates its flow rule into `row`, the node's row of
///    block.scheduled), pass 1 (floor_owner_slots) on it and the node's
///    excess r. A node with r > 0 is
///    appended to `with_excess` by advancing on the compare. Then, per
///    such node, ceil(r) and the stream base; it lays out `degree`
///    candidate tokens and keeps ceil(r) <= degree of them, so the write
///    needs no loop over the token count. A node without excess (most
///    of them, early on from a point load) costs no hash and no layout.
///  * Phase B1, per candidate token: one draw decides both the send coin
///    and the edge pick. With u ~ U[0, 1), the scaled target u * ceil(r)
///    is below r with probability exactly r/ceil(r) (the paper's send
///    probability), and conditioned on that event it is uniform on [0, r)
///    — the inverse-CDF value. The sent tokens are compacted by advancing
///    the write position by the compare.
///  * Phase B2, per sent token: pick_token_slot, then one token onto the
///    slot.
///  * Then the caller's finish(v, first, degree) per node in order (the
///    engine's prevent clip).
///
/// StaticDegree 4 is the 4-regular block (first == 4v); 0 reads each
/// node's slice from the graph. The degree only changes trip counts and
/// addressing, so both choose the same slots with the same bits.
template <std::int32_t StaticDegree, class Schedule, class Finish>
[[gnu::always_inline]] inline void
round_randomized_block(const graph& g, node_id block_begin, node_id block_end,
                       std::int64_t* flows, std::uint64_t seed,
                       std::int64_t round, randomized_block& block,
                       Schedule& schedule, Finish& finish)
{
    const auto nodes = static_cast<std::int32_t>(block_end - block_begin);
    const half_edge_id block_first = g.half_edge_begin(block_begin);
    const auto first_of = [&](std::int32_t k) {
        return StaticDegree == 4 ? block_first + 4 * k : block.first[k];
    };
    const auto degree_of = [&](std::int32_t k) {
        return StaticDegree != 0 ? StaticDegree : block.degree[k];
    };

    std::int32_t with_excess = 0;
    for (std::int32_t k = 0; k < nodes; ++k) {
        const node_id v = block_begin + k;
        const half_edge_id first =
            StaticDegree == 4 ? block_first + 4 * k : g.half_edge_begin(v);
        const std::int32_t degree =
            StaticDegree != 0 ? StaticDegree
                              : static_cast<std::int32_t>(g.half_edge_end(v) - first);
        const double* scheduled =
            schedule(std::integral_constant<std::int32_t, StaticDegree>{}, v,
                     first, degree, block.scheduled + (first - block_first));
        const double excess = floor_owner_slots<StaticDegree>(
            scheduled, flows + first, degree, block.prefix + (first - block_first));
        block.excess[k] = excess;
        block.first[k] = first;
        block.degree[k] = degree;
        block.with_excess[with_excess] = k;
        with_excess += excess > 0.0 ? 1 : 0;
    }

    std::int32_t laid = 0;
    for (std::int32_t i = 0; i < with_excess; ++i) {
        const std::int32_t k = block.with_excess[i];
        const double excess = block.excess[k];
        // ceil(r) by trunc and compare, exact for 0 < r <= degree < 2^31:
        // std::ceil is a libm call or a branch on the magnitude without
        // SSE4.1.
        auto whole = static_cast<std::int32_t>(excess);
        whole += static_cast<double>(whole) < excess ? 1 : 0;
        block.token_count[k] = static_cast<double>(whole);
        block.base[k] = stream_base(seed, static_cast<std::uint64_t>(block_begin + k),
                                    static_cast<std::uint64_t>(round));
        const std::int32_t degree = degree_of(k);
        for (std::int32_t j = 0; j < degree; ++j) block.tokens[laid + j] = {k, j};
        laid += whole;
    }

    std::int32_t sent = 0;
    for (std::int32_t t = 0; t < laid; ++t) {
        const block_token token = block.tokens[t];
        const double target =
            to_unit_double(draw_at(block.base[token.node],
                                   static_cast<std::uint64_t>(token.draw))) *
            block.token_count[token.node];
        block.sent[sent] = {target, token.node};
        sent += target < block.excess[token.node] ? 1 : 0;
    }

    for (std::int32_t s = 0; s < sent; ++s) {
        const sent_token token = block.sent[s];
        const half_edge_id first = first_of(token.node);
        flows[first + pick_token_slot<StaticDegree>(
                          block.prefix + (first - block_first),
                          degree_of(token.node), token.target)] += 1;
    }

    for (std::int32_t k = 0; k < nodes; ++k)
        finish(block_begin + k, first_of(k), degree_of(k));
}

/// Per-edge Bernoulli rounding: slot j of the node always owns draw index
/// j, so each edge coin is a pure function of (seed, node, round, j)
/// regardless of how many edges are outgoing. Every slot draws its coin
/// and the owner test is the floor/nearest mask below, not a branch on the
/// sign. An integral flow has fraction 0, which no coin is below.
[[gnu::always_inline]] inline void
round_node_bernoulli(const double* __restrict scheduled,
                     std::int64_t* __restrict flows_out, std::int32_t degree,
                     std::uint64_t seed, std::uint64_t node, std::int64_t round)
{
    const std::uint64_t base =
        stream_base(seed, node, static_cast<std::uint64_t>(round));
    for (std::int32_t j = 0; j < degree; ++j) {
        const double yhat = scheduled[j];
        const double magnitude = std::fabs(yhat);
        const auto floored = static_cast<std::int64_t>(magnitude);
        const double fraction = magnitude - static_cast<double>(floored);
        const double coin =
            to_unit_double(draw_at(base, static_cast<std::uint64_t>(j)));
        flows_out[j] =
            (floored + (coin < fraction)) & -static_cast<std::int64_t>(yhat > 0.0);
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
                         std::int64_t* __restrict flows_out, std::int32_t degree)
{
    static_assert(Kind == rounding_kind::floor || Kind == rounding_kind::nearest);
    for (std::int32_t j = 0; j < degree; ++j) {
        const double yhat = scheduled[j];
        const double magnitude = std::fabs(yhat);
        auto rounded = static_cast<std::int64_t>(magnitude);
        if constexpr (Kind == rounding_kind::nearest)
            rounded += magnitude - static_cast<double>(rounded) >= 0.5;
        flows_out[j] = rounded & -static_cast<std::int64_t>(yhat > 0.0);
    }
}

/// The owner pass of rounding `Kind` on nodes [chunk_begin, chunk_end).
/// For each node in order it calls schedule(degree_tag, v, first, degree,
/// row) before the node's Yhat is read, and finish(v, first, degree) once
/// its owner slots of `flows` are final; the tags are those of
/// for_each_node_slice. schedule returns a pointer to the node's Yhat
/// slots: `row`, a buffer of `degree` slots it may fill (local to the node,
/// or to its randomized block), or any other array holding them. A node's
/// row sits on the stack unless max_degree() > kBlockHalfEdges. Randomized
/// rounds blocks of nodes: on the stack on a 4-regular graph, otherwise in
/// buffers of max(kBlockHalfEdges, max_degree()) per call.
template <rounding_kind Kind, class Schedule, class Finish>
[[gnu::always_inline]] inline void
round_owner_nodes(const graph& g, node_id chunk_begin, node_id chunk_end,
                  std::int64_t* flows, std::uint64_t seed, std::int64_t round,
                  Schedule&& schedule, Finish&& finish)
{
    if constexpr (Kind != rounding_kind::randomized) {
        double stack_row[kBlockHalfEdges]{};
        std::vector<double> heap_row;
        double* row = stack_row;
        if (g.max_degree() > kBlockHalfEdges) {
            heap_row.resize(static_cast<std::size_t>(g.max_degree()));
            row = heap_row.data();
        }
        for_each_node_slice(
            g, chunk_begin, chunk_end,
            [&](auto degree_tag, node_id v, half_edge_id first,
                std::int32_t degree) {
                const double* scheduled =
                    schedule(degree_tag, v, first, degree, row);
                if constexpr (Kind == rounding_kind::bernoulli_edge)
                    round_node_bernoulli(scheduled, flows + first, degree, seed,
                                         static_cast<std::uint64_t>(v), round);
                else
                    round_node_deterministic<Kind>(scheduled, flows + first,
                                                   degree);
                finish(v, first, degree);
            });
    } else if (is_four_regular(g)) {
        randomized_block block{};
        double scheduled[kBlockHalfEdges]{};
        double prefix[kBlockHalfEdges]{};
        block_token tokens[kBlockHalfEdges]{};
        sent_token sent[kBlockHalfEdges]{};
        block.scheduled = scheduled;
        block.prefix = prefix;
        block.tokens = tokens;
        block.sent = sent;
        for (node_id begin = chunk_begin; begin < chunk_end; begin += kBlockNodes)
            round_randomized_block<4>(g, begin,
                                      std::min(begin + kBlockNodes, chunk_end),
                                      flows, seed, round, block, schedule,
                                      finish);
    } else {
        const auto capacity = static_cast<std::size_t>(
            std::max(kBlockHalfEdges, g.max_degree()));
        std::vector<double> scheduled(capacity);
        std::vector<double> prefix(capacity);
        std::vector<block_token> tokens(capacity);
        std::vector<sent_token> sent(capacity);
        randomized_block block{};
        block.scheduled = scheduled.data();
        block.prefix = prefix.data();
        block.tokens = tokens.data();
        block.sent = sent.data();
        for (node_id begin = chunk_begin; begin < chunk_end;) {
            node_id end = begin + 1;
            while (end < chunk_end && end - begin < kBlockNodes &&
                   g.half_edge_end(end) - g.half_edge_begin(begin) <=
                       kBlockHalfEdges)
                ++end;
            round_randomized_block<0>(g, begin, end, flows, seed, round, block,
                                      schedule, finish);
            begin = end;
        }
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
