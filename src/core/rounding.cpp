#include "core/rounding.hpp"

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

/// Slots per pass-1 block of the generic-degree kernel.
constexpr std::int32_t kSlotBlock = 4;

/// Pass 1 for one slot: floor the outgoing flow (zeroing the rest) and
/// return its fractional part. Trunc-by-cast is exact for the nonnegative
/// magnitudes < 2^63 the int64 cast already requires. The gate multiply
/// keeps the slot free of data-dependent branches: x * 1.0 == x and
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
/// changes trip counts. Raw restrict pointers (the spans' data) keep the
/// compiler from re-reading across the flows stores. `prefix` holds at
/// least `degree` entries.
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
void round_node_bernoulli(const graph& g, node_id v,
                          std::span<const double> scheduled, std::uint64_t seed,
                          std::int64_t round, std::span<std::int64_t> flows_out)
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

} // namespace

void round_flows(const graph& g, rounding_kind kind,
                 std::span<const double> scheduled, std::uint64_t seed,
                 std::int64_t round, std::span<std::int64_t> flows_out,
                 executor& exec)
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
        round_flows_randomized_owner(g, scheduled, seed, round, flows_out, exec);
    } else {
        exec.parallel_for(
            g.num_nodes(), [&](std::int64_t chunk_begin, std::int64_t chunk_end) {
                for (node_id v = static_cast<node_id>(chunk_begin); v < chunk_end;
                     ++v)
                    round_node_bernoulli(g, v, scheduled, seed, round, flows_out);
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

/// One chunk of the owner sweep, out of line so the hot loops are compiled
/// standalone. Degree-4 fast path: the 2D torus — the paper's primary
/// topology — and every other 4-regular family get the fully unrolled
/// kernel with a stack prefix and begin == 4v (no CSR offset loads);
/// irregular graphs dispatch per node so e.g. grid interiors still
/// qualify. Identical results either way: the degree only changes trip
/// counts and addressing.
[[gnu::noinline]] void owner_sweep(const graph& g, node_id chunk_begin,
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
            round_node_randomized<4>(sched, flows,
                                     static_cast<half_edge_id>(v) * 4, 4, seed,
                                     static_cast<std::uint64_t>(v), round,
                                     prefix);
        }
        return;
    }
    std::vector<double> prefix(static_cast<std::size_t>(g.max_degree()));
    for (node_id v = chunk_begin; v < chunk_end; ++v) {
        const half_edge_id begin = g.half_edge_begin(v);
        const auto degree =
            static_cast<std::int32_t>(g.half_edge_end(v) - begin);
        if (degree == 4)
            round_node_randomized<4>(sched, flows, begin, 4, seed,
                                     static_cast<std::uint64_t>(v), round,
                                     prefix.data());
        else
            round_node_randomized<0>(sched, flows, begin, degree, seed,
                                     static_cast<std::uint64_t>(v), round,
                                     prefix.data());
    }
}

} // namespace

void round_flows_randomized_owner(const graph& g,
                                  std::span<const double> scheduled,
                                  std::uint64_t seed, std::int64_t round,
                                  std::span<std::int64_t> flows_out,
                                  executor& exec)
{
    if (scheduled.size() != static_cast<std::size_t>(g.num_half_edges()) ||
        flows_out.size() != scheduled.size())
        throw std::invalid_argument("round_flows_randomized_owner: size mismatch");

    kernel_counter(rounding_kind::randomized).add(g.num_half_edges());

    exec.parallel_for(g.num_nodes(),
                      [&](std::int64_t chunk_begin, std::int64_t chunk_end) {
                          owner_sweep(g, static_cast<node_id>(chunk_begin),
                                      static_cast<node_id>(chunk_end),
                                      scheduled, seed, round, flows_out);
                      });
}

} // namespace dlb
