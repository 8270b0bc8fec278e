#include "core/rounding.hpp"

#include <stdexcept>

#include "obs/obs.hpp"

namespace dlb {

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

// Half-edges processed per rounding kernel: with the engine's round counter
// and a trace this gives per-kernel edges/s.
void count_rounded_half_edges(rounding_kind kind, std::int64_t half_edges)
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
    case rounding_kind::randomized: randomized.add(half_edges); return;
    case rounding_kind::floor: floor_edges.add(half_edges); return;
    case rounding_kind::nearest: nearest.add(half_edges); return;
    case rounding_kind::bernoulli_edge: bernoulli.add(half_edges); return;
    }
}

namespace {

/// One chunk of the owner sweep, out of line so the hot loops are compiled
/// standalone per kind. The flows are given, so there is nothing to
/// schedule, and no policy clips them.
template <rounding_kind Kind>
[[gnu::noinline]] void owner_sweep(const graph& g, node_id chunk_begin,
                                   node_id chunk_end, const double* scheduled,
                                   std::uint64_t seed, std::int64_t round,
                                   std::int64_t* flows)
{
    round_owner_nodes<Kind>(
        g, chunk_begin, chunk_end, scheduled, flows, seed, round,
        [](auto, node_id, half_edge_id, std::int32_t) {},
        [](node_id, half_edge_id, std::int32_t) {});
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

    count_rounded_half_edges(kind, g.num_half_edges());

    // Owners write their outgoing half-edges, zeros elsewhere ...
    with_rounding_kind(kind, [&](auto kind_tag) {
        exec.parallel_for(
            g.num_nodes(), [&](std::int64_t chunk_begin, std::int64_t chunk_end) {
                owner_sweep<decltype(kind_tag)::value>(
                    g, static_cast<node_id>(chunk_begin),
                    static_cast<node_id>(chunk_end), scheduled.data(), seed,
                    round, flows_out.data());
            });
    });

    // ... and each node then mirrors the edges to larger nodes (the
    // half-edges h < twin(h) of its slice) onto their negative sides. At
    // most one side of an edge is nonzero, so flows[h] - flows[twin(h)] is
    // h's flow with no sign test. Only the smaller endpoint writes an
    // edge's two slots, so the chunks' writes are disjoint.
    std::int64_t* out = flows_out.data();
    exec.parallel_for(g.num_nodes(), [&](std::int64_t begin, std::int64_t end) {
        const half_edge_id slices_end = g.half_edge_end(static_cast<node_id>(end - 1));
        for (half_edge_id h = g.half_edge_begin(static_cast<node_id>(begin));
             h < slices_end; ++h) {
            const half_edge_id tw = g.twin(h);
            if (tw < h) continue;
            const std::int64_t flow = out[h] - out[tw];
            out[h] = flow;
            out[tw] = -flow;
        }
    });
}

} // namespace dlb
