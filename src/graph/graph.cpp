#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

namespace dlb {

namespace {

void validate_endpoint(node_id v, node_id num_nodes)
{
    if (v < 0 || v >= num_nodes)
        throw std::invalid_argument("graph: endpoint " + std::to_string(v) +
                                    " outside [0, " + std::to_string(num_nodes) + ")");
}

} // namespace

void graph::build(node_id num_nodes, std::span<const edge> edges, bool dedup)
{
    if (num_nodes < 0) throw std::invalid_argument("graph: negative node count");
    num_nodes_ = num_nodes;

    // Pass 1, in edge order: endpoint and self-loop errors, degree counts.
    // The counts are 64-bit, so no input can wrap one before the check.
    std::vector<half_edge_id> cursor(static_cast<std::size_t>(num_nodes), 0);
    for (const auto& [u, v] : edges) {
        validate_endpoint(u, num_nodes);
        validate_endpoint(v, num_nodes);
        if (u == v) {
            if (dedup) continue;
            throw std::invalid_argument("graph: self-loop at node " + std::to_string(u));
        }
        ++cursor[u];
        ++cursor[v];
    }

    // Offsets: prefix sums in a 64-bit running total, checked against the
    // 32-bit index limit before any index is stored. cursor[v] becomes
    // v's first slot.
    const half_edge_id half_edges =
        std::accumulate(cursor.begin(), cursor.end(), half_edge_id{0});
    if (half_edges > std::numeric_limits<std::uint32_t>::max())
        throw std::length_error("graph: " + std::to_string(half_edges) +
                                " half-edges exceed the 32-bit index limit " +
                                std::to_string(std::numeric_limits<std::uint32_t>::max()));
    offsets_.resize(static_cast<std::size_t>(num_nodes) + 1);
    half_edge_id total = 0;
    for (node_id v = 0; v < num_nodes; ++v) {
        offsets_[v] = static_cast<std::uint32_t>(total);
        total += std::exchange(cursor[v], total);
    }
    offsets_[num_nodes] = static_cast<std::uint32_t>(total);

    // Scatter each edge into both endpoints' slices.
    adjacency_.resize(static_cast<std::size_t>(half_edges));
    for (const auto& [u, v] : edges) {
        if (u == v) continue;
        adjacency_[cursor[u]++] = v;
        adjacency_[cursor[v]++] = u;
    }

    // Sort each slice; a duplicate edge shows as equal neighbours in both
    // of its endpoints' slices. The dedup path compacts the slices left.
    half_edge_id kept = 0;
    for (node_id v = 0; v < num_nodes; ++v) {
        const auto first = adjacency_.begin() + offsets_[v];
        auto last = adjacency_.begin() + offsets_[v + 1];
        std::sort(first, last);
        if (dedup) {
            last = std::unique(first, last);
            const auto target = adjacency_.begin() + kept;
            if (target != first) std::copy(first, last, target);
            offsets_[v] = static_cast<std::uint32_t>(kept);
            kept += last - first;
        } else if (std::adjacent_find(first, last) != last) {
            throw std::invalid_argument("graph: duplicate edge in input");
        }
    }
    if (dedup) {
        offsets_[num_nodes] = static_cast<std::uint32_t>(kept);
        adjacency_.resize(static_cast<std::size_t>(kept));
    }

    // Twins in one ascending pass. For u < v, v's slice lists its
    // neighbours below v first and in ascending order, which is the order
    // this pass meets their edges to v in; cursor[v] walks that prefix.
    std::copy(offsets_.begin(), offsets_.end() - 1, cursor.begin());
    twins_.resize(adjacency_.size());
    for (node_id u = 0; u < num_nodes; ++u) {
        for (half_edge_id h = offsets_[u]; h < offsets_[u + 1]; ++h) {
            const node_id v = adjacency_[h];
            if (v < u) continue;
            const half_edge_id reverse = cursor[v]++;
            twins_[h] = static_cast<std::uint32_t>(reverse);
            twins_[reverse] = static_cast<std::uint32_t>(h);
        }
    }

    max_degree_ = 0;
    min_degree_ = num_nodes > 0 ? std::numeric_limits<std::int32_t>::max() : 0;
    for (node_id v = 0; v < num_nodes; ++v) {
        const auto d = degree(v);
        max_degree_ = std::max(max_degree_, d);
        min_degree_ = std::min(min_degree_, d);
    }
}

graph graph::from_edge_list(node_id num_nodes, std::span<const edge> edges)
{
    graph g;
    g.build(num_nodes, edges, false);
    return g;
}

graph graph::from_edge_list_dedup(node_id num_nodes, std::span<const edge> edges)
{
    graph g;
    g.build(num_nodes, edges, true);
    return g;
}

bool graph::has_edge(node_id u, node_id v) const noexcept
{
    if (u < 0 || u >= num_nodes_ || v < 0 || v >= num_nodes_) return false;
    const auto nbrs = neighbors(u);
    return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<edge> graph::edge_list() const
{
    std::vector<edge> edges;
    edges.reserve(static_cast<std::size_t>(num_edges()));
    for (node_id u = 0; u < num_nodes_; ++u)
        for (const node_id v : neighbors(u))
            if (u < v) edges.emplace_back(u, v);
    return edges;
}

} // namespace dlb
