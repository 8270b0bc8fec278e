#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace dlb {

namespace {

void validate_endpoint(node_id v, node_id num_nodes)
{
    if (v < 0 || v >= num_nodes)
        throw std::invalid_argument("graph: endpoint " + std::to_string(v) +
                                    " outside [0, " + std::to_string(num_nodes) + ")");
}

} // namespace

void graph::build_from_sorted_pairs(node_id num_nodes, std::vector<edge>&& directed)
{
    // `directed` holds both (u,v) and (v,u) for every undirected edge and is
    // sorted lexicographically, which yields per-node ascending adjacency.
    num_nodes_ = num_nodes;
    offsets_.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
    adjacency_.resize(directed.size());
    twins_.assign(directed.size(), -1);

    for (const auto& [u, v] : directed) offsets_[u + 1]++;
    for (node_id v = 0; v < num_nodes; ++v) offsets_[v + 1] += offsets_[v];

    for (std::size_t i = 0; i < directed.size(); ++i)
        adjacency_[i] = directed[i].second;

    // Twin resolution: for half-edge h = (u -> v), find (v -> u) by binary
    // search in v's slice. Total O(m log d).
    for (node_id u = 0; u < num_nodes; ++u) {
        for (half_edge_id h = offsets_[u]; h < offsets_[u + 1]; ++h) {
            const node_id v = adjacency_[h];
            const auto begin = adjacency_.begin() + offsets_[v];
            const auto end = adjacency_.begin() + offsets_[v + 1];
            const auto it = std::lower_bound(begin, end, u);
            twins_[h] = offsets_[v] + (it - begin);
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
    if (num_nodes < 0) throw std::invalid_argument("graph: negative node count");

    std::vector<edge> directed;
    directed.reserve(edges.size() * 2);
    for (const auto& [u, v] : edges) {
        validate_endpoint(u, num_nodes);
        validate_endpoint(v, num_nodes);
        if (u == v)
            throw std::invalid_argument("graph: self-loop at node " + std::to_string(u));
        directed.emplace_back(u, v);
        directed.emplace_back(v, u);
    }
    std::sort(directed.begin(), directed.end());
    if (std::adjacent_find(directed.begin(), directed.end()) != directed.end())
        throw std::invalid_argument("graph: duplicate edge in input");

    graph g;
    g.build_from_sorted_pairs(num_nodes, std::move(directed));
    return g;
}

graph graph::from_edge_list_dedup(node_id num_nodes, std::vector<edge> edges)
{
    if (num_nodes < 0) throw std::invalid_argument("graph: negative node count");

    std::vector<edge> directed;
    directed.reserve(edges.size() * 2);
    for (const auto& [u, v] : edges) {
        validate_endpoint(u, num_nodes);
        validate_endpoint(v, num_nodes);
        if (u == v) continue;
        directed.emplace_back(u, v);
        directed.emplace_back(v, u);
    }
    std::sort(directed.begin(), directed.end());
    directed.erase(std::unique(directed.begin(), directed.end()), directed.end());

    graph g;
    g.build_from_sorted_pairs(num_nodes, std::move(directed));
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
