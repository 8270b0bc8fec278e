// Immutable undirected simple graph in CSR (compressed sparse row) form.
//
// Each undirected edge {u, v} appears as two *half-edges*: one in u's
// adjacency slice pointing to v and one in v's slice pointing to u. The
// `twin` table maps a half-edge to its reverse, which lets the diffusion
// engines keep the antisymmetric flow state y with y[h] == -y[twin(h)].
//
// The node slice is the one traversal of the per-round kernels:
// for_each_node_slice hands each node its own half-edges, and a kernel
// writes only the slices of its own nodes (round_flows' mirror also writes
// the twins of the half-edges whose head is above the node, which no other
// node writes). Slices are contiguous and ascending, so half-edge h is
// u -> v with u < v exactly when h < twin(h).
//
// The arrays hold 8 B per half-edge (an int32 head and a uint32 twin) plus
// 4 B per node (uint32 offsets), so a graph has at most 2^31 - 1 nodes and
// 2^32 - 1 half-edges; the paper's largest, the 2^20-node hypercube, has
// 20 * 2^20 half-edges. The accessors widen indices to half_edge_id.
#ifndef DLB_GRAPH_GRAPH_HPP
#define DLB_GRAPH_GRAPH_HPP

#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace dlb {

/// Node index. Graphs up to 2^31-1 nodes (paper maximum: 2^20).
using node_id = std::int32_t;

/// Half-edge index into the CSR adjacency array.
using half_edge_id = std::int64_t;

/// An undirected edge as an (u, v) pair; canonical form has u < v.
using edge = std::pair<node_id, node_id>;

class graph {
public:
    /// Builds a graph from an undirected edge list.
    ///
    /// Self-loops and duplicate edges are rejected with
    /// std::invalid_argument, as are endpoints outside [0, num_nodes);
    /// endpoint and self-loop errors come in edge order, before any
    /// duplicate error. Edges past 2^32 - 1 half-edges (self-loops
    /// excluded, duplicates included) throw std::length_error, before any
    /// index is stored. Cost: O(n + m + sum_v d_v log d_v) (a counting-sort
    /// scatter, then one sort per node slice), with one n-sized temporary.
    static graph from_edge_list(node_id num_nodes, std::span<const edge> edges);

    /// Like from_edge_list but silently drops self-loops and duplicates;
    /// used by the erased configuration model generator and the RGG repair.
    static graph from_edge_list_dedup(node_id num_nodes, std::span<const edge> edges);

    graph() = default;

    node_id num_nodes() const noexcept { return num_nodes_; }

    /// Number of undirected edges |E|.
    std::int64_t num_edges() const noexcept
    {
        return static_cast<std::int64_t>(adjacency_.size()) / 2;
    }

    /// Number of half-edges (2|E|); the size of per-half-edge state arrays.
    std::int64_t num_half_edges() const noexcept
    {
        return static_cast<std::int64_t>(adjacency_.size());
    }

    std::int32_t degree(node_id v) const noexcept
    {
        return static_cast<std::int32_t>(offsets_[v + 1] - offsets_[v]);
    }

    std::int32_t max_degree() const noexcept { return max_degree_; }
    std::int32_t min_degree() const noexcept { return min_degree_; }

    /// Neighbors of v, ordered ascending by node id.
    std::span<const node_id> neighbors(node_id v) const noexcept
    {
        return {adjacency_.data() + offsets_[v],
                static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
    }

    /// First half-edge of v; v's k-th neighbor corresponds to half-edge
    /// `half_edge_begin(v) + k`.
    half_edge_id half_edge_begin(node_id v) const noexcept { return offsets_[v]; }
    half_edge_id half_edge_end(node_id v) const noexcept { return offsets_[v + 1]; }

    /// Head (target node) of a half-edge.
    node_id head(half_edge_id h) const noexcept { return adjacency_[h]; }

    /// The reverse half-edge of h.
    half_edge_id twin(half_edge_id h) const noexcept { return twins_[h]; }

    /// The CSR arrays, for kernels that hold raw pointers in locals: n + 1
    /// offsets (v's slice is [offsets[v], offsets[v + 1])) and one twin per
    /// half-edge.
    std::span<const std::uint32_t> offsets() const noexcept { return offsets_; }
    std::span<const std::uint32_t> twins() const noexcept { return twins_; }

    /// True when {u, v} is an edge. O(log degree(u)).
    bool has_edge(node_id u, node_id v) const noexcept;

    /// All undirected edges in canonical (u < v) form, sorted.
    std::vector<edge> edge_list() const;

    /// Bytes of the graph's arrays at their sizes: 8 per half-edge plus 4
    /// per node, plus 4 (the offsets' end entry).
    std::int64_t bytes() const noexcept
    {
        return static_cast<std::int64_t>(
            (offsets_.size() + twins_.size()) * sizeof(std::uint32_t) +
            adjacency_.size() * sizeof(node_id));
    }

    /// 2|E| / n.
    double average_degree() const noexcept
    {
        return num_nodes_ == 0
                   ? 0.0
                   : static_cast<double>(num_half_edges()) / num_nodes_;
    }

private:
    node_id num_nodes_ = 0;
    std::int32_t max_degree_ = 0;
    std::int32_t min_degree_ = 0;
    std::vector<std::uint32_t> offsets_; // size n+1
    std::vector<node_id> adjacency_;     // size 2|E|, per-node ascending
    std::vector<std::uint32_t> twins_;   // size 2|E|

    /// The one builder behind both entry points; `dedup` drops self-loops
    /// and duplicates instead of rejecting them.
    void build(node_id num_nodes, std::span<const edge> edges, bool dedup);
};

/// True on a 4-regular graph (the 2-D torus, the paper's primary
/// topology): node v's slots are then [4v, 4v + 4).
inline bool is_four_regular(const graph& g)
{
    return g.max_degree() == 4 &&
           g.num_half_edges() == 4 * static_cast<std::int64_t>(g.num_nodes());
}

/// Calls visit(degree_tag, v, begin, degree) for every node v in
/// [chunk_begin, chunk_end), in order. On a 4-regular graph degree_tag is
/// std::integral_constant<std::int32_t, 4> and begin == 4v (no CSR offset
/// loads); otherwise it is the 0 tag and the degree is read per node.
/// Identical results either way: the tag only changes trip counts and
/// addressing.
template <class Visit>
[[gnu::always_inline]] inline void for_each_node_slice(const graph& g,
                                                       node_id chunk_begin,
                                                       node_id chunk_end,
                                                       Visit&& visit)
{
    if (is_four_regular(g)) {
        for (node_id v = chunk_begin; v < chunk_end; ++v)
            visit(std::integral_constant<std::int32_t, 4>{}, v,
                  static_cast<half_edge_id>(v) * 4, std::int32_t{4});
        return;
    }
    for (node_id v = chunk_begin; v < chunk_end; ++v) {
        const half_edge_id begin = g.half_edge_begin(v);
        visit(std::integral_constant<std::int32_t, 0>{}, v, begin,
              static_cast<std::int32_t>(g.half_edge_end(v) - begin));
    }
}

} // namespace dlb

#endif // DLB_GRAPH_GRAPH_HPP
