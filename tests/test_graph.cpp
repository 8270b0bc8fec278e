// Tests for the CSR graph: construction, adjacency, twin half-edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "reference_kernels.hpp"
#include "util/rng.hpp"

namespace dlb {
namespace {

graph triangle()
{
    const std::vector<edge> edges{{0, 1}, {1, 2}, {0, 2}};
    return graph::from_edge_list(3, edges);
}

TEST(Graph, EmptyGraph)
{
    const graph g = graph::from_edge_list(0, {});
    EXPECT_EQ(g.num_nodes(), 0);
    EXPECT_EQ(g.num_edges(), 0);
    EXPECT_EQ(g.num_half_edges(), 0);
}

TEST(Graph, IsolatedNodes)
{
    const graph g = graph::from_edge_list(5, {});
    EXPECT_EQ(g.num_nodes(), 5);
    EXPECT_EQ(g.num_edges(), 0);
    for (node_id v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0);
    EXPECT_EQ(g.min_degree(), 0);
    EXPECT_EQ(g.max_degree(), 0);
}

TEST(Graph, TriangleBasics)
{
    const graph g = triangle();
    EXPECT_EQ(g.num_nodes(), 3);
    EXPECT_EQ(g.num_edges(), 3);
    EXPECT_EQ(g.num_half_edges(), 6);
    for (node_id v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2);
    EXPECT_EQ(g.average_degree(), 2.0);
}

TEST(Graph, NeighborsAreSorted)
{
    const std::vector<edge> edges{{0, 3}, {0, 1}, {0, 2}};
    const graph g = graph::from_edge_list(4, edges);
    const auto nbrs = g.neighbors(0);
    ASSERT_EQ(nbrs.size(), 3u);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(Graph, TwinInvolution)
{
    const graph g = triangle();
    for (half_edge_id h = 0; h < g.num_half_edges(); ++h) {
        const half_edge_id tw = g.twin(h);
        EXPECT_NE(tw, h);
        EXPECT_EQ(g.twin(tw), h);
    }
}

TEST(Graph, TwinConnectsEndpoints)
{
    const graph g = triangle();
    for (node_id v = 0; v < g.num_nodes(); ++v) {
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h) {
            const node_id u = g.head(h);
            const half_edge_id tw = g.twin(h);
            EXPECT_EQ(g.head(tw), v);
            // The twin lives in u's slice.
            EXPECT_GE(tw, g.half_edge_begin(u));
            EXPECT_LT(tw, g.half_edge_end(u));
        }
    }
}

TEST(Graph, HasEdge)
{
    const graph g = triangle();
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 0));
    EXPECT_TRUE(g.has_edge(2, 0));
    EXPECT_FALSE(g.has_edge(0, 0));
    EXPECT_FALSE(g.has_edge(0, 3));  // out of range
    EXPECT_FALSE(g.has_edge(-1, 0)); // out of range
}

TEST(Graph, EdgeListRoundTrip)
{
    const std::vector<edge> edges{{0, 1}, {1, 2}, {2, 3}, {0, 3}};
    const graph g = graph::from_edge_list(4, edges);
    auto out = g.edge_list();
    std::vector<edge> expected(edges);
    std::sort(expected.begin(), expected.end());
    std::sort(out.begin(), out.end());
    EXPECT_EQ(out, expected);
}

TEST(Graph, RejectsSelfLoop)
{
    const std::vector<edge> edges{{0, 0}};
    EXPECT_THROW(graph::from_edge_list(2, edges), std::invalid_argument);
}

TEST(Graph, RejectsDuplicateEdge)
{
    const std::vector<edge> edges{{0, 1}, {1, 0}};
    EXPECT_THROW(graph::from_edge_list(2, edges), std::invalid_argument);
}

TEST(Graph, RejectsOutOfRangeEndpoint)
{
    const std::vector<edge> edges{{0, 5}};
    EXPECT_THROW(graph::from_edge_list(3, edges), std::invalid_argument);
}

TEST(Graph, DedupDropsSelfLoopsAndDuplicates)
{
    const std::vector<edge> edges{{0, 1}, {1, 0}, {0, 0}, {1, 2}, {1, 2}};
    const graph g = graph::from_edge_list_dedup(3, edges);
    EXPECT_EQ(g.num_edges(), 2);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 2));
    EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, DegreeExtremes)
{
    // Star: center degree 4, leaves degree 1.
    const std::vector<edge> edges{{0, 1}, {0, 2}, {0, 3}, {0, 4}};
    const graph g = graph::from_edge_list(5, edges);
    EXPECT_EQ(g.max_degree(), 4);
    EXPECT_EQ(g.min_degree(), 1);
}

TEST(Graph, HalfEdgeRangesPartitionAdjacency)
{
    const graph g = triangle();
    half_edge_id expected_begin = 0;
    for (node_id v = 0; v < g.num_nodes(); ++v) {
        EXPECT_EQ(g.half_edge_begin(v), expected_begin);
        expected_begin = g.half_edge_end(v);
    }
    EXPECT_EQ(expected_begin, g.num_half_edges());
}

TEST(Graph, BytesCountFourPerIndex)
{
    // Heads and twins are 4 B per half-edge, the offsets 4 B per node plus
    // their end entry.
    const graph torus = make_torus_2d(64, 64);
    ASSERT_EQ(torus.num_half_edges(), 16384);
    EXPECT_EQ(torus.bytes(), 147460); // 8 * 16384 + 4 * 4097

    const graph grid = make_grid_2d(37, 23);
    ASSERT_EQ(grid.num_half_edges(), 2 * (36 * 23 + 37 * 22));
    EXPECT_EQ(grid.bytes(), 8 * 3284 + 4 * 852);

    EXPECT_EQ(graph::from_edge_list(0, {}).bytes(), 4);
}

// --- the build against the sort-based reference ---------------------------

/// The torus with these sides in make_torus_kd's edge order (which is
/// make_torus_2d's for two sides; one side gives the cycle).
std::vector<edge> torus_edges(const std::vector<node_id>& sides)
{
    node_id n = 1;
    for (const node_id side : sides) n *= side;
    std::vector<edge> edges;
    for (node_id v = 0; v < n; ++v) {
        node_id stride = 1;
        for (const node_id side : sides) {
            const node_id coord = v / stride % side;
            edges.emplace_back(v, v + ((coord + 1) % side - coord) * stride);
            stride *= side;
        }
    }
    return edges;
}

std::vector<edge> grid_edges(node_id width, node_id height)
{
    std::vector<edge> edges;
    for (node_id v = 0; v < width * height; ++v) {
        if ((v + 1) % width != 0) edges.emplace_back(v, v + 1);
        if (v + width < width * height) edges.emplace_back(v, v + width);
    }
    return edges;
}

std::vector<edge> hypercube_edges(int dimension)
{
    std::vector<edge> edges;
    for (node_id v = 0; v < (node_id{1} << dimension); ++v)
        for (int bit = 0; bit < dimension; ++bit)
            if (const node_id u = v ^ (node_id{1} << bit); v < u) edges.emplace_back(v, u);
    return edges;
}

std::vector<edge> complete_edges(node_id n)
{
    std::vector<edge> edges;
    for (node_id u = 0; u < n; ++u)
        for (node_id v = u + 1; v < n; ++v) edges.emplace_back(u, v);
    return edges;
}

/// A star with `leaves` leaves, listed from the last leaf down and with
/// the center second in every pair.
std::vector<edge> reversed_star_edges(node_id leaves)
{
    std::vector<edge> edges;
    for (node_id v = leaves; v >= 1; --v) edges.emplace_back(v, 0);
    return edges;
}

/// One configuration-model pairing of n nodes of degree d: its stubs
/// shuffled, consecutive pairs joined.
std::vector<edge> pairing_edges(node_id n, std::int32_t d, std::uint64_t seed)
{
    std::vector<node_id> stubs;
    for (node_id v = 0; v < n; ++v) stubs.insert(stubs.end(), d, v);
    xoshiro256ss rng{seed};
    for (std::size_t i = stubs.size(); i > 1; --i)
        std::swap(stubs[i - 1], stubs[rng.next_below(i)]);
    std::vector<edge> edges;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2)
        edges.emplace_back(stubs[i], stubs[i + 1]);
    return edges;
}

/// The edge list make_random_geometric rebuilds from when its radius
/// leaves isolated nodes: every pair within `radius` of the coordinates
/// `xy`, then an edge from each node outside the largest component to its
/// closest node inside.
std::vector<edge> rgg_repaired_edges(node_id n, double radius, const std::vector<double>& xy)
{
    const auto dist_sq = [&](node_id a, node_id b) {
        const double dx = xy[2 * a] - xy[2 * b];
        const double dy = xy[2 * a + 1] - xy[2 * b + 1];
        return dx * dx + dy * dy;
    };
    std::vector<edge> edges;
    for (node_id v = 0; v < n; ++v)
        for (node_id u = v + 1; u < n; ++u)
            if (dist_sq(v, u) <= radius * radius) edges.emplace_back(v, u);
    const graph within_radius = graph::from_edge_list(n, edges);
    EXPECT_EQ(within_radius.min_degree(), 0);

    const components comps = connected_components(within_radius);
    std::vector<std::int64_t> sizes(static_cast<std::size_t>(comps.count), 0);
    for (node_id v = 0; v < n; ++v) sizes[comps.label[v]]++;
    const auto big = static_cast<int>(std::max_element(sizes.begin(), sizes.end()) -
                                      sizes.begin());
    for (node_id v = 0; v < n; ++v) {
        if (comps.label[v] == big) continue;
        node_id best = -1;
        for (node_id u = 0; u < n; ++u)
            if (comps.label[u] == big && (best < 0 || dist_sq(v, u) < dist_sq(v, best)))
                best = u;
        edges.emplace_back(std::min(v, best), std::max(v, best));
    }
    return edges;
}

/// Compares every accessor of `g` with the reference build's arrays.
void expect_matches_reference(const graph& g, const csr_reference& ref,
                              const std::string& label)
{
    SCOPED_TRACE(label);
    const node_id n = g.num_nodes();
    ASSERT_EQ(ref.offsets.size(), static_cast<std::size_t>(n) + 1);
    ASSERT_EQ(ref.adjacency.size(), static_cast<std::size_t>(g.num_half_edges()));
    EXPECT_EQ(g.num_edges() * 2, g.num_half_edges());

    std::vector<half_edge_id> begins, ends;
    std::vector<std::int32_t> degrees, ref_degrees;
    std::vector<node_id> neighbors;
    for (node_id v = 0; v < n; ++v) {
        begins.push_back(g.half_edge_begin(v));
        ends.push_back(g.half_edge_end(v));
        degrees.push_back(g.degree(v));
        ref_degrees.push_back(
            static_cast<std::int32_t>(ref.offsets[v + 1] - ref.offsets[v]));
        const auto slice = g.neighbors(v);
        neighbors.insert(neighbors.end(), slice.begin(), slice.end());
    }
    EXPECT_EQ(begins, std::vector<half_edge_id>(ref.offsets.begin(), ref.offsets.end() - 1));
    EXPECT_EQ(ends, std::vector<half_edge_id>(ref.offsets.begin() + 1, ref.offsets.end()));
    EXPECT_EQ(degrees, ref_degrees);
    EXPECT_EQ(neighbors, ref.adjacency);

    std::vector<node_id> heads;
    std::vector<half_edge_id> twins;
    for (half_edge_id h = 0; h < g.num_half_edges(); ++h) {
        heads.push_back(g.head(h));
        twins.push_back(g.twin(h));
    }
    EXPECT_EQ(heads, ref.adjacency);
    EXPECT_EQ(twins, ref.twins);
    EXPECT_EQ(g.max_degree(), ref.max_degree);
    EXPECT_EQ(g.min_degree(), ref.min_degree);
}

void expect_build_matches(node_id n, const std::vector<edge>& edges,
                          const std::string& label)
{
    expect_matches_reference(graph::from_edge_list(n, edges),
                             build_csr_reference(n, edges, false), label);
}

void expect_dedup_build_matches(node_id n, const std::vector<edge>& edges,
                                const std::string& label)
{
    expect_matches_reference(graph::from_edge_list_dedup(n, edges),
                             build_csr_reference(n, edges, true), label);
}

TEST(Graph, BuildMatchesSortedPairReference)
{
    expect_build_matches(256 * 256, torus_edges({256, 256}), "torus 256^2");
    expect_build_matches(8 * 6 * 5, torus_edges({8, 6, 5}), "torus 8x6x5");
    expect_build_matches(37 * 23, grid_edges(37, 23), "grid 37x23");
    expect_build_matches(1 << 12, hypercube_edges(12), "hypercube 2^12");
    expect_build_matches(200, complete_edges(200), "K_200");
    expect_build_matches(1000, grid_edges(1000, 1), "path 1000");
    expect_build_matches(1001, torus_edges({1001}), "cycle 1001");
    expect_build_matches(10, {{2, 7}, {7, 3}}, "isolated nodes");
    expect_build_matches(5, {}, "no edges");
    expect_build_matches(0, {}, "n = 0");
    expect_build_matches(5001, reversed_star_edges(5000), "reversed star");

    std::vector<edge> shuffled = torus_edges({300, 300});
    xoshiro256ss rng{25};
    for (std::size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
        if (rng.next_below(2) == 1) std::swap(shuffled[i - 1].first, shuffled[i - 1].second);
    }
    expect_build_matches(300 * 300, shuffled, "shuffled torus 300^2");

    // The pairing really holds self-loops and multi-edges for the dedup
    // path to drop.
    const std::vector<edge> pairing = pairing_edges(120, 9, 25);
    std::vector<edge> canonical;
    for (const auto& [u, v] : pairing)
        if (u != v) canonical.emplace_back(std::min(u, v), std::max(u, v));
    std::sort(canonical.begin(), canonical.end());
    EXPECT_LT(canonical.size(), pairing.size());
    EXPECT_NE(std::adjacent_find(canonical.begin(), canonical.end()), canonical.end());
    expect_dedup_build_matches(120, pairing, "configuration-model pairing");

    // A radius factor this small leaves isolated nodes, so the generator
    // repairs the graph and rebuilds it through the dedup path.
    std::vector<double> xy;
    const double radius = rgg_paper_radius(2000, 0.35);
    const graph rgg = make_random_geometric(2000, radius, 25, &xy);
    const std::vector<edge> repaired = rgg_repaired_edges(2000, radius, xy);
    expect_dedup_build_matches(2000, repaired, "rgg repair");
    expect_matches_reference(rgg, build_csr_reference(2000, repaired, true),
                             "make_random_geometric");
}

/// The what() of the std::invalid_argument that `build` throws.
template <class Build>
std::string invalid_argument_message(Build&& build)
{
    try {
        build();
    } catch (const std::invalid_argument& error) {
        return error.what();
    }
    return "(nothing thrown)";
}

void expect_build_throws(node_id n, const std::vector<edge>& edges, bool dedup,
                         const std::string& message)
{
    const std::string library = invalid_argument_message([&] {
        if (dedup)
            graph::from_edge_list_dedup(n, edges);
        else
            graph::from_edge_list(n, edges);
    });
    EXPECT_EQ(library, message);
    EXPECT_EQ(invalid_argument_message([&] { build_csr_reference(n, edges, dedup); }),
              message);
}

TEST(Graph, BuildErrorsMatchSortedPairReference)
{
    // A duplicate deep in the reversed star: {0, 4321} again, with the
    // center first this time.
    std::vector<edge> star = reversed_star_edges(5000);
    star.insert(star.begin() + 4000, edge{0, 4321});
    expect_build_throws(5001, star, false, "graph: duplicate edge in input");

    // Endpoint and self-loop errors come in edge order, before any
    // duplicate error; the dedup path skips self-loops but still checks
    // endpoints.
    expect_build_throws(5, {{0, 1}, {3, 3}, {2, 9}}, false, "graph: self-loop at node 3");
    expect_build_throws(5, {{0, 1}, {1, 0}, {2, 9}}, false,
                        "graph: endpoint 9 outside [0, 5)");
    expect_build_throws(5, {{0, 0}, {-1, 2}}, true, "graph: endpoint -1 outside [0, 5)");
    expect_build_throws(-1, {}, false, "graph: negative node count");
}

} // namespace
} // namespace dlb
