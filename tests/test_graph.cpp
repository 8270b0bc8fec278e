// Tests for the CSR graph: construction, adjacency, twin half-edges.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/graph.hpp"

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
    std::vector<edge> edges{{0, 1}, {1, 0}, {0, 0}, {1, 2}, {1, 2}};
    const graph g = graph::from_edge_list_dedup(3, std::move(edges));
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

} // namespace
} // namespace dlb
