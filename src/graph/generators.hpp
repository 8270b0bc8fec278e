// Generators for every graph family used in the paper's evaluation
// (Table I) plus standard test fixtures.
#ifndef DLB_GRAPH_GENERATORS_HPP
#define DLB_GRAPH_GENERATORS_HPP

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace dlb {

/// 2-D torus of width x height nodes with 4-neighborhood and periodic
/// boundary. Node (col, row) has id row*width + col. Requires width,
/// height >= 3 so the wrap-around produces a simple graph.
graph make_torus_2d(node_id width, node_id height);

/// k-dimensional torus with side lengths dims[0..k-1] (each >= 3).
graph make_torus_kd(const std::vector<node_id>& dims);

/// 2-D grid (no wrap-around), width*height nodes, width, height >= 1.
graph make_grid_2d(node_id width, node_id height);

/// Hypercube with 2^dimension nodes; node ids differ in one bit per edge.
graph make_hypercube(int dimension);

/// Cycle C_n (n >= 3).
graph make_cycle(node_id n);

/// Path P_n (n >= 2).
graph make_path(node_id n);

/// Complete graph K_n (n >= 2).
graph make_complete(node_id n);

/// Star with one center (id 0) and n-1 leaves (n >= 2).
graph make_star(node_id n);

/// Random d-regular multigraph via the configuration model with erasure:
/// self-loops and duplicate pairings are dropped, so degrees may fall
/// slightly below d (the paper's "random graph (CM)" with d = floor(log2 n)).
/// Requires n*d even, d < n.
graph make_random_regular_cm(node_id n, std::int32_t d, std::uint64_t seed);

/// Exactly d-regular simple random graph via pairing with full restarts;
/// practical for n*d up to ~10^6. Throws after `max_restarts` failures.
graph make_random_regular_exact(node_id n, std::int32_t d, std::uint64_t seed,
                                int max_restarts = 1000);

/// Erdos-Renyi G(n, p).
graph make_erdos_renyi(node_id n, double p, std::uint64_t seed);

/// Random geometric graph: n nodes uniform in [0, sqrt(n)]^2, edge iff
/// euclidean distance <= radius. Per the paper, any node outside the
/// largest connected component is attached to its closest node inside it.
/// `coordinates_out`, when non-null, receives the sampled positions
/// (x0, y0, x1, y1, ...) for visualization.
graph make_random_geometric(node_id n, double radius, std::uint64_t seed,
                            std::vector<double>* coordinates_out = nullptr);

/// The paper's RGG radius for n nodes in [0, sqrt(n)]^2. Table I lists
/// r = (log n)^(1/4) * 4 / ... — the text reads "4-th root times" ambiguously;
/// we follow the caption of Figure 14 ("connectivity radius sqrt(log n)")
/// scaled by `factor` (default 1.0). ROADMAP.md's paper-scale evidence item
/// (its RGG paragraph) records how the two readings compare with Table I.
double rgg_paper_radius(node_id n, double factor = 1.0);

} // namespace dlb

#endif // DLB_GRAPH_GENERATORS_HPP
