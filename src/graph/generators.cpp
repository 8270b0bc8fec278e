#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "graph/algorithms.hpp"

namespace dlb {

namespace {

void require(bool condition, const char* message)
{
    if (!condition) throw std::invalid_argument(message);
}

} // namespace

graph make_torus_2d(node_id width, node_id height)
{
    require(width >= 3 && height >= 3, "make_torus_2d: sides must be >= 3");
    const std::int64_t n64 = static_cast<std::int64_t>(width) * height;
    require(n64 <= std::numeric_limits<node_id>::max(), "make_torus_2d: too many nodes");
    const node_id n = static_cast<node_id>(n64);

    std::vector<edge> edges;
    edges.reserve(static_cast<std::size_t>(2) * n);
    for (node_id row = 0; row < height; ++row) {
        for (node_id col = 0; col < width; ++col) {
            const node_id v = row * width + col;
            const node_id right = row * width + (col + 1) % width;
            const node_id down = ((row + 1) % height) * width + col;
            edges.emplace_back(v, right);
            edges.emplace_back(v, down);
        }
    }
    return graph::from_edge_list(n, edges);
}

graph make_torus_kd(const std::vector<node_id>& dims)
{
    require(!dims.empty(), "make_torus_kd: need at least one dimension");
    std::int64_t n64 = 1;
    for (const node_id side : dims) {
        require(side >= 3, "make_torus_kd: every side must be >= 3");
        n64 *= side;
        require(n64 <= std::numeric_limits<node_id>::max(), "make_torus_kd: too many nodes");
    }
    const node_id n = static_cast<node_id>(n64);

    // Mixed-radix node ids: id = sum_k coord[k] * stride[k].
    std::vector<std::int64_t> stride(dims.size());
    std::int64_t acc = 1;
    for (std::size_t k = 0; k < dims.size(); ++k) {
        stride[k] = acc;
        acc *= dims[k];
    }

    std::vector<edge> edges;
    edges.reserve(static_cast<std::size_t>(n) * dims.size());
    std::vector<node_id> coord(dims.size(), 0);
    for (node_id v = 0; v < n; ++v) {
        for (std::size_t k = 0; k < dims.size(); ++k) {
            const node_id next_coord = (coord[k] + 1) % dims[k];
            const node_id u = static_cast<node_id>(
                v + (next_coord - coord[k]) * stride[k]);
            edges.emplace_back(v, u);
        }
        // Increment mixed-radix coordinate counter.
        for (std::size_t k = 0; k < dims.size(); ++k) {
            if (++coord[k] < dims[k]) break;
            coord[k] = 0;
        }
    }
    return graph::from_edge_list(n, edges);
}

graph make_grid_2d(node_id width, node_id height)
{
    require(width >= 1 && height >= 1, "make_grid_2d: sides must be >= 1");
    const std::int64_t n64 = static_cast<std::int64_t>(width) * height;
    require(n64 >= 2, "make_grid_2d: need at least 2 nodes");
    require(n64 <= std::numeric_limits<node_id>::max(), "make_grid_2d: too many nodes");
    const node_id n = static_cast<node_id>(n64);

    std::vector<edge> edges;
    for (node_id row = 0; row < height; ++row) {
        for (node_id col = 0; col < width; ++col) {
            const node_id v = row * width + col;
            if (col + 1 < width) edges.emplace_back(v, v + 1);
            if (row + 1 < height) edges.emplace_back(v, v + width);
        }
    }
    return graph::from_edge_list(n, edges);
}

graph make_hypercube(int dimension)
{
    require(dimension >= 1 && dimension <= 30, "make_hypercube: dimension in [1, 30]");
    const node_id n = static_cast<node_id>(1) << dimension;

    std::vector<edge> edges;
    edges.reserve(static_cast<std::size_t>(n) * dimension / 2);
    for (node_id v = 0; v < n; ++v)
        for (int bit = 0; bit < dimension; ++bit) {
            const node_id u = v ^ (static_cast<node_id>(1) << bit);
            if (v < u) edges.emplace_back(v, u);
        }
    return graph::from_edge_list(n, edges);
}

graph make_cycle(node_id n)
{
    require(n >= 3, "make_cycle: n >= 3");
    std::vector<edge> edges;
    edges.reserve(static_cast<std::size_t>(n));
    for (node_id v = 0; v < n; ++v)
        edges.emplace_back(v, static_cast<node_id>((v + 1) % n));
    return graph::from_edge_list(n, edges);
}

graph make_path(node_id n)
{
    require(n >= 2, "make_path: n >= 2");
    std::vector<edge> edges;
    edges.reserve(static_cast<std::size_t>(n) - 1);
    for (node_id v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
    return graph::from_edge_list(n, edges);
}

graph make_complete(node_id n)
{
    require(n >= 2, "make_complete: n >= 2");
    std::vector<edge> edges;
    edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
    for (node_id u = 0; u < n; ++u)
        for (node_id v = u + 1; v < n; ++v) edges.emplace_back(u, v);
    return graph::from_edge_list(n, edges);
}

graph make_star(node_id n)
{
    require(n >= 2, "make_star: n >= 2");
    std::vector<edge> edges;
    edges.reserve(static_cast<std::size_t>(n) - 1);
    for (node_id v = 1; v < n; ++v) edges.emplace_back(0, v);
    return graph::from_edge_list(n, edges);
}

namespace {

/// One configuration-model pairing: every node contributes d stubs, the stub
/// array is shuffled, and consecutive pairs become edges.
std::vector<edge> pair_stubs(node_id n, std::int32_t d, xoshiro256ss& rng)
{
    std::vector<node_id> stubs;
    stubs.reserve(static_cast<std::size_t>(n) * d);
    for (node_id v = 0; v < n; ++v)
        for (std::int32_t k = 0; k < d; ++k) stubs.push_back(v);

    // Fisher-Yates with the deterministic generator.
    for (std::size_t i = stubs.size(); i > 1; --i)
        std::swap(stubs[i - 1], stubs[rng.next_below(i)]);

    std::vector<edge> edges;
    edges.reserve(stubs.size() / 2);
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2)
        edges.emplace_back(stubs[i], stubs[i + 1]);
    return edges;
}

} // namespace

graph make_random_regular_cm(node_id n, std::int32_t d, std::uint64_t seed)
{
    require(n >= 2 && d >= 1 && d < n, "make_random_regular_cm: need 1 <= d < n");
    require((static_cast<std::int64_t>(n) * d) % 2 == 0,
            "make_random_regular_cm: n*d must be even");
    auto rng = tagged_rng(seed, 0xc0417u);
    return graph::from_edge_list_dedup(n, pair_stubs(n, d, rng));
}

graph make_random_regular_exact(node_id n, std::int32_t d, std::uint64_t seed,
                                int max_restarts)
{
    require(n >= 2 && d >= 1 && d < n, "make_random_regular_exact: need 1 <= d < n");
    require((static_cast<std::int64_t>(n) * d) % 2 == 0,
            "make_random_regular_exact: n*d must be even");

    auto rng = tagged_rng(seed, 0xe8ac7u);
    for (int attempt = 0; attempt < max_restarts; ++attempt) {
        auto edges = pair_stubs(n, d, rng);
        const bool has_self_loop = std::any_of(
            edges.begin(), edges.end(), [](const edge& e) { return e.first == e.second; });
        if (has_self_loop) continue;
        std::vector<edge> canonical(edges);
        for (auto& [u, v] : canonical)
            if (u > v) std::swap(u, v);
        std::sort(canonical.begin(), canonical.end());
        if (std::adjacent_find(canonical.begin(), canonical.end()) != canonical.end())
            continue;
        return graph::from_edge_list(n, canonical);
    }
    throw std::runtime_error(
        "make_random_regular_exact: no simple pairing found after " +
        std::to_string(max_restarts) + " restarts (d too large?)");
}

graph make_erdos_renyi(node_id n, double p, std::uint64_t seed)
{
    require(n >= 2, "make_erdos_renyi: n >= 2");
    require(p >= 0.0 && p <= 1.0, "make_erdos_renyi: p in [0, 1]");
    auto rng = tagged_rng(seed, 0xe7d05u);

    // Geometric skipping over the lexicographic pair order: O(m) expected.
    std::vector<edge> edges;
    if (p > 0.0) {
        const double log1mp = std::log1p(-p);
        std::int64_t idx = -1;
        const std::int64_t total = static_cast<std::int64_t>(n) * (n - 1) / 2;
        for (;;) {
            double u = rng.next_double();
            if (u <= 0.0) u = std::numeric_limits<double>::min();
            const double skip = p >= 1.0 ? 1.0 : std::floor(std::log(u) / log1mp) + 1.0;
            if (skip > static_cast<double>(total - idx)) break;
            idx += static_cast<std::int64_t>(skip);
            if (idx >= total) break;
            // Invert idx -> (row u, col v) in the strict upper triangle.
            node_id row = 0;
            std::int64_t remaining = idx;
            while (remaining >= n - 1 - row) {
                remaining -= n - 1 - row;
                ++row;
            }
            edges.emplace_back(row, static_cast<node_id>(row + 1 + remaining));
        }
    }
    return graph::from_edge_list(n, edges);
}

double rgg_paper_radius(node_id n, double factor)
{
    return factor * std::sqrt(std::log(static_cast<double>(n)));
}

graph make_random_geometric(node_id n, double radius, std::uint64_t seed,
                            std::vector<double>* coordinates_out)
{
    require(n >= 2, "make_random_geometric: n >= 2");
    require(radius > 0.0, "make_random_geometric: radius > 0");

    const double side = std::sqrt(static_cast<double>(n));
    auto rng = tagged_rng(seed, 0x46606u);

    std::vector<double> xs(n), ys(n);
    for (node_id v = 0; v < n; ++v) {
        xs[v] = rng.next_double() * side;
        ys[v] = rng.next_double() * side;
    }
    if (coordinates_out) {
        coordinates_out->resize(static_cast<std::size_t>(n) * 2);
        for (node_id v = 0; v < n; ++v) {
            (*coordinates_out)[2 * v] = xs[v];
            (*coordinates_out)[2 * v + 1] = ys[v];
        }
    }

    // Spatial hashing: cells of side `radius`, neighbor search in the 3x3
    // cell block around each node.
    const auto cells_per_side =
        std::max<std::int64_t>(1, static_cast<std::int64_t>(side / radius));
    const double cell_size = side / static_cast<double>(cells_per_side);
    auto cell_of = [&](node_id v) {
        auto cx = std::min<std::int64_t>(cells_per_side - 1,
                                         static_cast<std::int64_t>(xs[v] / cell_size));
        auto cy = std::min<std::int64_t>(cells_per_side - 1,
                                         static_cast<std::int64_t>(ys[v] / cell_size));
        return cy * cells_per_side + cx;
    };

    std::vector<std::vector<node_id>> buckets(
        static_cast<std::size_t>(cells_per_side * cells_per_side));
    for (node_id v = 0; v < n; ++v)
        buckets[static_cast<std::size_t>(cell_of(v))].push_back(v);

    const double radius_sq = radius * radius;
    auto dist_sq = [&](node_id a, node_id b) {
        const double dx = xs[a] - xs[b];
        const double dy = ys[a] - ys[b];
        return dx * dx + dy * dy;
    };

    std::vector<edge> edges;
    for (node_id v = 0; v < n; ++v) {
        const std::int64_t cx = std::min<std::int64_t>(
            cells_per_side - 1, static_cast<std::int64_t>(xs[v] / cell_size));
        const std::int64_t cy = std::min<std::int64_t>(
            cells_per_side - 1, static_cast<std::int64_t>(ys[v] / cell_size));
        for (std::int64_t dy = -1; dy <= 1; ++dy) {
            for (std::int64_t dx = -1; dx <= 1; ++dx) {
                const std::int64_t bx = cx + dx;
                const std::int64_t by = cy + dy;
                if (bx < 0 || by < 0 || bx >= cells_per_side || by >= cells_per_side)
                    continue;
                for (const node_id u : buckets[static_cast<std::size_t>(
                         by * cells_per_side + bx)]) {
                    if (u <= v) continue;
                    if (dist_sq(v, u) <= radius_sq) edges.emplace_back(v, u);
                }
            }
        }
    }

    graph g = graph::from_edge_list(n, edges);

    // Paper post-processing: "Remaining small isolated components were
    // connected to the closest neighbor in the largest component".
    const auto comps = connected_components(g);
    if (comps.count > 1) {
        // Identify the largest component.
        std::vector<std::int64_t> size(static_cast<std::size_t>(comps.count), 0);
        for (node_id v = 0; v < n; ++v) size[comps.label[v]]++;
        const int big = static_cast<int>(
            std::max_element(size.begin(), size.end()) - size.begin());

        std::vector<node_id> inside;
        for (node_id v = 0; v < n; ++v)
            if (comps.label[v] == big) inside.push_back(v);

        // For every outside node, link to the geometrically closest node of
        // the largest component. O(outside * inside) — outside is tiny for
        // the radii used in the paper.
        for (node_id v = 0; v < n; ++v) {
            if (comps.label[v] == big) continue;
            node_id best = inside.front();
            double best_d = dist_sq(v, best);
            for (const node_id u : inside) {
                const double d2 = dist_sq(v, u);
                if (d2 < best_d) {
                    best_d = d2;
                    best = u;
                }
            }
            edges.emplace_back(std::min(v, best), std::max(v, best));
        }
        g = graph::from_edge_list_dedup(n, edges);
    }
    return g;
}

} // namespace dlb
