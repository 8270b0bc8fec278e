#include "campaign/registry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include "campaign/workload.hpp"
#include "graph/generators.hpp"
#include "linalg/spectra.hpp"
#include "util/rng.hpp"

namespace dlb::campaign {

namespace {

node_id checked_node_count(const std::string& family, std::int64_t nodes,
                           std::int64_t minimum)
{
    if (nodes > 100000000)
        throw std::invalid_argument("topology " + family + ": node count " +
                                    std::to_string(nodes) + " too large");
    return static_cast<node_id>(std::max(nodes, minimum));
}

node_id square_side(std::int64_t nodes, std::int64_t minimum_side)
{
    const std::int64_t side = std::max<std::int64_t>(
        minimum_side, std::llround(std::sqrt(static_cast<double>(
                          std::max<std::int64_t>(nodes, 1)))));
    if (side > 10000)
        throw std::invalid_argument("topology: side " + std::to_string(side) +
                                    " too large");
    return static_cast<node_id>(side);
}

int hypercube_dimension(std::int64_t nodes)
{
    const auto dimension = static_cast<int>(std::max<std::int64_t>(
        1, std::llround(std::log2(
               static_cast<double>(std::max<std::int64_t>(nodes, 2))))));
    if (dimension > 26)
        throw std::invalid_argument("topology hypercube: dimension " +
                                    std::to_string(dimension) + " too large");
    return dimension;
}

} // namespace

std::uint64_t topology_seed(std::uint64_t scenario_seed)
{
    return mix64(scenario_seed, 0x67726170); // "grap" substream tag
}

namespace {

// The single source of truth for topology families: names, whether the
// construction consumes the seed (which decides graph-cache sharing across
// the seed axis), the builders, and the closed-form lambda where one
// exists. Adding a family means adding one row here — topology_names /
// topology_uses_seed / build_topology / closed_form_lambda all read it.
// A closed form must size the graph exactly as its row's builder does.
struct topology_family {
    const char* name;
    bool uses_seed;
    graph (*build)(std::int64_t nodes, double param, std::uint64_t seed);
    double (*lambda)(std::int64_t nodes) = nullptr;
};

const topology_family kTopologyFamilies[] = {
    {"torus", false,
     [](std::int64_t nodes, double, std::uint64_t) {
         const node_id side = square_side(nodes, 3);
         return make_torus_2d(side, side);
     },
     [](std::int64_t nodes) {
         const node_id side = square_side(nodes, 3);
         return torus_2d_lambda(side, side);
     }},
    {"grid", false,
     [](std::int64_t nodes, double, std::uint64_t) {
         const node_id side = square_side(nodes, 2);
         return make_grid_2d(side, side);
     }},
    {"hypercube", false,
     [](std::int64_t nodes, double, std::uint64_t) {
         return make_hypercube(hypercube_dimension(nodes));
     },
     [](std::int64_t nodes) {
         return hypercube_lambda(hypercube_dimension(nodes));
     }},
    {"cycle", false,
     [](std::int64_t nodes, double, std::uint64_t) {
         return make_cycle(checked_node_count("cycle", nodes, 3));
     },
     [](std::int64_t nodes) {
         return cycle_lambda(checked_node_count("cycle", nodes, 3));
     }},
    {"path", false,
     [](std::int64_t nodes, double, std::uint64_t) {
         return make_path(checked_node_count("path", nodes, 2));
     }},
    {"complete", false,
     [](std::int64_t nodes, double, std::uint64_t) {
         const node_id n = checked_node_count("complete", nodes, 2);
         if (n > 8192)
             throw std::invalid_argument(
                 "topology complete: O(n^2) edges; refusing n > 8192");
         return make_complete(n);
     },
     [](std::int64_t nodes) {
         return complete_lambda(checked_node_count("complete", nodes, 2));
     }},
    {"star", false,
     [](std::int64_t nodes, double, std::uint64_t) {
         return make_star(checked_node_count("star", nodes, 2));
     }},
    {"random_regular", true,
     [](std::int64_t nodes, double param, std::uint64_t seed) {
         const node_id n = checked_node_count("random_regular", nodes, 4);
         auto degree = param > 0.5
                           ? static_cast<std::int32_t>(std::llround(param))
                           : std::max<std::int32_t>(
                                 2, static_cast<std::int32_t>(std::floor(
                                        std::log2(static_cast<double>(n)))));
         degree = std::min<std::int32_t>(degree, n - 1);
         if ((static_cast<std::int64_t>(n) * degree) % 2 != 0) ++degree;
         return make_random_regular_cm(n, degree, seed);
     }},
    {"erdos_renyi", true,
     [](std::int64_t nodes, double param, std::uint64_t seed) {
         const node_id n = checked_node_count("erdos_renyi", nodes, 2);
         const double p =
             param > 0.0
                 ? param
                 : std::min(1.0, 2.0 * std::log(static_cast<double>(n)) / n);
         return make_erdos_renyi(n, p, seed);
     }},
    {"rgg", true,
     [](std::int64_t nodes, double param, std::uint64_t seed) {
         const node_id n = checked_node_count("rgg", nodes, 2);
         const double radius = rgg_paper_radius(n, param > 0.0 ? param : 1.0);
         return make_random_geometric(n, radius, seed);
     }},
};

const topology_family* find_family(const std::string& name)
{
    for (const auto& family : kTopologyFamilies)
        if (name == family.name) return &family;
    return nullptr;
}

const topology_family& known_family(const std::string& name)
{
    const topology_family* entry = find_family(name);
    if (entry == nullptr)
        throw std::invalid_argument("unknown topology family '" + name + "'");
    return *entry;
}

} // namespace

bool topology_uses_seed(const std::string& family)
{
    const topology_family* entry = find_family(family);
    return entry == nullptr || entry->uses_seed; // unknown: conservative
}

const std::vector<std::string>& topology_names()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto& family : kTopologyFamilies) out.push_back(family.name);
        return out;
    }();
    return names;
}

graph build_topology(const std::string& family, std::int64_t nodes,
                     double param, std::uint64_t seed)
{
    return known_family(family).build(nodes, param, seed);
}

std::optional<double> closed_form_lambda(const std::string& family,
                                         std::int64_t nodes)
{
    const topology_family& entry = known_family(family);
    if (entry.lambda == nullptr) return std::nullopt;
    return entry.lambda(nodes);
}

const std::vector<std::string>& load_pattern_names()
{
    static const std::vector<std::string> names = {
        "point",   "balanced", "random",
        "wavefront", "bimodal",  "adversarial_corner",
    };
    return names;
}

namespace {

void check_load_inputs(const std::string& pattern, std::int64_t n,
                       std::int64_t tokens_per_node)
{
    if (n <= 0) throw std::invalid_argument("initial load: empty graph");
    if (tokens_per_node < 0)
        throw std::invalid_argument("initial load: negative tokens_per_node");
    // The patterns count up to 2 * tokens_per_node * n tokens in int64 (the
    // random draws, the wavefront ramp).
    if (tokens_per_node > std::numeric_limits<std::int64_t>::max() / (2 * n))
        throw std::invalid_argument(
            "initial load: tokens_per_node " + std::to_string(tokens_per_node) +
            " is too large for " + std::to_string(n) +
            " nodes (2 * tokens_per_node * nodes must fit in 64 bits)");
    const auto& names = load_pattern_names();
    if (std::find(names.begin(), names.end(), pattern) == names.end())
        throw std::invalid_argument("unknown load pattern '" + pattern + "'");
}

/// Writes the named pattern over out.size() nodes into `out`, whose inputs
/// check_load_inputs has accepted.
template <class Load>
void fill_initial_load(const std::string& pattern, std::span<Load> out,
                       std::int64_t tokens_per_node, std::uint64_t seed)
{
    const auto n = static_cast<node_id>(out.size());
    const std::int64_t total = tokens_per_node * static_cast<std::int64_t>(n);
    // Every count is computed in int64 and cast as it is stored.
    const auto store = [&](node_id v, std::int64_t count) {
        out[static_cast<std::size_t>(v)] = static_cast<Load>(count);
    };

    if (pattern == "point") {
        std::fill(out.begin(), out.end(), Load{0});
        store(0, total);
    } else if (pattern == "balanced") {
        std::fill(out.begin(), out.end(), static_cast<Load>(tokens_per_node));
    } else if (pattern == "random") {
        // Independent per-node loads in [0, 2*tokens_per_node], drawn from
        // the (seed, node=0x4a11, round=0) counter substream, then an exact
        // total correction (multinomial random_load is O(total) and therefore
        // unusable at campaign scale): node 0 takes a shortfall, and an
        // excess comes off the lowest-index nodes. The correction draws
        // those nodes' loads again from the substream's start.
        const auto width = static_cast<std::uint64_t>(2 * tokens_per_node + 1);
        std::int64_t residual = total;
        counter_rng rng(seed, 0x4a11u, 0);
        for (node_id v = 0; v < n; ++v) {
            const auto draw = static_cast<std::int64_t>(rng.next_below(width));
            residual -= draw;
            store(v, draw);
        }
        counter_rng again(seed, 0x4a11u, 0);
        for (node_id v = 0; v < n && residual != 0; ++v) {
            const auto draw = static_cast<std::int64_t>(again.next_below(width));
            // Negative at node 0 when it takes a shortfall.
            const std::int64_t take = std::min(draw, -residual);
            store(v, draw - take);
            residual += take;
        }
    } else if (pattern == "wavefront") {
        // Linear ramp: node 0 carries ~2*tokens_per_node, the last node 0.
        if (n == 1) {
            store(0, total);
            return;
        }
        std::int64_t assigned = 0;
        for (node_id v = 0; v < n; ++v) {
            const std::int64_t count = 2 * tokens_per_node * (n - 1 - v) / (n - 1);
            store(v, count);
            assigned += count;
        }
        // Node 0's ramp value is 2 * tokens_per_node; it takes the rest too.
        store(0, 2 * tokens_per_node + (total - assigned));
    } else if (pattern == "bimodal") {
        // A seed-chosen half of the nodes shares all load evenly. The
        // membership coin is draw 0 of the node's (seed, node, 0) substream;
        // the first pass marks the members 1, the second gives them `per`.
        std::int64_t members = 0;
        node_id first = 0;
        for (node_id v = 0; v < n; ++v) {
            const bool member = to_unit_double(draw_u64(
                                    seed, static_cast<std::uint64_t>(v), 0, 0)) < 0.5;
            if (member && members++ == 0) first = v;
            store(v, member ? 1 : 0);
        }
        if (members == 0) members = 1; // node 0 (first) holds it all
        const std::int64_t per = total / members;
        for (node_id v = 0; v < n; ++v)
            store(v, out[static_cast<std::size_t>(v)] != Load{0} ? per : 0);
        store(first, per + (total - per * members));
    } else if (pattern == "adversarial_corner") {
        // All load on the ~sqrt(n) lowest-index nodes: a corner patch in the
        // row-major torus/grid layouts, the slowest spot diffusion can face.
        const auto corner = static_cast<node_id>(std::min<std::int64_t>(
            n, static_cast<std::int64_t>(
                   std::ceil(std::sqrt(static_cast<double>(n))))));
        const std::int64_t per = total / corner;
        for (node_id v = 0; v < n; ++v) store(v, v < corner ? per : 0);
        store(0, per + (total - per * corner));
    }
}

} // namespace

std::vector<std::int64_t> build_initial_load(const std::string& pattern,
                                             node_id n,
                                             std::int64_t tokens_per_node,
                                             std::uint64_t seed)
{
    check_load_inputs(pattern, n, tokens_per_node);
    std::vector<std::int64_t> load(static_cast<std::size_t>(n));
    fill_initial_load(pattern, std::span<std::int64_t>(load), tokens_per_node,
                      seed);
    return load;
}

load_fill initial_load_fill(const std::string& pattern, node_id n,
                            std::int64_t tokens_per_node, std::uint64_t seed)
{
    check_load_inputs(pattern, n, tokens_per_node);
    return {static_cast<std::size_t>(n),
            [pattern, tokens_per_node, seed](auto out) {
                fill_initial_load(pattern, out, tokens_per_node, seed);
            }};
}

namespace {

template <class T, std::size_t N>
std::vector<std::string> names_of(const named_value<T> (&table)[N])
{
    std::vector<std::string> names;
    for (const auto& entry : table) names.emplace_back(entry.name);
    return names;
}

} // namespace

const std::vector<std::string>* field_choices(const std::string& field)
{
    static const std::map<std::string, std::vector<std::string>> choices = {
        {"topology", topology_names()},
        {"load", load_pattern_names()},
        {"workload", workload_names()},
        {"alpha", names_of(kAlphaNames)},
        {"speeds", names_of(kSpeedNames)},
        {"scheme", names_of(kSchemeNames)},
        {"process", names_of(kProcessNames)},
        {"rounding", names_of(kRoundingNames)},
        {"policy", names_of(kPolicyNames)},
        {"switch", names_of(kSwitchNames)},
    };
    const auto it = choices.find(field);
    return it == choices.end() ? nullptr : &it->second;
}

} // namespace dlb::campaign
