#include "campaign/registry.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <stdexcept>

#include "campaign/workload.hpp"
#include "graph/generators.hpp"
#include "linalg/spectra.hpp"
#include "sim/initial_load.hpp"
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

std::vector<std::int64_t> build_initial_load(const std::string& pattern,
                                             node_id n,
                                             std::int64_t tokens_per_node,
                                             std::uint64_t seed)
{
    if (n <= 0) throw std::invalid_argument("initial load: empty graph");
    if (tokens_per_node < 0)
        throw std::invalid_argument("initial load: negative tokens_per_node");
    const std::int64_t total = tokens_per_node * static_cast<std::int64_t>(n);

    if (pattern == "point") return point_load(n, 0, total);
    if (pattern == "balanced") return balanced_load(n, tokens_per_node);

    if (pattern == "random") {
        // Independent per-node loads in [0, 2*tokens_per_node], drawn from
        // the (seed, node=0x4a11, round=0) counter substream, then an exact
        // total correction (multinomial random_load is O(total) and therefore
        // unusable at campaign scale).
        counter_rng rng(seed, 0x4a11u, 0);
        std::vector<std::int64_t> load =
            uniform_range_load(n, 0, 2 * tokens_per_node, rng);
        std::int64_t residual =
            total - std::accumulate(load.begin(), load.end(), std::int64_t{0});
        if (residual >= 0) {
            load[0] += residual;
        } else {
            for (node_id v = 0; v < n && residual < 0; ++v) {
                const std::int64_t take = std::min(load[v], -residual);
                load[v] -= take;
                residual += take;
            }
        }
        return load;
    }

    if (pattern == "wavefront") {
        // Linear ramp: node 0 carries ~2*tokens_per_node, the last node 0.
        std::vector<std::int64_t> load(static_cast<std::size_t>(n), 0);
        if (n == 1) {
            load[0] = total;
            return load;
        }
        std::int64_t assigned = 0;
        for (node_id v = 0; v < n; ++v) {
            load[v] = 2 * tokens_per_node * (n - 1 - v) / (n - 1);
            assigned += load[v];
        }
        load[0] += total - assigned;
        return load;
    }

    if (pattern == "bimodal") {
        // A seed-chosen half of the nodes shares all load evenly. The
        // membership coin is draw 0 of the node's (seed, node, 0) substream.
        std::vector<std::int64_t> load(static_cast<std::size_t>(n), 0);
        std::vector<node_id> high;
        for (node_id v = 0; v < n; ++v)
            if (to_unit_double(draw_u64(seed, static_cast<std::uint64_t>(v), 0,
                                        0)) < 0.5)
                high.push_back(v);
        if (high.empty()) high.push_back(0);
        const std::int64_t per =
            total / static_cast<std::int64_t>(high.size());
        for (const node_id v : high) load[v] = per;
        load[high.front()] +=
            total - per * static_cast<std::int64_t>(high.size());
        return load;
    }

    if (pattern == "adversarial_corner") {
        // All load on the ~sqrt(n) lowest-index nodes: a corner patch in the
        // row-major torus/grid layouts, the slowest spot diffusion can face.
        std::vector<std::int64_t> load(static_cast<std::size_t>(n), 0);
        const auto corner = static_cast<node_id>(std::min<std::int64_t>(
            n, static_cast<std::int64_t>(
                   std::ceil(std::sqrt(static_cast<double>(n))))));
        const std::int64_t per = total / corner;
        for (node_id v = 0; v < corner; ++v) load[v] = per;
        load[0] += total - per * corner;
        return load;
    }

    throw std::invalid_argument("unknown load pattern '" + pattern + "'");
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
