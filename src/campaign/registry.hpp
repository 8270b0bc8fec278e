// Named builders for every topology family and initial-load pattern a
// scenario_spec can reference, and the name tables of its other enumerated
// fields: the one list per field that set_field validates against and the
// executor resolves from.
//
// Topologies cover the paper's Table I families (torus, hypercube, random
// regular via the configuration model, random geometric) plus the standard
// fixtures the wider sweep literature uses (grid, star, path, complete,
// cycle, Erdos-Renyi — cf. Sauerwald & Sun, "Tight Bounds for Randomized
// Load Balancing on Arbitrary Network Topologies").
//
// All builders are deterministic in (spec, seed); load patterns always
// return exactly tokens_per_node * n tokens so conservation bookkeeping
// stays exact.
#ifndef DLB_CAMPAIGN_REGISTRY_HPP
#define DLB_CAMPAIGN_REGISTRY_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/alpha.hpp"
#include "core/hybrid.hpp"
#include "core/process.hpp"
#include "core/rounding.hpp"
#include "core/scheme.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace dlb::campaign {

/// Registered topology family names.
const std::vector<std::string>& topology_names();

/// The derived seed the campaign executor hands build_topology for a
/// scenario with master seed `scenario_seed`; exposed so callers can
/// rebuild a scenario's exact graph instance (e.g. to precompute lambda).
std::uint64_t topology_seed(std::uint64_t scenario_seed);

/// True when the family's construction consumes the seed (random_regular,
/// erdos_renyi, rgg). Seed-independent families build the same graph for
/// every seed, so caches can share one instance across a whole seed sweep.
/// Unknown names return true (the conservative answer; build_topology is
/// what rejects them).
bool topology_uses_seed(const std::string& family);

/// Builds the named family with approximately `nodes` nodes. Families with
/// structural constraints round to the nearest realizable size (torus/grid:
/// square side; hypercube: power of two). `param` is the family knob
/// documented in scenario_spec::topology_param; 0 picks the family default.
/// Throws std::invalid_argument on unknown names or impossible sizes.
graph build_topology(const std::string& family, std::int64_t nodes,
                     double param, std::uint64_t seed);

/// lambda (second-largest eigenvalue magnitude of M) of the graph
/// build_topology(family, nodes, ...) builds, in closed form
/// (linalg/spectra.hpp), for alpha max_degree_plus_one and uniform speeds;
/// nullopt for a family without one. Sizes round exactly as the family's
/// builder rounds them. Throws std::invalid_argument on unknown names.
std::optional<double> closed_form_lambda(const std::string& family,
                                         std::int64_t nodes);

/// Registered initial-load pattern names.
const std::vector<std::string>& load_pattern_names();

/// Builds the named pattern over n nodes with exactly tokens_per_node * n
/// total tokens. Patterns:
///   point              — everything on node 0 (the paper's default)
///   balanced           — tokens_per_node everywhere
///   random             — independent uniform loads, total corrected exactly
///   wavefront          — linear ramp from 2*tokens_per_node down to 0
///   bimodal            — a random half of the nodes holds all load
///   adversarial_corner — all load on the ~sqrt(n) lowest-index nodes (a
///                        corner patch in row-major grid/torus layouts)
/// `version` selects the stream format for the randomized patterns
/// (random, bimodal); the deterministic patterns ignore it.
std::vector<std::int64_t> build_initial_load(const std::string& pattern,
                                             node_id n,
                                             std::int64_t tokens_per_node,
                                             std::uint64_t seed,
                                             rng_version version = default_rng_version);

/// One accepted value of an enumerated scenario field and what the executor
/// resolves it to.
template <class T>
struct named_value {
    std::string_view name;
    T value;
};

/// scenario_spec::speeds profiles.
enum class speed_kind { uniform, bimodal, zipf };

// The enumerated fields the executor resolves without a registry builder
// (campaign_executor.cpp looks each value up in its table).
inline constexpr named_value<alpha_policy> kAlphaNames[] = {
    {"max_degree_plus_one", alpha_policy::max_degree_plus_one},
    {"uniform_gamma_d", alpha_policy::uniform_gamma_d},
};
inline constexpr named_value<speed_kind> kSpeedNames[] = {
    {"uniform", speed_kind::uniform},
    {"bimodal", speed_kind::bimodal},
    {"zipf", speed_kind::zipf},
};
inline constexpr named_value<scheme_kind> kSchemeNames[] = {
    {"fos", scheme_kind::fos},
    {"sos", scheme_kind::sos},
    {"chebyshev", scheme_kind::chebyshev},
};
inline constexpr named_value<process_kind> kProcessNames[] = {
    {"discrete", process_kind::discrete},
    {"continuous", process_kind::continuous},
    {"cumulative", process_kind::cumulative},
};
inline constexpr named_value<rounding_kind> kRoundingNames[] = {
    {"randomized", rounding_kind::randomized},
    {"floor", rounding_kind::floor},
    {"nearest", rounding_kind::nearest},
    {"bernoulli_edge", rounding_kind::bernoulli_edge},
};
inline constexpr named_value<negative_load_policy> kPolicyNames[] = {
    {"allow", negative_load_policy::allow},
    {"prevent", negative_load_policy::prevent},
};
inline constexpr named_value<switch_policy::trigger> kSwitchNames[] = {
    {"never", switch_policy::trigger::never},
    {"at_round", switch_policy::trigger::at_round},
    {"local", switch_policy::trigger::local_threshold},
    {"global", switch_policy::trigger::global_threshold},
};

/// The accepted values of an enumerated scenario field, or nullptr for a
/// numeric one: topology_names(), load_pattern_names() and workload_names()
/// for topology, load and workload, the names of the tables above for the
/// other seven. set_field accepts no other value.
const std::vector<std::string>* field_choices(const std::string& field);

} // namespace dlb::campaign

#endif // DLB_CAMPAIGN_REGISTRY_HPP
