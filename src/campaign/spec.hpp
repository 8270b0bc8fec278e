// Declarative scenario and campaign specifications.
//
// A scenario_spec names one cell of the paper's Section VI evaluation grid —
// topology x scheme x rounding x speed profile x initial load x workload x
// seed — entirely as strings and numbers, so experiment grids are data
// instead of hand-written bench binaries. A campaign_spec is a base scenario
// plus sweep axes; expand() produces the Cartesian product.
//
// The same field vocabulary drives three surfaces: key=value spec files,
// dlb_campaign CLI flags, and sweep axis definitions.
#ifndef DLB_CAMPAIGN_SPEC_HPP
#define DLB_CAMPAIGN_SPEC_HPP

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace dlb::campaign {

/// One experiment, fully described by value. String fields name entries in
/// the scenario registry (campaign/registry). set_field validates every
/// value as it is set; a spec built in code is checked the same way when
/// the executor resolves it (validate_fields).
struct scenario_spec {
    // Topology (registry families; `nodes` is a target some families round
    // to the nearest realizable size, e.g. torus -> square side).
    std::string topology = "torus";
    std::int64_t nodes = 1024;
    double topology_param = 0.0; // family knob: degree (random_regular),
                                 // p (erdos_renyi), radius factor (rgg)

    // Diffusion parameters.
    std::string alpha = "max_degree_plus_one"; // | uniform_gamma_d
    double alpha_gamma = 2.0;                  // uniform_gamma_d only
    std::string speeds = "uniform";            // | bimodal | zipf
    double speed_value = 0.0; // bimodal: fast speed; zipf: s_max (0: default)
    double speed_shape = 0.0; // bimodal: fast fraction; zipf: exponent

    // Scheme and engine.
    std::string scheme = "sos";          // fos | sos | chebyshev
    double beta = 0.0;                   // <= 0: beta_opt(lambda), computed
    std::string process = "discrete";    // | continuous | cumulative
    std::string rounding = "randomized"; // | floor | nearest | bernoulli_edge
    std::string policy = "allow";        // | prevent (negative-load clipping)

    // SOS -> FOS hybrid switching.
    std::string switch_mode = "never"; // | at_round | local | global
    double switch_value = 0.0;         // round index or threshold

    // Initial load (registry patterns).
    std::string load_pattern = "point"; // | balanced | random | wavefront
                                        // | bimodal | adversarial_corner
    std::int64_t tokens_per_node = 1000;

    // Dynamic workload (campaign/workload models).
    std::string workload = "static"; // | poisson | burst | drain
    double workload_rate = 0.0;      // poisson/drain: tokens per round
    std::int64_t workload_amount = 0; // burst: tokens per burst
    std::int64_t workload_period = 0; // burst: rounds between bursts

    std::uint64_t seed = 1;
    std::int64_t rounds = 1000;
};

/// Every settable field name, in canonical order (also the reporting order).
const std::vector<std::string>& field_names();

/// Sets one field from its string form ("topology", "nodes", "scheme", ...).
/// Throws std::invalid_argument, naming the field, on an unknown key, an
/// unparseable number, a name outside the field's registry list
/// (field_choices), nodes < 1, a negative rounds, tokens_per_node,
/// workload_amount or workload_rate, or a non-finite topology_param.
void set_field(scenario_spec& spec, const std::string& key,
               const std::string& value);

/// Applies set_field's checks to every field of `spec`, for specs built in
/// code rather than parsed. Throws like set_field.
void validate_fields(const scenario_spec& spec);

/// The current string form of one field (inverse of set_field).
std::string get_field(const scenario_spec& spec, const std::string& key);

/// Compact human-readable tag, e.g. "torus-n1024-sos-randomized-point-s1".
/// Not guaranteed unique across every axis; pair with the scenario index.
std::string scenario_label(const scenario_spec& spec);

/// A base scenario plus Cartesian sweep axes (field name -> values). Axes
/// iterate in key-sorted order with the last key varying fastest, so
/// expansion order is deterministic for a given spec.
struct campaign_spec {
    std::string name = "campaign";
    scenario_spec base;
    std::map<std::string, std::vector<std::string>> axes;

    /// Product of axis sizes (1 when there are no axes).
    std::int64_t expected_count() const;
};

/// Expands the sweep into a concrete scenario list. Throws
/// std::invalid_argument on an empty axis, an unknown axis field, a value
/// set_field rejects, a value repeated within one axis, or an expansion
/// above 1e6 scenarios.
std::vector<scenario_spec> expand(const campaign_spec& spec);

/// Stable FNV-1a hash over the campaign's canonical serialization (name,
/// every base field in field_names() order via get_field, every axis in
/// key-sorted order). Two invocations agree on the hash iff they expanded
/// the same spec, which is what run manifests check when `--merge`
/// reassembles shards: equal spec_hash ⇒ identical expansion on every
/// shard. Formatting-only differences in the spec *file* (comments,
/// whitespace) do not change the hash; any field difference does.
std::uint64_t spec_hash(const campaign_spec& spec);

/// `value` as 16 zero-padded lowercase hex digits: how a spec_hash is spelled
/// in run manifests, the queue meta file and every mismatch message.
std::string hex64(std::uint64_t value);

/// Splits a comma-separated sweep value list, trimming whitespace.
std::vector<std::string> split_list(const std::string& csv);

/// A process-level shard assignment: this invocation owns shard `index` of
/// `count`'s share of the expansion, as assigned by the greedy LPT
/// partitioner (cost_model.hpp). 0/1 means "everything".
struct shard_part {
    std::int64_t index = 0;
    std::int64_t count = 1;
};

/// Parses the "i/N" shard notation (0 <= i < N, N >= 1). Throws
/// std::invalid_argument on malformed input.
shard_part parse_shard(const std::string& text);

/// One campaign key as a spec file line or a dlb_campaign flag gives it;
/// `source` names it in messages ("line 3", "--nodes").
struct campaign_key {
    std::string key;
    std::string value;
    std::string source;
};

/// Applies `keys` in order to `spec` (the defaults, or a loaded spec file
/// whose keys they override one by one): `name`, `seeds`, `sweep.<field>`
/// and the fields. `seeds = N` becomes a seed axis over base.seed ..
/// base.seed + N - 1 once every key is read. Throws std::invalid_argument,
/// prefixed with the key's source, on a key given twice, an empty name or
/// sweep list, seeds < 1, `seeds` next to `sweep.seed` (naming both) or any
/// value set_field rejects.
campaign_spec read_campaign_keys(campaign_spec spec,
                                 const std::vector<campaign_key>& keys);

/// Parses the key=value campaign file format, one key per line:
///   # comment
///   name = demo
///   nodes = 1024
///   sweep.topology = torus, hypercube
///   seeds = 4            # shorthand: sweep seed over base..base+3
/// Throws std::invalid_argument naming the line on a malformed line or
/// anything read_campaign_keys rejects. Axis values are checked by expand().
campaign_spec parse_campaign(std::istream& in);
campaign_spec parse_campaign_file(const std::string& path);

} // namespace dlb::campaign

#endif // DLB_CAMPAIGN_SPEC_HPP
