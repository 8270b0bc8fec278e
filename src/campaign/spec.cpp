#include "campaign/spec.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "campaign/registry.hpp"
#include "util/csv.hpp" // format_double
#include "util/parse.hpp"

namespace dlb::campaign {

namespace {

std::string trim(const std::string& text)
{
    const auto begin = text.find_first_not_of(" \t\r\n");
    if (begin == std::string::npos) return {};
    const auto end = text.find_last_not_of(" \t\r\n");
    return text.substr(begin, end - begin + 1);
}

// Shared full-token parsers (util/parse.hpp) with spec-flavored context.

std::int64_t parse_int(const std::string& key, const std::string& value)
{
    return parse_full_int64(value, "spec: bad integer for " + key);
}

std::uint64_t parse_uint(const std::string& key, const std::string& value)
{
    return parse_full_uint64(value, "spec: bad unsigned for " + key);
}

double parse_double(const std::string& key, const std::string& value)
{
    return parse_full_double(value, "spec: bad number for " + key);
}

std::int64_t parse_int_at_least(const std::string& key,
                                const std::string& value, std::int64_t minimum)
{
    const std::int64_t parsed = parse_int(key, value);
    if (parsed < minimum)
        throw std::invalid_argument("spec: " + key + " must be >= " +
                                    std::to_string(minimum) + ", got " + value);
    return parsed;
}

// An enumerated field accepts exactly the names its resolver maps
// (registry.hpp: field_choices), so a typo fails at load time instead of
// as an error row after the sweep has started.
void check_choice(const std::string& key, const std::string& value)
{
    const std::vector<std::string>* choices = field_choices(key);
    if (choices == nullptr ||
        std::find(choices->begin(), choices->end(), value) != choices->end())
        return;
    std::string accepted;
    for (const std::string& name : *choices)
        accepted += (accepted.empty() ? "" : ", ") + name;
    throw std::invalid_argument("spec: unknown " + key + " '" + value +
                                "' (one of: " + accepted + ")");
}

} // namespace

const std::vector<std::string>& field_names()
{
    static const std::vector<std::string> names = {
        "topology",      "nodes",           "topology_param",
        "alpha",         "alpha_gamma",     "speeds",
        "speed_value",   "speed_shape",     "scheme",
        "beta",          "process",         "rounding",
        "policy",        "switch",          "switch_value",
        "load",          "tokens_per_node", "workload",
        "workload_rate", "workload_amount", "workload_period",
        "seed",          "rounds",
    };
    return names;
}

void set_field(scenario_spec& spec, const std::string& key,
               const std::string& value)
{
    check_choice(key, value);
    if (key == "topology") spec.topology = value;
    else if (key == "nodes") spec.nodes = parse_int_at_least(key, value, 1);
    else if (key == "topology_param") {
        // Reject NaN/inf eagerly: a non-finite param corrupts the ordered
        // graph/lambda cache keys and no topology family accepts one.
        const double parsed = parse_double(key, value);
        if (!std::isfinite(parsed))
            throw std::invalid_argument(
                "spec: topology_param must be finite, got '" + value + "'");
        spec.topology_param = parsed;
    }
    else if (key == "alpha") spec.alpha = value;
    else if (key == "alpha_gamma") spec.alpha_gamma = parse_double(key, value);
    else if (key == "speeds") spec.speeds = value;
    else if (key == "speed_value") spec.speed_value = parse_double(key, value);
    else if (key == "speed_shape") spec.speed_shape = parse_double(key, value);
    else if (key == "scheme") spec.scheme = value;
    else if (key == "beta") spec.beta = parse_double(key, value);
    else if (key == "process") spec.process = value;
    else if (key == "rounding") spec.rounding = value;
    else if (key == "policy") spec.policy = value;
    else if (key == "switch") spec.switch_mode = value;
    else if (key == "switch_value") spec.switch_value = parse_double(key, value);
    else if (key == "load") spec.load_pattern = value;
    else if (key == "tokens_per_node")
        spec.tokens_per_node = parse_int_at_least(key, value, 0);
    else if (key == "workload") spec.workload = value;
    else if (key == "workload_rate") {
        const double parsed = parse_double(key, value);
        if (!(parsed >= 0.0)) // NaN too
            throw std::invalid_argument(
                "spec: workload_rate must be >= 0, got " + value);
        spec.workload_rate = parsed;
    } else if (key == "workload_amount")
        spec.workload_amount = parse_int_at_least(key, value, 0);
    // No floor here: 0 is the default (set_field must round-trip every
    // default), and burst rejects a period below 1 when it resolves.
    else if (key == "workload_period")
        spec.workload_period = parse_int(key, value);
    else if (key == "seed") spec.seed = parse_uint(key, value);
    else if (key == "rounds") spec.rounds = parse_int_at_least(key, value, 0);
    else
        throw std::invalid_argument("spec: unknown field '" + key + "'");
}

void validate_fields(const scenario_spec& spec)
{
    scenario_spec probe;
    for (const std::string& field : field_names())
        set_field(probe, field, get_field(spec, field));
}

std::string get_field(const scenario_spec& spec, const std::string& key)
{
    if (key == "topology") return spec.topology;
    if (key == "nodes") return std::to_string(spec.nodes);
    if (key == "topology_param") return format_double(spec.topology_param);
    if (key == "alpha") return spec.alpha;
    if (key == "alpha_gamma") return format_double(spec.alpha_gamma);
    if (key == "speeds") return spec.speeds;
    if (key == "speed_value") return format_double(spec.speed_value);
    if (key == "speed_shape") return format_double(spec.speed_shape);
    if (key == "scheme") return spec.scheme;
    if (key == "beta") return format_double(spec.beta);
    if (key == "process") return spec.process;
    if (key == "rounding") return spec.rounding;
    if (key == "policy") return spec.policy;
    if (key == "switch") return spec.switch_mode;
    if (key == "switch_value") return format_double(spec.switch_value);
    if (key == "load") return spec.load_pattern;
    if (key == "tokens_per_node") return std::to_string(spec.tokens_per_node);
    if (key == "workload") return spec.workload;
    if (key == "workload_rate") return format_double(spec.workload_rate);
    if (key == "workload_amount") return std::to_string(spec.workload_amount);
    if (key == "workload_period") return std::to_string(spec.workload_period);
    if (key == "seed") return std::to_string(spec.seed);
    if (key == "rounds") return std::to_string(spec.rounds);
    throw std::invalid_argument("spec: unknown field '" + key + "'");
}

std::string scenario_label(const scenario_spec& spec)
{
    std::string label = spec.topology + "-n" + std::to_string(spec.nodes) + "-" +
                        spec.scheme + "-" + spec.rounding;
    if (spec.process != "discrete") label += "-" + spec.process;
    if (spec.load_pattern != "point") label += "-" + spec.load_pattern;
    if (spec.workload != "static") label += "-" + spec.workload;
    if (spec.switch_mode != "never") label += "-sw_" + spec.switch_mode;
    label += "-s" + std::to_string(spec.seed);
    return label;
}

std::int64_t campaign_spec::expected_count() const
{
    std::int64_t count = 1;
    for (const auto& [key, values] : axes) {
        if (values.empty())
            throw std::invalid_argument("campaign: empty sweep axis '" + key + "'");
        count *= static_cast<std::int64_t>(values.size());
        if (count > 1000000)
            throw std::invalid_argument("campaign: sweep axis '" + key +
                                        "' takes the expansion past 1e6 "
                                        "scenarios");
    }
    return count;
}

std::vector<scenario_spec> expand(const campaign_spec& spec)
{
    const std::int64_t count = spec.expected_count();

    // Check every axis value up front so a typo fails before any work.
    // Repeats compare canonical forms, so "1.5, 1.50" is caught too.
    for (const auto& [key, values] : spec.axes) {
        scenario_spec probe;
        std::set<std::string> seen;
        for (const std::string& value : values) {
            set_field(probe, key, value);
            if (!seen.insert(get_field(probe, key)).second)
                throw std::invalid_argument("campaign: sweep axis '" + key +
                                            "' repeats '" +
                                            get_field(probe, key) + "'");
        }
    }

    std::vector<scenario_spec> out;
    out.reserve(static_cast<std::size_t>(count));

    std::vector<const std::pair<const std::string, std::vector<std::string>>*>
        axes;
    axes.reserve(spec.axes.size());
    for (const auto& axis : spec.axes) axes.push_back(&axis);

    std::vector<std::size_t> index(axes.size(), 0);
    for (;;) {
        scenario_spec scenario = spec.base;
        for (std::size_t a = 0; a < axes.size(); ++a)
            set_field(scenario, axes[a]->first, axes[a]->second[index[a]]);
        out.push_back(std::move(scenario));

        // Odometer increment, last axis fastest.
        std::size_t a = axes.size();
        while (a > 0) {
            if (++index[a - 1] < axes[a - 1]->second.size()) break;
            index[a - 1] = 0;
            --a;
        }
        if (a == 0) break;
    }
    return out;
}

std::uint64_t spec_hash(const campaign_spec& spec)
{
    // FNV-1a over the canonical serialization. Field separators ('\x1f' unit
    // separator between tokens, '\x1e' between sections) keep adjacent
    // values from colliding ("ab"+"c" vs "a"+"bc").
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    const auto feed = [&hash](const std::string& text) {
        for (const unsigned char c : text) {
            hash ^= c;
            hash *= 0x100000001b3ULL;
        }
        hash ^= 0x1f;
        hash *= 0x100000001b3ULL;
    };
    const auto section = [&hash] {
        hash ^= 0x1e;
        hash *= 0x100000001b3ULL;
    };

    feed(spec.name);
    section();
    for (const std::string& field : field_names())
        feed(get_field(spec.base, field));
    section();
    for (const auto& [key, values] : spec.axes) {
        feed(key);
        for (const std::string& value : values) feed(value);
        section();
    }
    return hash;
}

std::string hex64(std::uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

std::vector<std::string> split_list(const std::string& csv)
{
    std::vector<std::string> out;
    std::string::size_type begin = 0;
    while (begin <= csv.size()) {
        const auto comma = csv.find(',', begin);
        const auto end = comma == std::string::npos ? csv.size() : comma;
        const std::string item = trim(csv.substr(begin, end - begin));
        if (!item.empty()) out.push_back(item);
        if (comma == std::string::npos) break;
        begin = comma + 1;
    }
    return out;
}

shard_part parse_shard(const std::string& text)
{
    // Every failure names the --shard flag (the PR 5 full-token parsing
    // contract): a bad token in a long launch script should point straight
    // at the argument to fix, not at an internal key.
    const auto slash = text.find('/');
    if (slash == std::string::npos || slash == 0 || slash + 1 == text.size())
        throw std::invalid_argument("--shard: expected i/N, got '" + text +
                                    "'");
    shard_part shard;
    shard.index = parse_full_int64(trim(text.substr(0, slash)),
                                   "--shard: bad index in '" + text + "'");
    shard.count = parse_full_int64(trim(text.substr(slash + 1)),
                                   "--shard: bad count in '" + text + "'");
    if (shard.count < 1)
        throw std::invalid_argument("--shard: count must be >= 1, got '" +
                                    text + "'");
    if (shard.index < 0 || shard.index >= shard.count)
        throw std::invalid_argument(
            "--shard: index " + std::to_string(shard.index) +
            " out of range for count " + std::to_string(shard.count));
    return shard;
}

campaign_spec read_campaign_keys(campaign_spec spec,
                                 const std::vector<campaign_key>& keys)
{
    std::map<std::string, std::string> source_of; // key -> where it was read
    std::int64_t seed_count = 0; // applied last, so a later seed key counts
    for (const auto& [key, value, source] : keys) {
        try {
            // A repeated key or axis would silently let the later one win.
            const auto [first, fresh] = source_of.emplace(key, source);
            if (!fresh)
                throw std::invalid_argument("'" + key + "' already set on " +
                                            first->second);
            if (key == "name") {
                if (value.empty())
                    throw std::invalid_argument("empty campaign name");
                spec.name = value;
            } else if (key.rfind("sweep.", 0) == 0) {
                auto values = split_list(value);
                if (values.empty())
                    throw std::invalid_argument("empty sweep list for '" +
                                                key + "'");
                spec.axes[key.substr(6)] = std::move(values);
            } else if (key == "seeds") {
                seed_count = parse_int(key, value);
                if (seed_count < 1)
                    throw std::invalid_argument("seeds must be >= 1, got " +
                                                value);
            } else {
                set_field(spec.base, key, value);
            }
        } catch (const std::invalid_argument& bad) {
            throw std::invalid_argument(source + ": " + bad.what());
        }
    }
    if (seed_count > 0) {
        if (source_of.count("sweep.seed") > 0)
            throw std::invalid_argument(
                source_of.at("seeds") + ": 'seeds' and 'sweep.seed' (" +
                source_of.at("sweep.seed") + ") both define the seed axis");
        std::vector<std::string> values;
        values.reserve(static_cast<std::size_t>(seed_count));
        for (std::int64_t s = 0; s < seed_count; ++s)
            values.push_back(
                std::to_string(spec.base.seed + static_cast<std::uint64_t>(s)));
        spec.axes["seed"] = std::move(values);
    }
    return spec;
}

campaign_spec parse_campaign(std::istream& in)
{
    std::vector<campaign_key> keys;
    std::string line;
    int line_number = 0;
    try {
        while (std::getline(in, line)) {
            const std::string where = "line " + std::to_string(++line_number);
            const auto comment = line.find('#');
            if (comment != std::string::npos) line.resize(comment);
            const std::string text = trim(line);
            if (text.empty()) continue;
            const auto eq = text.find('=');
            if (eq == std::string::npos)
                throw std::invalid_argument(where + ": expected key = value");
            const std::string key = trim(text.substr(0, eq));
            if (key.empty())
                throw std::invalid_argument(where + ": empty key before '='");
            keys.push_back({key, trim(text.substr(eq + 1)), where});
        }
        return read_campaign_keys({}, keys);
    } catch (const std::invalid_argument& bad) {
        throw std::invalid_argument(std::string("campaign file ") + bad.what());
    }
}

campaign_spec parse_campaign_file(const std::string& path)
{
    std::ifstream in(path);
    if (!in) throw std::runtime_error("campaign: cannot open spec file " + path);
    return parse_campaign(in);
}

} // namespace dlb::campaign
