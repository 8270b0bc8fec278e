#include "campaign/graph_cache.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include <filesystem>

#include "campaign/registry.hpp"
#include "obs/obs.hpp"
#include "util/csv.hpp" // format_double
#include "util/tempfile.hpp"

namespace dlb::campaign {

namespace {

// Cache hit/miss counters mirrored into the metrics registry (the local
// atomics below stay authoritative for campaign_result's cache stats; these
// aggregate across every cache in the process for --metrics).
struct cache_obs {
    obs::counter& graph_hits = obs::registry_counter("graph_cache.graph_hits");
    obs::counter& graph_misses =
        obs::registry_counter("graph_cache.graph_misses");
    obs::counter& lambda_hits =
        obs::registry_counter("graph_cache.lambda_hits");
    obs::counter& lambda_misses =
        obs::registry_counter("graph_cache.lambda_misses");
};

cache_obs& cache_metrics()
{
    static cache_obs metrics;
    return metrics;
}

// Sidecar file format, one entry per line:
//
//   # dlb lambda sidecar v1
//   <lambda_cache_key>\t<format_double(lambda)>
//
// Keys are '|'-joined registry names and round-trip-formatted numbers —
// never tabs or newlines — so the last tab on a line splits key from
// value unambiguously. Comment lines start with '#'.
constexpr const char* kSidecarHeader = "# dlb lambda sidecar v1";

/// A value is plausible exactly when it is a finite second eigenvalue of a
/// diffusion matrix (|lambda| <= 1). Anything else on disk is corruption —
/// better to recompute than to poison beta_opt with garbage.
bool plausible_lambda(double value)
{
    return std::isfinite(value) && value >= -1.0 && value <= 1.0;
}

/// Best-effort parse of a sidecar stream: well-formed entries land in
/// `out`, everything else (bad header, truncated lines, malformed or
/// out-of-range values) is skipped silently. Tolerance is the contract —
/// the sidecar is a cache, and a damaged cache must cost recomputation,
/// never an error or a wrong lambda.
void parse_sidecar(std::istream& in, std::map<std::string, double>& out)
{
    std::string line;
    if (!std::getline(in, line) || line != kSidecarHeader) return;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        const auto tab = line.rfind('\t');
        if (tab == std::string::npos || tab == 0) continue;
        const std::string key = line.substr(0, tab);
        const char* first = line.data() + tab + 1;
        const char* last = line.data() + line.size();
        double value = 0.0;
        const auto [end, ec] = std::from_chars(first, last, value);
        if (ec != std::errc{} || end != last || !plausible_lambda(value))
            continue;
        out.emplace(key, value);
    }
}

std::map<std::string, double> read_sidecar(const std::string& path)
{
    std::map<std::string, double> entries;
    std::ifstream in(path);
    if (in) parse_sidecar(in, entries);
    return entries;
}

} // namespace

std::shared_ptr<const graph> graph_cache::get(const std::string& family,
                                              std::int64_t nodes, double param,
                                              std::uint64_t scenario_seed)
{
    // A NaN key has no place in an ordered map (NaN compares false against
    // everything, breaking strict weak ordering), and no family accepts it;
    // -0.0 folds onto +0.0 so the two spellings share one entry.
    if (!std::isfinite(param))
        throw std::invalid_argument(
            "graph cache: topology_param must be finite");
    param = normalized_param(param);

    // Seed-independent families share one entry across the whole seed axis.
    const std::uint64_t effective_seed =
        topology_uses_seed(family) ? topology_seed(scenario_seed) : 0;

    std::shared_ptr<graph_slot> slot;
    {
        const scoped_lock lock(mutex_);
        auto& entry = graphs_[graph_key{family, nodes, param, effective_seed}];
        if (entry == nullptr) entry = std::make_shared<graph_slot>();
        slot = entry;
    }

    bool built_here = false;
    std::call_once(slot->once, [&] {
        const obs::trace_span span("campaign", "graph.build");
        slot->built = std::make_shared<const graph>(
            build_topology(family, nodes, param, effective_seed));
        built_here = true;
    });
    if (built_here) {
        graph_misses_.fetch_add(1, std::memory_order_relaxed);
        cache_metrics().graph_misses.add(1);
    } else {
        graph_hits_.fetch_add(1, std::memory_order_relaxed);
        cache_metrics().graph_hits.add(1);
    }
    return slot->built;
}

double graph_cache::lambda(const std::string& key,
                           const std::function<double()>& compute)
{
    std::shared_ptr<lambda_slot> slot;
    {
        const scoped_lock lock(mutex_);
        auto& entry = lambdas_[key];
        if (entry == nullptr) entry = std::make_shared<lambda_slot>();
        slot = entry;
    }

    bool computed_here = false;
    std::call_once(slot->once, [&] {
        const obs::trace_span span("campaign", "lambda.compute");
        slot->value = compute();
        slot->ready.store(true, std::memory_order_release);
        computed_here = true;
    });
    if (computed_here) {
        lambda_misses_.fetch_add(1, std::memory_order_relaxed);
        cache_metrics().lambda_misses.add(1);
    } else {
        lambda_hits_.fetch_add(1, std::memory_order_relaxed);
        cache_metrics().lambda_hits.add(1);
    }
    return slot->value;
}

std::size_t graph_cache::load_lambda_sidecar(const std::string& path)
{
    // Crash-orphaned save temps (`<sidecar>.tmp.<dead pid>.<n>`) can never
    // shadow the sidecar — reads go to `path` only — but a killed shard
    // would otherwise leave one behind per interrupted save forever. Sweep
    // exactly this file's orphans; live pids (a co-running shard mid-save)
    // are never touched.
    const std::filesystem::path target(path);
    sweep_stale_temp_files(target.has_parent_path()
                               ? target.parent_path().string()
                               : std::string("."),
                           target.filename().string() + ".tmp.");

    const auto entries = read_sidecar(path);

    std::size_t loaded = 0;
    for (const auto& [key, value] : entries) {
        std::shared_ptr<lambda_slot> slot;
        {
            const scoped_lock lock(mutex_);
            auto& entry = lambdas_[key];
            if (entry == nullptr) entry = std::make_shared<lambda_slot>();
            slot = entry;
        }
        // Satisfy the slot's call_once with the loaded value; if the slot
        // was already computed (or loaded), the loader lambda never runs
        // and the in-cache value wins.
        std::call_once(slot->once, [&] {
            slot->value = value;
            slot->ready.store(true, std::memory_order_release);
            ++loaded;
        });
    }
    return loaded;
}

std::size_t graph_cache::save_lambda_sidecar(const std::string& path) const
{
    // Merge with the file's current (well-formed) contents so concurrent
    // shard processes accumulate entries instead of clobbering each other;
    // this cache's own values win on key collisions (equal keys encode
    // equal computations, so collisions carry equal values anyway).
    std::map<std::string, double> entries = read_sidecar(path);
    {
        const scoped_lock lock(mutex_);
        for (const auto& [key, slot] : lambdas_)
            if (slot->ready.load(std::memory_order_acquire))
                entries[key] = slot->value;
    }

    // Atomic save (util/tempfile.hpp): the destination path always holds
    // either the old or the new complete file, never a partial write, and
    // concurrently saving shard processes never share a temp file. Every
    // failure throws naming the path — a silently skipped save would
    // quietly degrade the warm cache back to recompute.
    std::ostringstream out;
    out << kSidecarHeader << "\n";
    for (const auto& [key, value] : entries)
        out << key << "\t" << format_double(value) << "\n";
    write_text_atomic(path, out.str(), "lambda sidecar");
    return entries.size();
}

graph_cache::cache_stats graph_cache::stats() const
{
    cache_stats out;
    out.graph_hits = graph_hits_.load(std::memory_order_relaxed);
    out.graph_misses = graph_misses_.load(std::memory_order_relaxed);
    out.lambda_hits = lambda_hits_.load(std::memory_order_relaxed);
    out.lambda_misses = lambda_misses_.load(std::memory_order_relaxed);
    return out;
}

} // namespace dlb::campaign
