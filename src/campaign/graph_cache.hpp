// Shared topology resolution for campaign sweeps.
//
// A sweep over schemes, roundings, workloads or (for deterministic
// families) seeds re-describes the same topology thousands of times; a
// graph_cache resolves each distinct spec once and hands every scenario a
// shared_ptr to the same immutable graph. Expensive spectral work rides
// along: the second eigenvalue lambda is cached per (graph, alpha, speeds)
// so SOS/Chebyshev sweeps stop re-running Lanczos per scenario.
//
// Keys are exact build inputs — family, requested node count, family
// parameter, and the derived topology seed for seed-dependent families
// (seed-independent families key on 0, sharing across the whole seed axis)
// — so a cached graph is bit-identical to a cold build by construction.
//
// The cache is thread-safe: each entry is built exactly once under a
// per-entry std::call_once, so concurrent workers missing on the same key
// neither duplicate the build nor serialize unrelated builds behind one
// mutex. A builder that throws leaves the entry unbuilt (the next lookup
// retries and rethrows).
//
// Lambda entries additionally have a persistent tier: a sidecar file
// mapping lambda_cache_key strings to values, loaded at campaign start and
// written atomically (temp + rename) at campaign end, so each distinct
// topology pays Lanczos exactly once per machine — across shard processes
// and repeated invocations, not just within one campaign. Loads tolerate
// missing, corrupt and concurrently-rewritten files (malformed lines are
// skipped, never mis-read into wrong lambdas); saves merge with whatever
// the file holds at write time, so concurrent shards accumulate instead of
// clobbering each other.
#ifndef DLB_CAMPAIGN_GRAPH_CACHE_HPP
#define DLB_CAMPAIGN_GRAPH_CACHE_HPP

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex> // std::once_flag / std::call_once (per-entry builds)
#include <string>
#include <tuple>

#include "graph/graph.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace dlb::campaign {

/// Normalizes a topology family parameter before it enters a cache key
/// (the graph key and the lambda_cache_key string): collapses -0.0 onto
/// +0.0 so the two spellings of zero share one entry. Non-finite params
/// are rejected by the cache (a NaN key would corrupt map ordering) and by
/// spec validation before that.
inline double normalized_param(double param)
{
    return param == 0.0 ? 0.0 : param;
}

class graph_cache {
public:
    /// Resolves `family` with the exact inputs build_topology would get for
    /// a scenario with master seed `scenario_seed`, building on first use.
    /// The returned graph is immutable and shared; hold the shared_ptr for
    /// as long as engines reference it.
    std::shared_ptr<const graph> get(const std::string& family,
                                     std::int64_t nodes, double param,
                                     std::uint64_t scenario_seed);

    /// Cached lambda (second eigenvalue) lookup: computes via `compute` on
    /// first use of `key`, returns the stored value afterwards. `key` must
    /// encode every input of the computation (see lambda_cache_key in
    /// campaign_executor.cpp).
    double lambda(const std::string& key,
                  const std::function<double()>& compute);

    /// Loads a lambda sidecar file into the cache; subsequent lambda()
    /// calls on loaded keys count as hits and never run `compute`. Returns
    /// the number of entries loaded. A missing file loads nothing; corrupt
    /// or truncated lines are skipped (the affected keys simply recompute),
    /// and values that are not finite eigenvalue-range numbers are treated
    /// as corrupt — a damaged file degrades to recompute, never to wrong
    /// lambdas. Loaded entries never override values already in the cache.
    std::size_t load_lambda_sidecar(const std::string& path);

    /// Writes every computed/loaded lambda entry to the sidecar file,
    /// merged with whatever well-formed entries the file holds at write
    /// time (entries this cache owns win), via temp file + atomic rename —
    /// a reader or concurrent loader never observes a partial file. Returns
    /// the number of entries written. Throws std::runtime_error when the
    /// temp file cannot be created or renamed.
    std::size_t save_lambda_sidecar(const std::string& path) const;

    struct cache_stats {
        std::int64_t graph_hits = 0;
        std::int64_t graph_misses = 0;
        std::int64_t lambda_hits = 0;
        std::int64_t lambda_misses = 0;
    };
    cache_stats stats() const;

private:
    struct graph_slot {
        std::once_flag once;
        std::shared_ptr<const graph> built;
    };
    struct lambda_slot {
        std::once_flag once;
        std::atomic<bool> ready{false}; // set after `value` is stored, so
                                        // the sidecar writer can snapshot
                                        // completed entries without racing
                                        // in-flight call_once computes
        double value = 0.0;
    };

    using graph_key = std::tuple<std::string, std::int64_t, double, std::uint64_t>;

    // mutex_ guards only the slot maps; the slots themselves are built
    // under their own per-entry std::call_once (outside mutex_, so
    // concurrent builds of distinct keys never serialize) and are immutable
    // once the once_flag is satisfied.
    mutable mutex mutex_;
    std::map<graph_key, std::shared_ptr<graph_slot>> graphs_
        DLB_GUARDED_BY(mutex_);
    std::map<std::string, std::shared_ptr<lambda_slot>> lambdas_
        DLB_GUARDED_BY(mutex_);
    std::atomic<std::int64_t> graph_hits_{0};
    std::atomic<std::int64_t> graph_misses_{0};
    std::atomic<std::int64_t> lambda_hits_{0};
    std::atomic<std::int64_t> lambda_misses_{0};
};

} // namespace dlb::campaign

#endif // DLB_CAMPAIGN_GRAPH_CACHE_HPP
