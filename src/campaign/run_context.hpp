// What the two ways of running a campaign share: detail_run's static
// partition (campaign_executor.cpp) and run_queue_campaign's lease loop
// (orchestrator.cpp). Each keeps only how it picks the next scenario and
// what it does when one completes.
#ifndef DLB_CAMPAIGN_RUN_CONTEXT_HPP
#define DLB_CAMPAIGN_RUN_CONTEXT_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign_executor.hpp"
#include "obs/progress.hpp"
#include "sim/thread_pool.hpp"

namespace dlb::campaign {

/// Throws std::invalid_argument naming the option unless `options` compose.
/// The queue rows apply when queue_dir is set; `for_queue` is true for
/// run_queue_campaign, which needs queue_dir, and false for detail_run.
void check_campaign_options(const campaign_options& options, bool for_queue);

/// The campaign a resumed snapshot must come from.
struct snapshot_owner {
    std::uint64_t spec_hash = 0;
    std::int64_t first_index = 0; // the scenario index lies in
    std::int64_t end_index = 0;   // [first_index, end_index)
    std::int64_t record_every = 0;
};

/// Throws std::invalid_argument, starting with `context`, naming the first
/// of spec_hash, scenario index, rng_version and record_every on which
/// `snapshot` differs from `owner`. The runner's validate_resume checks
/// the engine-level fields.
void check_snapshot(const engine_checkpoint& snapshot,
                    const snapshot_owner& owner, const std::string& context);

/// The per-run state both paths build alike: output directories (with
/// the stale-temp sweep of the checkpoint directory), the graph cache and
/// its λ sidecar, the engine pool, the heartbeat meter, and each
/// scenario's checkpoint wiring.
struct run_context {
    /// `selected` (the indices this invocation may run) sizes the heartbeat
    /// ETA. A non-empty `sidecar` is loaded here, its entry count going to
    /// result.lambda_sidecar_loaded.
    run_context(const std::vector<scenario_spec>& scenarios,
                const std::vector<std::int64_t>& selected,
                const campaign_options& options, std::uint64_t spec_hash,
                std::int64_t record_every, std::string sidecar,
                campaign_result& result);

    /// Runs scenario `index` on a worker's `scratch`, resuming from `resume`
    /// when set.
    scenario_result run(std::int64_t index, engine_scratch& scratch,
                        const engine_checkpoint* resume = nullptr,
                        std::function<void(std::int64_t)> after_checkpoint = {});

    /// Saves the λ sidecar, if any. The scenarios stand whatever happens,
    /// so a failure lands in result.lambda_sidecar_error (and on the
    /// progress stream) instead of throwing.
    void save_sidecar(campaign_result& result);

    const std::vector<scenario_spec>& scenarios;
    const campaign_options& options;
    const std::uint64_t spec_hash;
    const std::int64_t record_every;
    const std::string sidecar_path;
    graph_cache cache;
    std::unique_ptr<thread_pool> engine_pool; // when engine_threads != 1
    std::optional<obs::progress_meter> meter; // when options.heartbeat is set
};

} // namespace dlb::campaign

#endif // DLB_CAMPAIGN_RUN_CONTEXT_HPP
