// Parallel campaign execution.
//
// Expands a campaign_spec into scenarios and fans them out across the
// existing thread_pool, one experiment per task (workers pull scenario
// indices from a shared queue, so uneven scenario costs still balance).
// Parallelism sits at one level: scenarios fan out (`threads`), or, with
// `engine_threads` != 1, they run one at a time on parallel round kernels.
// Every result is a pure function of its spec, so campaign output is
// byte-identical for any worker count at either level.
#ifndef DLB_CAMPAIGN_CAMPAIGN_EXECUTOR_HPP
#define DLB_CAMPAIGN_CAMPAIGN_EXECUTOR_HPP

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/cost_model.hpp"
#include "campaign/graph_cache.hpp"
#include "campaign/spec.hpp"
#include "core/process.hpp"
#include "core/scratch.hpp"

namespace dlb {
struct engine_checkpoint; // core/checkpoint.hpp
}

namespace dlb::campaign {

/// How one campaign runs. Both execution paths first check that the
/// options compose (check_campaign_options, campaign/run_context.hpp) and
/// throw std::invalid_argument naming the option when they do not.
struct campaign_options {
    unsigned threads = 1;        // scenario fan-out workers; 0: hardware
    std::int64_t record_every = 0; // series sampling stride; 0: rounds/256
    std::ostream* progress = nullptr; // per-scenario completion lines
    /// When non-empty, each scenario's recorded time series is written to
    /// `<series_dir>/<index>_<label>.csv` (the per-round curves behind the
    /// paper figures; the summary reports only keep final values).
    std::string series_dir;
    /// In-engine round-kernel workers per scenario (0: hardware, 1: serial).
    /// Useful when a campaign is one large scenario rather than many small
    /// ones. Any value other than 1 forces the scenario fan-out serial, and
    /// results stay byte-identical either way.
    unsigned engine_threads = 1;

    /// Process-level sharding: this invocation runs only the scenarios the
    /// cost-balanced partitioner (cost_model.hpp: greedy LPT) assigns to
    /// shard_index of shard_count. Results keep their global indices, so
    /// shard CSV reports merge back into a byte-identical equivalent of the
    /// unsharded run (see merge_shard_csv). Default 0/1: run everything.
    std::int64_t shard_index = 0;
    std::int64_t shard_count = 1;

    /// Persistent lambda cache sidecar (graph_cache::load/save_lambda_
    /// sidecar): when non-empty, loaded into the campaign's graph cache
    /// before any scenario runs and rewritten (atomically, merged with
    /// concurrent updates) after the last one, so repeated invocations and
    /// co-running shard processes pay Lanczos once per distinct topology
    /// per machine. Missing or corrupt files degrade to recompute.
    std::string lambda_cache_path;

    /// Checkpointing (core/checkpoint.hpp): when checkpoint_every > 0, each
    /// scenario writes an atomic engine snapshot to
    /// `<checkpoint_dir>/<index>_<label>.ckpt` every N rounds. Snapshots
    /// carry the campaign's spec_hash and the scenario's global index, and
    /// checkpointing never changes the reports — the snapshot is pure output.
    std::int64_t checkpoint_every = 0;
    std::string checkpoint_dir;

    /// Lease-queue orchestration (campaign/orchestrator.hpp): when
    /// non-empty, this invocation becomes one worker on the shared queue
    /// directory instead of running a static partition; its workers resume
    /// from checkpoints themselves. The final result is the full merged
    /// campaign, byte-identical to an unsharded run.
    std::string queue_dir;
    /// Queue-mode heartbeat cadence: how often this worker touches its
    /// heartbeat file (and how long it idles between queue polls).
    double lease_heartbeat_seconds = 1.0;
    /// Queue-mode takeover threshold: a cross-host holder whose heartbeat
    /// mtime trails ours by more than this is treated as dead and its lease
    /// is re-assigned. Same-host holders are probed by pid instead, so
    /// kill-9 recovery does not wait on this.
    double lease_expiry_seconds = 30.0;

    /// Resume one scenario from a snapshot file of this campaign (spec hash,
    /// stride, the current stream; check_snapshot) in this shard's
    /// assignment: it continues from the saved round, byte-identical to the
    /// uninterrupted run, while every other scenario runs normally. Any
    /// mismatch throws, naming the field.
    std::string resume_path;

    /// Heartbeat stream (obs/progress.hpp): when non-null, a progress_meter
    /// prints one line per `heartbeat_seconds` with scenarios done, elapsed
    /// time, a cost-model ETA and the predicted-vs-actual residual spread.
    /// Pure observability — it writes only to this stream and reads only
    /// completion counts, so reports stay byte-identical.
    std::ostream* heartbeat = nullptr;
    double heartbeat_seconds = 10.0;
};

/// Summary of one executed scenario. When `error` is non-empty the scenario
/// threw during resolution or execution and the metric fields are unset.
struct scenario_result {
    scenario_spec spec;
    std::int64_t index = 0;
    std::string label;
    std::string error;

    // Resolved instance.
    std::int64_t nodes = 0;
    std::int64_t edges = 0;
    /// The series sampling stride this scenario ran with. Metrics like
    /// rounds_to_plateau are read off the recorded series, so the stride
    /// shapes the report; it is echoed per row and validated on shard
    /// merges (every shard must use the same stride).
    std::int64_t record_every = 0;
    double lambda = -1.0; // second eigenvalue; -1 when not needed/computed
    double beta = 0.0;    // effective relaxation parameter (FOS: 1)
    std::int64_t initial_total = 0;

    // Outcome metrics.
    double final_max_minus_average = 0.0;
    double final_max_local_difference = 0.0;
    double remaining_imbalance = 0.0;
    bool imbalance_converged = false;
    std::int64_t rounds_to_plateau = -1; // first recorded round at/below the
                                         // plateau level; -1: never converged
    std::int64_t switch_round = -1;
    negative_load_stats negative;
    std::int64_t total_injected = 0;
    std::int64_t total_drained = 0;
    bool conservation_ok = false; // token total matches modulo injection
    double wall_seconds = 0.0;    // nondeterministic; reports omit it unless
                                  // explicitly asked (see report options)
    /// The scheduler's scenario_cost(spec) prediction, echoed next to
    /// wall_seconds under --timing so cost-model calibration can regress
    /// predicted cost against measured time. Deterministic, but reported
    /// only with the timing columns (it is diagnostic, not an outcome).
    double predicted_cost = 0.0;
};

/// One worker's lease-queue activity (campaign_result::queue; all zero
/// outside --queue mode). `stolen` counts completions on a lease some
/// other holder took first; `re_leased` counts leases this worker took
/// over from a dead/expired holder; `resumed` counts re-leases that
/// continued from a valid checkpoint instead of starting over.
struct queue_worker_stats {
    bool queue_mode = false;
    std::int64_t completed = 0;
    std::int64_t leased = 0;
    std::int64_t re_leased = 0;
    std::int64_t resumed = 0;
    std::int64_t stolen = 0;
};

struct campaign_result {
    campaign_spec spec;
    std::vector<scenario_result> scenarios;
    double wall_seconds = 0.0;
    /// Lease-queue activity of the worker that produced this result.
    queue_worker_stats queue;
    /// Resolution-cache counters for this run (all zero when the result was
    /// assembled by merge_shard_csv). A warm lambda sidecar shows up as
    /// lambda_misses == 0: every lookup was served from cache. Like
    /// wall_seconds, never part of the byte-deterministic reports —
    /// dlb_campaign prints it under --timing.
    graph_cache::cache_stats cache;
    /// Entries loaded from options.lambda_cache_path (0: none/no sidecar).
    std::int64_t lambda_sidecar_loaded = 0;
    /// Non-empty when the end-of-run sidecar save failed (the run itself
    /// is intact — the sidecar is an accelerator — but later runs will
    /// recompute; callers should surface this even in quiet modes).
    std::string lambda_sidecar_error;
};

/// Per-scenario checkpoint wiring resolved by the campaign driver: the
/// snapshot cadence/location plus (for at most one scenario) a parsed
/// snapshot to resume from.
struct scenario_checkpointing {
    std::int64_t every = 0; // 0: no snapshots
    std::string dir;
    std::uint64_t spec_hash = 0;
    const engine_checkpoint* resume = nullptr;
    /// Forwarded to experiment_config::after_checkpoint: fires with the
    /// snapshot round after each checkpoint file lands (crash-recovery
    /// tests kill the process here). Pure observability.
    std::function<void(std::int64_t)> after_checkpoint;
};

/// Resolves and runs one scenario; never throws — failures land in
/// scenario_result::error so one bad cell cannot sink a sweep. A non-empty
/// `series_dir` (must exist) also writes the recorded per-round series.
/// `engine_exec` runs the per-round kernels (nullptr: serial); `cache`
/// shares resolved topologies/lambdas across calls (nullptr: a cache of
/// this call's own); `scratch` lends the engines pooled buffers (nullptr:
/// fresh arrays); `checkpointing` (optional) snapshots and/or resumes the
/// run. Results are byte-identical for every combination.
scenario_result run_scenario(const scenario_spec& spec, std::int64_t index,
                             std::int64_t record_every,
                             const std::string& series_dir = {},
                             executor* engine_exec = nullptr,
                             graph_cache* cache = nullptr,
                             engine_scratch* scratch = nullptr,
                             const scenario_checkpointing* checkpointing = nullptr);

/// Executes an explicit scenario list (programmatic campaigns, e.g. the
/// bench reproductions). The spec echoed in the result carries `name` and
/// the first scenario as base.
campaign_result run_scenarios(const std::string& name,
                              const std::vector<scenario_spec>& scenarios,
                              const campaign_options& options = {});

/// Expands and executes the whole campaign.
campaign_result run_campaign(const campaign_spec& spec,
                             const campaign_options& options = {});

/// The series sampling stride a campaign with this spec runs with:
/// `record_every` when positive, else the rounds/256 default (min 1).
/// Shared by the executor and the shard-merge validation.
std::int64_t resolved_record_every(const campaign_spec& spec,
                                   std::int64_t record_every);

/// Checkpointed windowed sampling (SMARTS-style): instead of paying for a
/// long run's tail, run K short measured windows from one snapshot, each
/// re-seeded, and report mean / CI of the sampled discrepancy.
struct measure_windows_options {
    std::int64_t windows = 8;       // K, >= 1
    std::int64_t window_rounds = 0; // W, >= 1 (required)
    /// Persistent lambda sidecar, as campaign_options::lambda_cache_path:
    /// when non-empty, loaded before the scenario resolves and rewritten
    /// after the last window, so a warm sidecar skips the λ solve.
    std::string lambda_cache_path;
};

struct window_sample {
    std::int64_t window = 0;   // 0-based window index
    std::uint64_t seed = 0;    // the seed this window ran under
    double discrepancy = 0.0;  // max_minus_average after W rounds
};

struct measure_windows_result {
    campaign_spec campaign;
    scenario_spec spec;          // the resolved target scenario
    std::int64_t scenario_index = 0;
    std::string label;
    std::int64_t start_round = 0;   // the snapshot round
    std::int64_t window_rounds = 0; // W
    std::vector<window_sample> samples;
    double mean = 0.0;
    double stddev = 0.0;          // sample standard deviation (0 for K = 1)
    double ci95_half_width = 0.0; // 1.96 * stddev / sqrt(K)
    /// Non-empty when the sidecar save failed, as
    /// campaign_result::lambda_sidecar_error.
    std::string lambda_sidecar_error;
};

/// Runs K measured windows of W rounds from `snapshot`, which must hold
/// discrete-engine state for scenario snapshot.scenario_index of `spec`
/// (spec_hash validated). Window 0 keeps the original seed — with
/// W = rounds - start_round it reproduces the uninterrupted run's final
/// discrepancy exactly — and window k derives seed_k = mix64(seed,
/// kWindowStream, k), so samples are independent replicas of the tail.
/// Throws std::invalid_argument on any mismatch, naming the field.
measure_windows_result measure_windows(const campaign_spec& spec,
                                       const engine_checkpoint& snapshot,
                                       const measure_windows_options& options);

} // namespace dlb::campaign

#endif // DLB_CAMPAIGN_CAMPAIGN_EXECUTOR_HPP
