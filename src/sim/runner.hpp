// The experiment driver: wires a process engine, metrics, hybrid switching
// and an optional lock-step continuous twin into one run (the loop behind
// every figure of the paper's Section VI).
#ifndef DLB_SIM_RUNNER_HPP
#define DLB_SIM_RUNNER_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/cumulative_baseline.hpp"
#include "core/hybrid.hpp"
#include "core/metrics.hpp"
#include "core/process.hpp"
#include "sim/recorder.hpp"

namespace dlb {

struct engine_checkpoint; // core/checkpoint.hpp

/// Per-round external load change for dynamic workloads (the model class of
/// Berenbrink et al., "Dynamic Averaging Load Balancing on Arbitrary
/// Graphs"). Implementations live in campaign/workload; the runner only
/// needs this interface.
class workload_hook {
public:
    virtual ~workload_hook() = default;

    /// Called once per round t in [0, rounds) before the diffusion step.
    /// `load[v]` is node v's current load; fill `delta` (pre-zeroed, one
    /// entry per node) with tokens to inject (> 0) or drain (< 0). Return
    /// true when any entry is nonzero.
    virtual bool apply(std::int64_t round, std::span<const double> load,
                       std::span<std::int64_t> delta) = 0;
};

struct experiment_config {
    diffusion_config diffusion;       // graph, alpha, speeds, initial scheme
    process_kind process = process_kind::discrete;
    rounding_kind rounding = rounding_kind::randomized;
    std::uint64_t seed = 1;
    negative_load_policy policy = negative_load_policy::allow;

    std::int64_t rounds = 1000;
    std::int64_t record_every = 1;

    /// SOS->FOS hybrid switch; `switch_to` is the post-trigger scheme.
    switch_policy switching = switch_policy::never();
    scheme_params switch_to = fos_scheme();

    /// Run an idealized continuous twin in lock-step and record the
    /// deviation max_v |x^D_v - x^C_v| per recorded round.
    bool run_continuous_twin = false;

    /// Plateau detection window for the remaining-imbalance metric.
    std::int64_t imbalance_window = 200;

    /// Optional dynamic workload; token conservation is then verified
    /// modulo the injected/drained totals. Must outlive the run.
    workload_hook* workload = nullptr;

    executor* exec = nullptr; // nullptr: serial

    /// Checkpointing (core/checkpoint.hpp). When checkpoint_every > 0, an
    /// atomic snapshot of engine + runner state is written to
    /// checkpoint_path every N rounds (skipping round 0 and the final
    /// round). The spec hash and scenario index are opaque tokens stamped
    /// into each snapshot and validated on resume.
    std::int64_t checkpoint_every = 0;
    std::string checkpoint_path;
    std::uint64_t checkpoint_spec_hash = 0;
    std::int64_t checkpoint_scenario_index = 0;

    /// Called after each checkpoint file lands on disk, with the round it
    /// snapshots. Pure observability — the run is byte-identical with or
    /// without it. Crash-recovery tests hang a kill-9 off this hook to die
    /// at a point where a valid checkpoint provably exists.
    std::function<void(std::int64_t)> after_checkpoint;

    /// Resume from a parsed snapshot instead of round 0. The checkpoint's
    /// seed, rounding, policy, record_every, engine kind and spec hash must
    /// all match this config, and its rng_version this build's stream — any
    /// mismatch throws std::invalid_argument naming the field. The resumed run's series is
    /// byte-identical to the uninterrupted run's. Must outlive the run;
    /// incompatible with run_continuous_twin.
    const engine_checkpoint* resume = nullptr;

    /// Optional per-worker buffer pool lent to the engines (campaign sweeps
    /// reuse one pool across consecutive scenarios on a worker). Results
    /// are byte-identical with or without it. Must outlive the run.
    engine_scratch* scratch = nullptr;
};

/// Runs the experiment from `initial_load`. The graph referenced by
/// `config.diffusion.network` must stay alive for the duration.
time_series run_experiment(const experiment_config& config,
                           const std::vector<std::int64_t>& initial_load);

/// Convenience: runs and also returns the final load vector.
struct experiment_outcome {
    time_series series;
    std::vector<std::int64_t> final_load;    // discrete/cumulative engines
    std::vector<double> final_load_continuous; // continuous engine
};

experiment_outcome run_experiment_with_final_load(
    const experiment_config& config, const std::vector<std::int64_t>& initial_load);

} // namespace dlb

#endif // DLB_SIM_RUNNER_HPP
