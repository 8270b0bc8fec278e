#include "sim/runner.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/checkpoint.hpp"
#include "obs/obs.hpp"

namespace dlb {

namespace {

/// Rejects a snapshot that was not taken by an identically configured run.
/// Every check names the mismatching field: a resume that would silently
/// diverge from the uninterrupted trajectory is worse than no resume.
void validate_resume(const experiment_config& config,
                     const engine_checkpoint& checkpoint)
{
    if (config.run_continuous_twin)
        throw std::invalid_argument(
            "resume: the continuous twin is not checkpointed; disable "
            "run_continuous_twin to resume");
    if (checkpoint.spec_hash != config.checkpoint_spec_hash)
        throw std::invalid_argument(
            "resume: spec_hash mismatch: checkpoint was taken under " +
            std::to_string(checkpoint.spec_hash) + " but this run expects " +
            std::to_string(config.checkpoint_spec_hash));
    if (checkpoint.seed != config.seed)
        throw std::invalid_argument(
            "resume: seed mismatch: checkpoint has " +
            std::to_string(checkpoint.seed) + " but this run uses " +
            std::to_string(config.seed));
    require_current_rng_version(checkpoint, "resume");
    if (checkpoint.engine != config.process)
        throw std::invalid_argument(
            "resume: engine mismatch: checkpoint holds " +
            std::string(to_string(checkpoint.engine)) +
            " state but this run uses the " +
            std::string(to_string(config.process)) + " engine");
    if (checkpoint.rounding != static_cast<std::int32_t>(config.rounding))
        throw std::invalid_argument(
            "resume: rounding mismatch: checkpoint has " +
            std::string(to_string(
                static_cast<rounding_kind>(checkpoint.rounding))) +
            " but this run uses " + std::string(to_string(config.rounding)));
    if (checkpoint.policy != static_cast<std::int32_t>(config.policy))
        throw std::invalid_argument(
            "resume: policy mismatch: checkpoint has wire value " +
            std::to_string(checkpoint.policy) + " but this run uses " +
            std::to_string(static_cast<std::int32_t>(config.policy)));
    if (checkpoint.record_every != config.record_every)
        throw std::invalid_argument(
            "resume: record_every mismatch: checkpoint recorded every " +
            std::to_string(checkpoint.record_every) +
            " rounds but this run records every " +
            std::to_string(config.record_every));
    if (checkpoint.round > config.rounds)
        throw std::invalid_argument(
            "resume: checkpoint round " + std::to_string(checkpoint.round) +
            " is beyond this run's " + std::to_string(config.rounds) +
            " rounds");
}

/// Shared run loop over the three engine types. `Engine` provides step(),
/// load(), set_scheme(), negative_stats() and save/restore_checkpoint on
/// the snapshot member `section`; `twin` (optional) is stepped in
/// lock-step for deviation measurements.
template <class Engine, class State>
time_series run_loop(Engine& engine, State engine_checkpoint::*section,
                     const experiment_config& config, continuous_process* twin)
{
    const graph& g = *config.diffusion.network;
    executor& exec =
        config.exec != nullptr ? *config.exec : default_executor();

    hybrid_controller hybrid(config.switching);
    imbalance_tracker tracker(config.imbalance_window);

    time_series out;
    const bool with_twin = twin != nullptr;

    // Dynamic-workload state: the conservation baseline follows the injected
    // tokens, and the ideal follows the total. `ideal_basis` is the total the
    // ideal loads are computed from (measure_round derives each node's from
    // it and the speeds), so a resumed run measures bitwise against the same
    // ideal the uninterrupted run was carrying at the snapshot round.
    const bool dynamic = config.workload != nullptr;
    std::int64_t start_round = 0;
    double baseline_total = 0.0;
    double ideal_basis = 0.0;
    bool ideal_stale = false; // injected rounds invalidate `ideal_basis`;
                              // refreshed only when a recorded round reads it

    if (config.resume != nullptr) {
        const engine_checkpoint& checkpoint = *config.resume;
        engine.restore_checkpoint(checkpoint.*section);
        const runner_checkpoint_state& saved = checkpoint.runner;
        hybrid.restore(saved.hybrid_switched, saved.hybrid_switch_round);
        tracker.restore(saved.tracker);
        static_cast<recorded_series&>(out) = saved.series;
        baseline_total = saved.baseline_total;
        ideal_basis = saved.ideal_basis;
        ideal_stale = saved.ideal_stale;
        start_round = checkpoint.round;
    } else {
        const auto load0 = engine.load();
        baseline_total = std::accumulate(
            load0.begin(), load0.end(), 0.0,
            [](double acc, auto v) { return acc + static_cast<double>(v); });
        ideal_basis = baseline_total;
    }

    std::vector<std::int64_t> delta;
    std::vector<double> load_view;
    if (dynamic) {
        delta.resize(static_cast<std::size_t>(g.num_nodes()));
        load_view.resize(delta.size());
    }

    for (std::int64_t t = start_round;; ++t) {
        if (config.checkpoint_every > 0 && t > start_round &&
            t % config.checkpoint_every == 0 && t != config.rounds) {
            static obs::histogram& checkpoint_ns =
                obs::registry_histogram("engine.checkpoint_ns");
            const obs::phase_scope phase("engine", "checkpoint",
                                         &checkpoint_ns);
            engine_checkpoint snapshot;
            snapshot.spec_hash = config.checkpoint_spec_hash;
            snapshot.scenario_index = config.checkpoint_scenario_index;
            snapshot.seed = config.seed;
            snapshot.round = t;
            snapshot.rng_check = checkpoint_rng_check(snapshot.rng_version,
                                                      snapshot.seed, t);
            snapshot.rounding = static_cast<std::int32_t>(config.rounding);
            snapshot.policy = static_cast<std::int32_t>(config.policy);
            snapshot.engine = config.process;
            snapshot.record_every = config.record_every;
            engine.save_checkpoint(snapshot.*section);
            snapshot.runner = {out,
                               hybrid.switched(),
                               hybrid.switch_round(),
                               tracker.state(),
                               baseline_total,
                               ideal_basis,
                               ideal_stale};
            write_checkpoint_file(config.checkpoint_path, snapshot);
            if (config.after_checkpoint) config.after_checkpoint(t);
        }

        // One measurement per round (docs/architecture.md, "Per-round
        // measurement"): sum, max and min always; the potential and the
        // local difference only when a recorded row or an unfired local
        // switch trigger reads them.
        const auto load = engine.load();
        const bool recorded =
            t % config.record_every == 0 || t == config.rounds;
        if (recorded && ideal_stale) {
            ideal_basis = baseline_total;
            ideal_stale = false;
        }
        const ideal_loads ideal{ideal_basis, &config.diffusion.speeds};
        const round_measurement measured = measure_round(
            g, load, recorded ? &ideal : nullptr,
            recorded || hybrid.reads_local_difference(t), exec);
        tracker.observe(measured.global);

        if (recorded) {
            out.rounds.push_back(t);
            out.max_minus_average.push_back(measured.global);
            out.max_local_difference.push_back(measured.local);
            out.potential_over_n.push_back(measured.potential /
                                           static_cast<double>(g.num_nodes()));
            out.min_load.push_back(measured.min);
            out.min_transient_load.push_back(
                engine.negative_stats().min_transient_load);
            out.total_load_error.push_back(
                std::abs(measured.sum - baseline_total));
            if (with_twin)
                out.deviation_from_twin.push_back(
                    max_deviation(load, twin->load()));
        }

        if (t == config.rounds) break;

        if (hybrid.should_switch(t, measured.local, measured.global)) {
            engine.set_scheme(config.switch_to);
            if (with_twin) twin->set_scheme(config.switch_to);
            out.switch_round = t;
        }

        if (dynamic) {
            static obs::histogram& workload_ns =
                obs::registry_histogram("engine.workload_ns");
            const obs::phase_scope phase("engine", "workload", &workload_ns);
            std::copy(load.begin(), load.end(), load_view.begin());
            std::fill(delta.begin(), delta.end(), std::int64_t{0});
            if (config.workload->apply(t, load_view, delta)) {
                engine.inject(delta);
                if (with_twin) twin->inject(delta);
                for (const std::int64_t d : delta) {
                    baseline_total += static_cast<double>(d);
                    if (d > 0)
                        out.total_injected += d;
                    else
                        out.total_drained -= d;
                }
                ideal_stale = true;
            }
        }

        engine.step();
        if (with_twin) twin->step();
    }

    out.negative = engine.negative_stats();
    out.remaining_imbalance = tracker.remaining();
    out.imbalance_converged = tracker.converged();
    return out;
}

/// The one entry behind the public ones: runs the experiment, and copies
/// out the final load only when `with_final_load` is set.
experiment_outcome run(const experiment_config& config,
                       const load_fill& initial_load, bool with_final_load)
{
    if (config.diffusion.network == nullptr)
        throw std::invalid_argument("run_experiment: null network");
    if (config.rounds < 0)
        throw std::invalid_argument("run_experiment: negative round count");
    if (config.checkpoint_every < 0)
        throw std::invalid_argument(
            "run_experiment: negative checkpoint_every");
    if (config.checkpoint_every > 0 && config.checkpoint_path.empty())
        throw std::invalid_argument(
            "run_experiment: checkpoint_every > 0 requires checkpoint_path");
    if (config.resume != nullptr) validate_resume(config, *config.resume);

    experiment_outcome outcome;

    switch (config.process) {
    case process_kind::discrete: {
        discrete_process engine(config.diffusion, initial_load, config.rounding,
                                config.seed, config.policy, config.exec,
                                config.scratch);
        std::optional<continuous_process> twin;
        if (config.run_continuous_twin)
            twin.emplace(config.diffusion, initial_load, config.exec,
                         config.scratch);
        outcome.series = run_loop(engine, &engine_checkpoint::discrete, config,
                                  twin ? &*twin : nullptr);
        if (with_final_load)
            outcome.final_load.assign(engine.load().begin(), engine.load().end());
        break;
    }
    case process_kind::continuous: {
        continuous_process engine(config.diffusion, initial_load, config.exec,
                                  config.scratch);
        outcome.series =
            run_loop(engine, &engine_checkpoint::continuous, config, nullptr);
        if (with_final_load)
            outcome.final_load_continuous.assign(engine.load().begin(),
                                                 engine.load().end());
        break;
    }
    case process_kind::cumulative: {
        cumulative_process engine(config.diffusion, initial_load, config.exec,
                                  config.scratch);
        outcome.series =
            run_loop(engine, &engine_checkpoint::cumulative, config, nullptr);
        if (with_final_load)
            outcome.final_load.assign(engine.load().begin(), engine.load().end());
        break;
    }
    }
    return outcome;
}

} // namespace

time_series run_experiment(const experiment_config& config,
                           const std::vector<std::int64_t>& initial_load)
{
    return run(config, load_fill::copy_of(initial_load), false).series;
}

time_series run_experiment(const experiment_config& config,
                           const load_fill& initial_load)
{
    return run(config, initial_load, false).series;
}

experiment_outcome run_experiment_with_final_load(
    const experiment_config& config, const std::vector<std::int64_t>& initial_load)
{
    return run(config, load_fill::copy_of(initial_load), true);
}

} // namespace dlb
