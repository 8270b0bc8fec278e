#include "campaign/campaign_executor.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "campaign/orchestrator.hpp"
#include "campaign/registry.hpp"
#include "campaign/run_context.hpp"
#include "campaign/workload.hpp"
#include "core/alpha.hpp"
#include "core/beta.hpp"
#include "core/checkpoint.hpp"
#include "core/diffusion_matrix.hpp"
#include "core/hybrid.hpp"
#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "sim/runner.hpp"
#include "sim/thread_pool.hpp"
#include "util/csv.hpp" // format_double
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/tempfile.hpp"
#include "util/timer.hpp"

namespace dlb::campaign {

namespace {

// Distinct substream tags so load placement, speed assignment and workload
// arrivals never share random bits (graph construction has its own tag in
// registry::topology_seed).
constexpr std::uint64_t kLoadStream = 0x6c6f6164;
constexpr std::uint64_t kSpeedStream = 0x73706473;
constexpr std::uint64_t kWorkloadStream = 0x776b6c64;
// Per-window reseeding for measure_windows ("wndw"): window k > 0 runs
// under mix64(seed, kWindowStream, k), giving independent tail replicas.
constexpr std::uint64_t kWindowStream = 0x776e6477;

// The value `name` maps to in a registry name table. set_field admits only
// the names field_choices() lists, and resolve_instance re-checks specs
// built in code first, so a miss means a table and that list disagree.
template <class T, std::size_t N>
T lookup(const named_value<T> (&table)[N], const std::string& name)
{
    for (const auto& entry : table)
        if (entry.name == name) return entry.value;
    throw std::logic_error("campaign: '" + name + "' has no resolver entry");
}

speed_profile resolve_speeds(const scenario_spec& spec, node_id n)
{
    const std::uint64_t seed = mix64(spec.seed, kSpeedStream);
    switch (lookup(kSpeedNames, spec.speeds)) {
    case speed_kind::uniform: return speed_profile::uniform(n);
    case speed_kind::bimodal: {
        const double fraction = spec.speed_shape > 0.0 ? spec.speed_shape : 0.1;
        const double fast = spec.speed_value >= 1.0 ? spec.speed_value : 4.0;
        return speed_profile::bimodal(n, fraction, fast, seed);
    }
    case speed_kind::zipf: {
        const double exponent = spec.speed_shape > 0.0 ? spec.speed_shape : 1.0;
        const double s_max = spec.speed_value >= 1.0 ? spec.speed_value : 8.0;
        return speed_profile::zipf(n, exponent, s_max, seed);
    }
    }
    throw std::logic_error("campaign: unhandled speed profile");
}

// Every input of compute_lambda(g, alpha, speeds), encoded: the exact graph
// identity (cache key), the alpha policy (gamma only when it is read), and
// the speed profile (its knobs and derived seed only when non-uniform). Two
// scenarios with equal keys get bit-identical lambdas by construction. The
// key doubles as the persistent sidecar key, so it must stay stable across
// invocations; the param is normalized like the graph key (-0.0 == 0.0).
std::string lambda_cache_key(const scenario_spec& spec)
{
    std::string key = spec.topology + "|" + std::to_string(spec.nodes) + "|" +
                      format_double(normalized_param(spec.topology_param)) +
                      "|";
    key += topology_uses_seed(spec.topology)
               ? std::to_string(topology_seed(spec.seed))
               : std::string("-");
    // Built with plain appends: `"|" + std::string_rvalue` trips GCC 12's
    // -Wrestrict false positive (PR 105329) in the inlined insert path.
    key += "|";
    key += spec.alpha;
    if (spec.alpha == "uniform_gamma_d") {
        key += "|";
        key += format_double(spec.alpha_gamma);
    }
    key += "|";
    key += spec.speeds;
    if (spec.speeds != "uniform") {
        key += "|";
        key += format_double(spec.speed_value);
        key += "|";
        key += format_double(spec.speed_shape);
        key += "|";
        key += std::to_string(mix64(spec.seed, kSpeedStream));
    }
    return key;
}

switch_policy resolve_switching(const scenario_spec& spec)
{
    switch (lookup(kSwitchNames, spec.switch_mode)) {
    case switch_policy::trigger::never: return switch_policy::never();
    case switch_policy::trigger::at_round:
        return switch_policy::at(
            static_cast<std::int64_t>(std::llround(spec.switch_value)));
    case switch_policy::trigger::local_threshold:
        return switch_policy::when_local_below(spec.switch_value);
    case switch_policy::trigger::global_threshold:
        return switch_policy::when_global_below(spec.switch_value);
    }
    throw std::logic_error("campaign: unhandled switch mode");
}

/// A scenario's resolved instance. run_scenario and measure_windows both
/// resolve through resolve_instance, so windowed sampling replays exactly
/// the campaign's graph, alpha, speeds and scheme.
struct scenario_instance {
    std::shared_ptr<const graph> network; // shared by the cache, or owned
    diffusion_config diffusion;           // on *network
    double lambda = -1.0;                 // -1: the scheme needed none
    double beta = 0.0;                    // effective relaxation parameter
};

scenario_instance resolve_instance(const scenario_spec& spec,
                                   graph_cache* cache)
{
    // Parsed specs were checked field by field as they were set; a spec
    // built in code gets the same checks here, before any work.
    validate_fields(spec);

    // The topology is shared from the cache when one is given (identical
    // build inputs, so bit-identical graphs) and cold-built otherwise.
    scenario_instance out;
    out.network =
        cache != nullptr
            ? cache->get(spec.topology, spec.nodes, spec.topology_param,
                         spec.seed)
            : std::make_shared<const graph>(
                  build_topology(spec.topology, spec.nodes, spec.topology_param,
                                 topology_seed(spec.seed)));
    const graph& g = *out.network;
    diffusion_config& diffusion = out.diffusion;
    diffusion.network = &g;
    diffusion.alpha =
        make_alpha(g, lookup(kAlphaNames, spec.alpha), spec.alpha_gamma);
    diffusion.speeds = resolve_speeds(spec, g.num_nodes());
    const auto lambda_of = [&] {
        // A closed form where the registry has one for these inputs,
        // else one Lanczos solve; the metrics say which served each miss.
        const auto solve = [&] {
            if (lookup(kAlphaNames, spec.alpha) ==
                    alpha_policy::max_degree_plus_one &&
                lookup(kSpeedNames, spec.speeds) == speed_kind::uniform) {
                if (const auto exact =
                        closed_form_lambda(spec.topology, spec.nodes)) {
                    static obs::counter& closed_forms =
                        obs::registry_counter("linalg.lambda_closed_form");
                    closed_forms.add(1);
                    return *exact;
                }
            }
            lanczos_result solved;
            const double lambda =
                compute_lambda(g, diffusion.alpha, diffusion.speeds, &solved);
            static obs::histogram& lanczos_steps =
                obs::registry_histogram("linalg.lanczos_steps");
            lanczos_steps.record(solved.iterations);
            return lambda;
        };
        return cache != nullptr ? cache->lambda(lambda_cache_key(spec), solve)
                                : solve();
    };

    // Relaxation parameter: explicit beta wins; otherwise SOS and
    // Chebyshev derive it from the computed lambda (Table I pipeline).
    switch (lookup(kSchemeNames, spec.scheme)) {
    case scheme_kind::fos:
        diffusion.scheme = fos_scheme();
        out.beta = 1.0;
        break;
    case scheme_kind::sos: {
        double beta = spec.beta;
        if (beta <= 0.0) {
            out.lambda = lambda_of();
            beta = beta_opt(out.lambda);
        }
        diffusion.scheme = sos_scheme(beta);
        out.beta = beta;
        break;
    }
    case scheme_kind::chebyshev:
        out.lambda = lambda_of();
        diffusion.scheme = chebyshev_scheme(out.lambda);
        out.beta = beta_opt(out.lambda);
        break;
    }
    return out;
}

/// A scenario's run: the runner configuration and the workload hook it
/// points at. run_scenario runs it from round 0; measure_windows resumes
/// it from a snapshot, once per window seed.
struct scenario_run {
    experiment_config config;
    std::unique_ptr<workload_hook> workload;
};

/// The run of `spec` on its resolved `diffusion` with engine seed `seed`
/// (the spec's own, or a window's), recording every `record_every` rounds.
scenario_run make_run(const scenario_spec& spec, diffusion_config diffusion,
                      std::uint64_t seed, std::int64_t record_every)
{
    scenario_run run;
    run.workload = make_workload(
        {spec.workload, spec.workload_rate, spec.workload_amount,
         spec.workload_period},
        diffusion.network->num_nodes(), mix64(seed, kWorkloadStream));

    experiment_config& config = run.config;
    config.diffusion = std::move(diffusion);
    config.process = lookup(kProcessNames, spec.process);
    config.rounding = lookup(kRoundingNames, spec.rounding);
    config.seed = seed;
    config.policy = lookup(kPolicyNames, spec.policy);
    config.rounds = spec.rounds;
    config.record_every = record_every;
    config.switching = resolve_switching(spec);
    // Plateau window scaled to the round budget: the runner default of
    // 200 can never converge on short campaign runs.
    config.imbalance_window = std::clamp<std::int64_t>(spec.rounds / 4, 8, 200);
    config.workload = run.workload.get();
    return run;
}

} // namespace

scenario_result run_scenario(const scenario_spec& spec, std::int64_t index,
                             std::int64_t record_every,
                             const std::string& series_dir,
                             executor* engine_exec, graph_cache* cache,
                             engine_scratch* scratch,
                             const scenario_checkpointing* checkpointing)
{
    scenario_result result;
    result.spec = spec;
    result.index = index;
    result.label = scenario_label(spec);
    result.record_every = record_every;
    result.predicted_cost = scenario_cost(spec);
    const obs::trace_span span("scenario", result.label);
    const stopwatch watch;

    try {
        scenario_instance instance = resolve_instance(spec, cache);
        const graph& g = *instance.network;
        result.nodes = g.num_nodes();
        result.edges = g.num_edges();
        result.lambda = instance.lambda;
        result.beta = instance.beta;

        const auto initial = build_initial_load(
            spec.load_pattern, g.num_nodes(), spec.tokens_per_node,
            mix64(spec.seed, kLoadStream));
        result.initial_total =
            std::accumulate(initial.begin(), initial.end(), std::int64_t{0});

        scenario_run run = make_run(spec, std::move(instance.diffusion),
                                    spec.seed, record_every);
        experiment_config& config = run.config;
        config.exec = engine_exec; // nullptr: serial round kernels (the
                                   // default when campaigns parallelize
                                   // across scenarios instead)
        config.scratch = scratch; // nullptr: engines allocate fresh

        if (checkpointing != nullptr) {
            config.checkpoint_every = checkpointing->every;
            if (checkpointing->every > 0)
                config.checkpoint_path = checkpointing->dir + "/" +
                                         std::to_string(index) + "_" +
                                         result.label + ".ckpt";
            config.checkpoint_spec_hash = checkpointing->spec_hash;
            config.checkpoint_scenario_index = index;
            config.resume = checkpointing->resume;
            config.after_checkpoint = checkpointing->after_checkpoint;
        }

        const time_series series = run_experiment(config, initial);

        if (!series_dir.empty())
            write_csv(series_dir + "/" + std::to_string(index) + "_" +
                          result.label + ".csv",
                      series);

        result.final_max_minus_average = series.max_minus_average.back();
        result.final_max_local_difference = series.max_local_difference.back();
        result.remaining_imbalance = series.remaining_imbalance;
        result.imbalance_converged = series.imbalance_converged;
        result.switch_round = series.switch_round;
        result.negative = series.negative;
        result.total_injected = series.total_injected;
        result.total_drained = series.total_drained;

        if (series.imbalance_converged) {
            for (std::size_t i = 0; i < series.size(); ++i) {
                if (series.max_minus_average[i] <= series.remaining_imbalance) {
                    result.rounds_to_plateau = series.rounds[i];
                    break;
                }
            }
        }

        // Discrete engines conserve tokens exactly (modulo injection); the
        // continuous engine only up to floating-point drift.
        const double error = series.total_load_error.back();
        if (config.process == process_kind::continuous) {
            const double scale =
                std::max(1.0, std::abs(static_cast<double>(result.initial_total)));
            result.conservation_ok = error <= 1e-6 * scale;
        } else {
            result.conservation_ok = error == 0.0;
        }
    } catch (const std::exception& failure) {
        result.error = failure.what();
    }

    result.wall_seconds = watch.seconds();
    return result;
}

void check_campaign_options(const campaign_options& options, bool for_queue)
{
    const bool queue = !options.queue_dir.empty();
    const std::pair<bool, const char*> rules[] = {
        {queue && !for_queue,
         "lease-queue runs go through run_queue_campaign (run_campaign "
         "dispatches on queue_dir; run_scenarios has no queue mode)"},
        {!queue && for_queue, "queue_dir must be set for run_queue_campaign"},
        {options.shard_count < 1, "shard count must be >= 1"},
        {options.shard_index < 0 || options.shard_index >= options.shard_count,
         "shard index out of range"},
        {!options.lambda_cache_path.empty() && !options.reuse_graphs,
         "the lambda sidecar is a tier of the graph cache (drop "
         "--no-graph-cache to use --lambda-cache)"},
        {options.checkpoint_every < 0, "checkpoint-every must be >= 0"},
        {(options.checkpoint_every > 0) != !options.checkpoint_dir.empty(),
         "--checkpoint-every and --checkpoint-dir must be set together"},
        {queue && options.shard_count != 1,
         "--queue and --shard are mutually exclusive (the queue assigns "
         "scenarios dynamically; drop --shard)"},
        {queue && !options.resume_path.empty(),
         "--queue and --resume are mutually exclusive (queue workers resume "
         "from checkpoints automatically; drop --resume)"},
        {queue && !(options.lease_heartbeat_seconds > 0.0),
         "lease_heartbeat_seconds must be > 0"},
        {queue && !(options.lease_expiry_seconds > 0.0),
         "lease_expiry_seconds must be > 0"},
    };
    for (const auto& [broken, why] : rules)
        if (broken) throw std::invalid_argument(std::string("campaign: ") + why);
}

void check_snapshot(const engine_checkpoint& snapshot,
                    const snapshot_owner& owner, const std::string& context)
{
    if (snapshot.spec_hash != owner.spec_hash)
        throw std::invalid_argument(
            context + ": spec_hash mismatch: checkpoint was saved under "
            "campaign spec_hash " + hex64(snapshot.spec_hash) +
            " but this invocation's spec hashes to " +
            hex64(owner.spec_hash) +
            "; resume with the same campaign definition");
    if (snapshot.scenario_index < owner.first_index ||
        snapshot.scenario_index >= owner.end_index)
        throw std::invalid_argument(
            context + ": scenario index " +
            std::to_string(snapshot.scenario_index) +
            " is outside this campaign's scenarios " +
            std::to_string(owner.first_index) + ".." +
            std::to_string(owner.end_index - 1));
    require_current_rng_version(snapshot, context);
    if (snapshot.record_every != owner.record_every)
        throw std::invalid_argument(
            context + ": record_every mismatch: checkpoint recorded every " +
            std::to_string(snapshot.record_every) +
            " rounds but this invocation records every " +
            std::to_string(owner.record_every) + " (rerun with --record-every " +
            std::to_string(snapshot.record_every) + ")");
}

run_context::run_context(const std::vector<scenario_spec>& scenarios,
                         const std::vector<std::int64_t>& selected,
                         const campaign_options& options,
                         std::uint64_t spec_hash, std::int64_t record_every,
                         std::string sidecar, campaign_result& result)
    : scenarios(scenarios), options(options), spec_hash(spec_hash),
      record_every(record_every), sidecar_path(std::move(sidecar))
{
    if (!options.series_dir.empty())
        std::filesystem::create_directories(options.series_dir);
    if (!options.checkpoint_dir.empty()) {
        std::filesystem::create_directories(options.checkpoint_dir);
        // A killed run leaves `<ckpt>.tmp.<pid>.<n>` orphans next to its
        // snapshots; sweep the ones whose writer is provably gone so crash
        // loops don't strew the directory (live co-shards are untouched).
        sweep_stale_temp_files(options.checkpoint_dir);
    }
    if (!sidecar_path.empty())
        result.lambda_sidecar_loaded = static_cast<std::int64_t>(
            cache.load_lambda_sidecar(sidecar_path));
    if (options.engine_threads != 1)
        engine_pool = std::make_unique<thread_pool>(options.engine_threads);
    if (options.heartbeat != nullptr) {
        double total_cost = 0.0;
        for (const std::int64_t i : selected)
            total_cost += scenario_cost(scenarios[static_cast<std::size_t>(i)]);
        obs::progress_meter::options meter_options;
        meter_options.period_seconds = options.heartbeat_seconds;
        meter_options.out = options.heartbeat;
        meter_options.shard_index = options.shard_index;
        meter_options.shard_count = options.shard_count;
        meter.emplace(meter_options,
                      static_cast<std::int64_t>(selected.size()), total_cost);
    }
}

scenario_result run_context::run(std::int64_t index, engine_scratch& scratch,
                                 const engine_checkpoint* resume,
                                 std::function<void(std::int64_t)> after_checkpoint)
{
    scenario_checkpointing checkpointing;
    checkpointing.every = options.checkpoint_every;
    checkpointing.dir = options.checkpoint_dir;
    checkpointing.spec_hash = spec_hash;
    checkpointing.resume = resume;
    checkpointing.after_checkpoint = std::move(after_checkpoint);
    return run_scenario(scenarios[static_cast<std::size_t>(index)], index,
                        record_every, options.series_dir, engine_pool.get(),
                        options.reuse_graphs ? &cache : nullptr,
                        options.pool_scratch ? &scratch : nullptr,
                        &checkpointing);
}

void run_context::save_sidecar(campaign_result& result)
{
    if (sidecar_path.empty()) return;
    try {
        cache.save_lambda_sidecar(sidecar_path);
    } catch (const std::exception& failure) {
        result.lambda_sidecar_error = failure.what();
        if (options.progress != nullptr)
            *options.progress << "lambda sidecar not saved: "
                              << failure.what() << "\n";
    }
}

namespace {

// Shared execution core for run_scenarios / run_campaign.
campaign_result detail_run(const campaign_spec& spec,
                           const std::vector<scenario_spec>& scenarios,
                           const campaign_options& options)
{
    check_campaign_options(options, /*for_queue=*/false);

    // Process-level sharding: the cost-balanced partitioner
    // (cost_model.hpp) is a pure function of the spec, so independently
    // launched shard processes agree on the assignment. Selected scenarios
    // keep their global indices; merge_shard_csv reassembles the full
    // report.
    const std::vector<std::int64_t> selected = partition_scenarios(
        scenarios,
        options.shard_count)[static_cast<std::size_t>(options.shard_index)];
    const auto count = static_cast<std::int64_t>(selected.size());

    const std::int64_t record_every =
        resolved_record_every(spec, options.record_every);
    const std::uint64_t campaign_hash = spec_hash(spec);

    // A resume snapshot is validated before any scenario spends work:
    // against the campaign it claims to belong to, the effective sampling
    // stride and this shard's assignment, naming the field that differs,
    // so a stale or mislabeled snapshot is never silently replayed.
    std::optional<engine_checkpoint> resume_snapshot;
    if (!options.resume_path.empty()) {
        resume_snapshot = read_checkpoint_file(options.resume_path);
        check_snapshot(*resume_snapshot,
                       {campaign_hash, 0,
                        static_cast<std::int64_t>(scenarios.size()),
                        record_every},
                       "resume: " + options.resume_path);
        const std::int64_t target = resume_snapshot->scenario_index;
        if (std::find(selected.begin(), selected.end(), target) ==
            selected.end())
            throw std::invalid_argument(
                "resume: scenario " + std::to_string(target) +
                " is not in shard " + std::to_string(options.shard_index) +
                "/" + std::to_string(options.shard_count) + "'s assignment");
    }

    campaign_result result;
    result.spec = spec;
    result.scenarios.resize(selected.size());

    const obs::trace_span run_span("campaign", "run");
    const stopwatch watch;
    run_context context(scenarios, selected, options, campaign_hash,
                        record_every, options.lambda_cache_path, result);
    std::atomic<std::int64_t> next{0};
    mutex progress_mutex;

    // One experiment per task: every pool invocation drains a shared index
    // queue instead of sticking to its contiguous chunk, so a handful of
    // slow scenarios cannot idle the other workers. results[slot] is
    // written by exactly one claimant of slot, and each entry depends only
    // on its spec, so output is identical for any thread count. Each worker
    // drains the queue in a single invocation, so the scratch pool created
    // here is per-worker and reused across all its scenarios.
    auto drain_queue = [&](std::int64_t, std::int64_t) {
        engine_scratch scratch;
        std::int64_t slot = 0;
        while ((slot = next.fetch_add(1)) < count) {
            const std::int64_t i = selected[static_cast<std::size_t>(slot)];
            const scenario_result& r = result.scenarios[slot] = context.run(
                i, scratch,
                resume_snapshot && resume_snapshot->scenario_index == i
                    ? &*resume_snapshot
                    : nullptr);
            if (context.meter)
                context.meter->scenario_done(r.predicted_cost, r.wall_seconds,
                                             !r.error.empty());
            if (options.progress != nullptr) {
                const scoped_lock lock(progress_mutex);
                *options.progress
                    << "[" << slot + 1 << "/" << count << "] " << r.label
                    << (r.error.empty() ? "" : "  ERROR: " + r.error) << "\n";
            }
        }
    };

    unsigned threads = options.threads;
    if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
    // The engine pool's parallel_for is a single-caller rendezvous, so
    // parallel engines run one scenario at a time.
    if (context.engine_pool != nullptr) threads = 1;
    if (threads <= 1 || count <= 1) {
        drain_queue(0, count);
    } else {
        thread_pool pool(threads);
        pool.parallel_tasks(count, drain_queue);
    }
    context.meter.reset(); // final heartbeat summary, before the sidecar save

    // Persist every lambda this run computed (or inherited) so the next
    // invocation — and any co-running shard — starts warm.
    context.save_sidecar(result);

    result.cache = context.cache.stats();
    result.wall_seconds = watch.seconds();
    return result;
}

} // namespace

campaign_result run_scenarios(const std::string& name,
                              const std::vector<scenario_spec>& scenarios,
                              const campaign_options& options)
{
    campaign_spec spec;
    spec.name = name;
    if (!scenarios.empty()) spec.base = scenarios.front();
    return detail_run(spec, scenarios, options);
}

campaign_result run_campaign(const campaign_spec& spec,
                             const campaign_options& options)
{
    if (!options.queue_dir.empty()) return run_queue_campaign(spec, options);
    return detail_run(spec, expand(spec), options);
}

std::int64_t resolved_record_every(const campaign_spec& spec,
                                   std::int64_t record_every)
{
    if (record_every > 0) return record_every;
    return std::max<std::int64_t>(1, spec.base.rounds / 256);
}

measure_windows_result measure_windows(const campaign_spec& spec,
                                       const engine_checkpoint& snapshot,
                                       const measure_windows_options& options)
{
    if (options.windows < 1)
        throw std::invalid_argument("measure_windows: windows must be >= 1");
    if (options.window_rounds < 1)
        throw std::invalid_argument(
            "measure_windows: window_rounds must be >= 1");

    const std::uint64_t campaign_hash = spec_hash(spec);
    const std::vector<scenario_spec> scenarios = expand(spec);
    // Windows record at the snapshot's own stride.
    check_snapshot(snapshot,
                   {campaign_hash, 0,
                    static_cast<std::int64_t>(scenarios.size()),
                    snapshot.record_every},
                   "measure_windows");
    const scenario_spec target =
        scenarios[static_cast<std::size_t>(snapshot.scenario_index)];
    if (target.process != "discrete")
        throw std::invalid_argument(
            "measure_windows: windowed sampling runs the discrete engine, "
            "but the checkpointed scenario's process is '" +
            target.process + "'");
    if (snapshot.engine != process_kind::discrete)
        throw std::invalid_argument(
            "measure_windows: checkpoint holds " +
            std::string(to_string(snapshot.engine)) +
            " state, expected discrete");

    // The spec hash already guarantees these inputs equal the
    // checkpointing run's.
    const scenario_instance instance = resolve_instance(target, nullptr);
    const std::vector<std::int64_t> zeros(
        static_cast<std::size_t>(instance.network->num_nodes()), 0);

    measure_windows_result result;
    result.campaign = spec;
    result.spec = target;
    result.scenario_index = snapshot.scenario_index;
    result.label = scenario_label(target);
    result.start_round = snapshot.round;
    result.window_rounds = options.window_rounds;

    // Each window resumes the scenario's own run from the snapshot. The
    // seed is a construction parameter, not engine state, so re-seeding a
    // window means resuming from a copy whose seed is the window's.
    engine_checkpoint reseeded = snapshot;
    for (std::int64_t k = 0; k < options.windows; ++k) {
        // Window 0 keeps the original seed: with window_rounds reaching the
        // scenario's horizon it replays the uninterrupted tail bit for bit.
        const std::uint64_t window_seed =
            k == 0 ? target.seed
                   : mix64(target.seed, kWindowStream,
                           static_cast<std::uint64_t>(k));
        reseeded.seed = window_seed;
        scenario_run run = make_run(target, instance.diffusion, window_seed,
                                    snapshot.record_every);
        run.config.rounds = snapshot.round + options.window_rounds;
        run.config.checkpoint_spec_hash = campaign_hash;
        run.config.resume = &reseeded;
        const time_series series = run_experiment(run.config, zeros);

        window_sample sample;
        sample.window = k;
        sample.seed = window_seed;
        sample.discrepancy = series.max_minus_average.back();
        result.samples.push_back(sample);
    }

    double sum = 0.0;
    for (const window_sample& sample : result.samples)
        sum += sample.discrepancy;
    const auto k = static_cast<double>(result.samples.size());
    result.mean = sum / k;
    if (result.samples.size() > 1) {
        double squares = 0.0;
        for (const window_sample& sample : result.samples) {
            const double diff = sample.discrepancy - result.mean;
            squares += diff * diff;
        }
        result.stddev = std::sqrt(squares / (k - 1.0));
    }
    result.ci95_half_width = 1.96 * result.stddev / std::sqrt(k);
    return result;
}

} // namespace dlb::campaign
