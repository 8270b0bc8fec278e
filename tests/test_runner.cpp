// Tests for the experiment runner and recorder.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "campaign/workload.hpp"
#include "core/alpha.hpp"
#include "core/beta.hpp"
#include "core/checkpoint.hpp"
#include "graph/generators.hpp"
#include "linalg/spectra.hpp"
#include "sim/initial_load.hpp"
#include "sim/runner.hpp"
#include "sim/thread_pool.hpp"

namespace dlb {
namespace {

experiment_config base_config(const graph& g, scheme_params scheme)
{
    experiment_config config;
    config.diffusion = {&g, make_alpha(g, alpha_policy::max_degree_plus_one),
                        speed_profile::uniform(g.num_nodes()), scheme};
    config.rounds = 100;
    return config;
}

TEST(Runner, RecordsExpectedNumberOfRows)
{
    const graph g = make_torus_2d(5, 5);
    auto config = base_config(g, fos_scheme());
    config.rounds = 50;
    config.record_every = 10;
    const auto series = run_experiment(config, point_load(25, 0, 2500));
    // Rounds 0, 10, 20, 30, 40, 50.
    ASSERT_EQ(series.size(), 6u);
    EXPECT_EQ(series.rounds.front(), 0);
    EXPECT_EQ(series.rounds.back(), 50);
}

TEST(Runner, MetricsDecreaseUnderBalancing)
{
    const graph g = make_torus_2d(6, 6);
    auto config = base_config(g, fos_scheme());
    config.rounds = 800;
    const auto series = run_experiment(config, point_load(36, 0, 36000));
    EXPECT_LT(series.max_minus_average.back(),
              series.max_minus_average.front() / 100.0);
    EXPECT_LT(series.potential_over_n.back(), series.potential_over_n.front());
}

TEST(Runner, SwitchPolicyIsAppliedAndRecorded)
{
    const graph g = make_torus_2d(8, 8);
    const double beta = beta_opt(torus_2d_lambda(8, 8));
    auto config = base_config(g, sos_scheme(beta));
    config.rounds = 400;
    config.switching = switch_policy::at(150);
    const auto series = run_experiment(config, point_load(64, 0, 64000));
    EXPECT_EQ(series.switch_round, 150);
}

TEST(Runner, LocalThresholdSwitchFires)
{
    const graph g = make_torus_2d(8, 8);
    const double beta = beta_opt(torus_2d_lambda(8, 8));
    auto config = base_config(g, sos_scheme(beta));
    config.rounds = 1500;
    config.switching = switch_policy::when_local_below(10.0);
    const auto series = run_experiment(config, point_load(64, 0, 64000));
    EXPECT_GE(series.switch_round, 0);
    // After the switch the imbalance must end small (paper: drops to ~7).
    EXPECT_LE(series.max_minus_average.back(), 10.0);
}

TEST(Runner, ContinuousTwinDeviationRecorded)
{
    const graph g = make_torus_2d(6, 6);
    auto config = base_config(g, fos_scheme());
    config.rounds = 200;
    config.run_continuous_twin = true;
    const auto series = run_experiment(config, point_load(36, 0, 3600));
    ASSERT_EQ(series.deviation_from_twin.size(), series.size());
    EXPECT_DOUBLE_EQ(series.deviation_from_twin.front(), 0.0);
    for (const double d : series.deviation_from_twin) EXPECT_LT(d, 50.0);
}

TEST(Runner, ContinuousEngineRuns)
{
    const graph g = make_torus_2d(5, 5);
    auto config = base_config(g, fos_scheme());
    config.process = process_kind::continuous;
    config.rounds = 300;
    const auto outcome =
        run_experiment_with_final_load(config, point_load(25, 0, 2500));
    ASSERT_EQ(outcome.final_load_continuous.size(), 25u);
    EXPECT_TRUE(outcome.final_load.empty());
    for (const double v : outcome.final_load_continuous)
        EXPECT_NEAR(v, 100.0, 1.0);
}

TEST(Runner, CumulativeEngineRuns)
{
    const graph g = make_torus_2d(5, 5);
    auto config = base_config(g, fos_scheme());
    config.process = process_kind::cumulative;
    config.rounds = 500;
    const auto outcome =
        run_experiment_with_final_load(config, point_load(25, 0, 2500));
    ASSERT_EQ(outcome.final_load.size(), 25u);
    EXPECT_LE(outcome.series.max_minus_average.back(), 3.0);
}

TEST(Runner, RemainingImbalanceDetected)
{
    const graph g = make_torus_2d(6, 6);
    auto config = base_config(g, fos_scheme());
    config.rounds = 2500;
    config.imbalance_window = 300;
    const auto series = run_experiment(config, point_load(36, 0, 36000));
    EXPECT_TRUE(series.imbalance_converged);
    EXPECT_LE(series.remaining_imbalance, 8.0);
}

TEST(Runner, Validation)
{
    const graph g = make_cycle(4);
    auto config = base_config(g, fos_scheme());
    config.rounds = -1;
    EXPECT_THROW(run_experiment(config, point_load(4, 0, 4)),
                 std::invalid_argument);
    config.rounds = 10;
    config.diffusion.network = nullptr;
    EXPECT_THROW(run_experiment(config, point_load(4, 0, 4)),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Recorded bytes, pinned. Each case steps an identically configured engine by
// hand beside run_experiment and recomputes every recorded row with the
// metric expressions written out below, not with core/metrics.hpp, so a
// rewrite of the runner's measurement cannot move its own yardstick. Every
// column is compared bit for bit.
// ---------------------------------------------------------------------------

enum class pinned_engine { discrete_allow, discrete_prevent, continuous, cumulative };

const char* to_string(pinned_engine engine)
{
    switch (engine) {
    case pinned_engine::discrete_allow: return "discrete-allow";
    case pinned_engine::discrete_prevent: return "discrete-prevent";
    case pinned_engine::continuous: return "continuous";
    case pinned_engine::cumulative: return "cumulative";
    }
    return "?";
}

struct reference_row {
    double global = 0.0;
    double local = 0.0;
};

template <class Load>
reference_row reference_global_and_local(const graph& g,
                                         std::span<const Load> load)
{
    reference_row row;
    double sum = 0.0;
    double max_value = static_cast<double>(load.front());
    for (const Load value : load) {
        sum += static_cast<double>(value);
        max_value = std::max(max_value, static_cast<double>(value));
    }
    row.global = max_value - sum / static_cast<double>(load.size());
    for (node_id v = 0; v < g.num_nodes(); ++v)
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h) {
            const double diff = static_cast<double>(load[v]) -
                                static_cast<double>(load[g.head(h)]);
            row.local = std::max(row.local, diff < 0 ? -diff : diff);
        }
    return row;
}

/// The runner's loop, by hand: same hybrid switch, workload hook, twin and
/// step order, with every recorded value computed from the expressions
/// above. The ideal vector is rebuilt from the running total on every
/// recorded round, which is what the runner's lazily refreshed one holds.
template <class Engine>
time_series reference_run(Engine& engine, const experiment_config& config,
                          workload_hook* workload, continuous_process* twin)
{
    const graph& g = *config.diffusion.network;
    const auto n = static_cast<std::size_t>(g.num_nodes());
    hybrid_controller hybrid(config.switching);
    imbalance_tracker tracker(config.imbalance_window);
    time_series out;

    double baseline = 0.0;
    for (const auto value : engine.load()) baseline += static_cast<double>(value);
    std::vector<std::int64_t> delta(n);
    std::vector<double> view(n);

    for (std::int64_t t = 0;; ++t) {
        const auto load = engine.load();
        const reference_row row = reference_global_and_local(g, load);
        tracker.observe(row.global);
        if (t % config.record_every == 0 || t == config.rounds) {
            const std::vector<double> ideal =
                config.diffusion.speeds.ideal_load(baseline);
            double potential = 0.0;
            double min_value = static_cast<double>(load.front());
            double total = 0.0;
            for (std::size_t v = 0; v < n; ++v) {
                const double diff = static_cast<double>(load[v]) - ideal[v];
                potential += diff * diff;
                min_value = std::min(min_value, static_cast<double>(load[v]));
                total += static_cast<double>(load[v]);
            }
            out.rounds.push_back(t);
            out.max_minus_average.push_back(row.global);
            out.max_local_difference.push_back(row.local);
            out.potential_over_n.push_back(potential / static_cast<double>(n));
            out.min_load.push_back(min_value);
            out.min_transient_load.push_back(
                engine.negative_stats().min_transient_load);
            out.total_load_error.push_back(std::abs(total - baseline));
            if (twin != nullptr) {
                double deviation = 0.0;
                const auto other = twin->load();
                for (std::size_t v = 0; v < n; ++v) {
                    const double diff = static_cast<double>(load[v]) - other[v];
                    deviation = std::max(deviation, diff < 0 ? -diff : diff);
                }
                out.deviation_from_twin.push_back(deviation);
            }
        }
        if (t == config.rounds) break;

        if (hybrid.should_switch(t, row.local, row.global)) {
            engine.set_scheme(config.switch_to);
            if (twin != nullptr) twin->set_scheme(config.switch_to);
            out.switch_round = t;
        }
        if (workload != nullptr) {
            std::copy(load.begin(), load.end(), view.begin());
            std::fill(delta.begin(), delta.end(), std::int64_t{0});
            if (workload->apply(t, view, delta)) {
                engine.inject(delta);
                if (twin != nullptr) twin->inject(delta);
                for (const std::int64_t d : delta) {
                    baseline += static_cast<double>(d);
                    if (d > 0)
                        out.total_injected += d;
                    else
                        out.total_drained -= d;
                }
            }
        }
        engine.step();
        if (twin != nullptr) twin->step();
    }
    out.negative = engine.negative_stats();
    out.remaining_imbalance = tracker.remaining();
    out.imbalance_converged = tracker.converged();
    return out;
}

std::unique_ptr<workload_hook> pinned_workload(bool dynamic, node_id n)
{
    if (!dynamic) return nullptr;
    return campaign::make_workload({"poisson", 6.0, 0, 0}, n, 4242);
}

/// Builds the case's engine from `config` (a continuous twin rides along
/// the discrete engines) and runs reference_run on it.
time_series reference_series(const experiment_config& config,
                             const std::vector<std::int64_t>& initial)
{
    const auto workload =
        pinned_workload(config.workload != nullptr, static_cast<node_id>(initial.size()));
    switch (config.process) {
    case process_kind::discrete: {
        discrete_process engine(config.diffusion, initial, config.rounding,
                                config.seed, config.policy, config.exec);
        continuous_process twin(config.diffusion, to_continuous(initial),
                                config.exec);
        return reference_run(engine, config, workload.get(), &twin);
    }
    case process_kind::continuous: {
        continuous_process engine(config.diffusion, to_continuous(initial),
                                  config.exec);
        return reference_run(engine, config, workload.get(), nullptr);
    }
    case process_kind::cumulative: {
        cumulative_process engine(config.diffusion, initial, config.exec);
        return reference_run(engine, config, workload.get(), nullptr);
    }
    }
    return {};
}

void expect_same_bytes(const std::vector<double>& actual,
                       const std::vector<double>& expected, const char* column)
{
    ASSERT_EQ(actual.size(), expected.size()) << column;
    for (std::size_t i = 0; i < actual.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(actual[i]),
                  std::bit_cast<std::uint64_t>(expected[i]))
            << column << " row " << i << ": " << actual[i] << " vs "
            << expected[i];
}

void expect_same_series(const time_series& actual, const time_series& expected)
{
    EXPECT_EQ(actual.rounds, expected.rounds);
    expect_same_bytes(actual.max_minus_average, expected.max_minus_average,
                      "max_minus_average");
    expect_same_bytes(actual.max_local_difference,
                      expected.max_local_difference, "max_local_difference");
    expect_same_bytes(actual.potential_over_n, expected.potential_over_n,
                      "potential_over_n");
    expect_same_bytes(actual.min_load, expected.min_load, "min_load");
    expect_same_bytes(actual.min_transient_load, expected.min_transient_load,
                      "min_transient_load");
    expect_same_bytes(actual.total_load_error, expected.total_load_error,
                      "total_load_error");
    expect_same_bytes(actual.deviation_from_twin, expected.deviation_from_twin,
                      "deviation_from_twin");
    EXPECT_EQ(actual.switch_round, expected.switch_round);
    EXPECT_EQ(actual.total_injected, expected.total_injected);
    EXPECT_EQ(actual.total_drained, expected.total_drained);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.remaining_imbalance),
              std::bit_cast<std::uint64_t>(expected.remaining_imbalance));
    EXPECT_EQ(actual.imbalance_converged, expected.imbalance_converged);
    EXPECT_EQ(actual.negative.rounds_with_negative_end_load,
              expected.negative.rounds_with_negative_end_load);
    EXPECT_EQ(actual.negative.rounds_with_negative_transient,
              expected.negative.rounds_with_negative_transient);
}

/// A local-difference threshold that the case's unswitched trajectory first
/// reaches on a round that record_every = 7 does not record, past the first
/// third of the run: the trigger then reads a value no recorded row holds.
double unrecorded_local_threshold(experiment_config config,
                                  const std::vector<std::int64_t>& initial,
                                  std::int64_t* fires_at)
{
    config.switching = switch_policy::never();
    config.record_every = 1;
    const time_series probe = reference_series(config, initial);
    double best = std::numeric_limits<double>::infinity();
    for (std::int64_t t = 1; t < config.rounds; ++t) {
        const double local = probe.max_local_difference[static_cast<std::size_t>(t)];
        if (local < best && t >= config.rounds / 3 && t % 7 != 0) {
            *fires_at = t;
            return local;
        }
        best = std::min(best, local);
    }
    *fires_at = -1;
    return 0.0;
}

struct pin_case {
    pinned_engine engine;
    bool bimodal;
    std::int64_t record_every;
    bool dynamic;
    bool parallel;
    bool local_switch;
};

std::vector<pin_case> pin_grid()
{
    std::vector<pin_case> grid;
    for (const pinned_engine engine :
         {pinned_engine::discrete_allow, pinned_engine::discrete_prevent,
          pinned_engine::continuous, pinned_engine::cumulative})
        for (const bool bimodal : {false, true})
            for (const std::int64_t record_every : {1, 7})
                for (const bool dynamic : {false, true})
                    for (const bool parallel : {false, true})
                        for (const bool local_switch : {false, true})
                            grid.push_back({engine, bimodal, record_every,
                                            dynamic, parallel, local_switch});
    return grid;
}

TEST(RunnerPin, RecordedRowsMatchHandSteppedReference)
{
    const graph g = make_torus_2d(48, 48); // 4608 edges: two reduce chunks
    const node_id n = g.num_nodes();
    const auto initial = point_load(n, 0, std::int64_t{60} * n);
    const double beta = beta_opt(torus_2d_lambda(48, 48));
    thread_pool pool(2);

    bool saw_negative_load = false;
    for (const pin_case& c : pin_grid()) {
        std::ostringstream label;
        label << to_string(c.engine) << (c.bimodal ? " bimodal" : " uniform")
              << " record_every=" << c.record_every
              << (c.dynamic ? " poisson" : " static")
              << (c.parallel ? " pool2" : " serial")
              << (c.local_switch ? " local-switch" : "");
        SCOPED_TRACE(label.str());

        experiment_config config;
        config.diffusion = {&g, make_alpha(g, alpha_policy::max_degree_plus_one),
                            c.bimodal ? speed_profile::bimodal(n, 0.1, 4.0, 99)
                                      : speed_profile::uniform(n),
                            sos_scheme(beta)};
        config.process = c.engine == pinned_engine::continuous
                             ? process_kind::continuous
                         : c.engine == pinned_engine::cumulative
                             ? process_kind::cumulative
                             : process_kind::discrete;
        config.policy = c.engine == pinned_engine::discrete_prevent
                            ? negative_load_policy::prevent
                            : negative_load_policy::allow;
        config.seed = 17;
        config.rounds = 45;
        config.record_every = c.record_every;
        config.imbalance_window = 8;
        config.run_continuous_twin = config.process == process_kind::discrete;
        config.exec = c.parallel ? &pool : nullptr;
        const auto workload = pinned_workload(c.dynamic, n);
        config.workload = workload.get();

        std::int64_t fires_at = -1;
        if (c.local_switch) {
            config.switching = switch_policy::when_local_below(
                unrecorded_local_threshold(config, initial, &fires_at));
            ASSERT_GT(fires_at, 0) << "no unrecorded round sets a new minimum";
        }

        const time_series actual = run_experiment(config, initial);
        const time_series expected = reference_series(config, initial);
        expect_same_series(actual, expected);
        EXPECT_EQ(expected.switch_round, fires_at);
        for (const double value : expected.min_load) {
            if (c.engine == pinned_engine::discrete_allow)
                saw_negative_load = saw_negative_load || value < 0.0;
            if (c.engine == pinned_engine::discrete_prevent) {
                EXPECT_GE(value, 0.0);
            }
        }
        if (HasFatalFailure()) return;
    }
    EXPECT_TRUE(saw_negative_load)
        << "the allow cases must drive some load negative";
}

TEST(RunnerPin, ZipfDynamicRunMeasuresAgainstThePerNodeIdeal)
{
    // Under zipf speeds the runner keeps only the ideal's basis total, and
    // measure_round derives each node's ideal load from it. A poisson run
    // recording every 7 rounds leaves the ideal stale between recorded
    // rounds: every engine's series equals the hand-stepped reference,
    // whose rows sum against speed_profile::ideal_load's vector. A run
    // resumed from the round-40 snapshot, taken while the ideal was stale,
    // finishes with the same series.
    const graph g = make_torus_2d(16, 16);
    const node_id n = g.num_nodes();
    const auto initial = point_load(n, 0, std::int64_t{60} * n);
    for (const process_kind process :
         {process_kind::discrete, process_kind::continuous,
          process_kind::cumulative}) {
        SCOPED_TRACE(std::string(to_string(process)));
        experiment_config config =
            base_config(g, sos_scheme(beta_opt(torus_2d_lambda(16, 16))));
        config.diffusion.speeds = speed_profile::zipf(n, 1.0, 8.0, 13);
        config.process = process;
        config.seed = 17;
        config.rounds = 45;
        config.record_every = 7;
        config.imbalance_window = 8;
        config.run_continuous_twin = process == process_kind::discrete;
        const auto workload = pinned_workload(true, n);
        config.workload = workload.get();
        expect_same_series(run_experiment(config, initial),
                           reference_series(config, initial));

        // Resuming runs no twin.
        config.run_continuous_twin = false;
        const auto full_workload = pinned_workload(true, n);
        config.workload = full_workload.get();
        const time_series full = run_experiment(config, initial);
        const std::string path = ::testing::TempDir() + "dlb_runner_zipf_" +
                                 std::string(to_string(process)) + ".ckpt";
        const auto checkpointing_workload = pinned_workload(true, n);
        config.workload = checkpointing_workload.get();
        config.checkpoint_every = 10;
        config.checkpoint_path = path;
        run_experiment(config, initial);
        const engine_checkpoint snapshot = read_checkpoint_file(path);
        std::remove(path.c_str());
        ASSERT_EQ(snapshot.round, 40);
        EXPECT_TRUE(snapshot.runner.ideal_stale);
        EXPECT_NE(snapshot.runner.ideal_basis, snapshot.runner.baseline_total);

        const auto resumed_workload = pinned_workload(true, n);
        config.workload = resumed_workload.get();
        config.checkpoint_every = 0;
        config.checkpoint_path.clear();
        config.resume = &snapshot;
        expect_same_series(run_experiment(config, initial), full);
    }
}

TEST(RunnerPin, FinalLoadRunRecordsTheSameSeries)
{
    // run_experiment records exactly what run_experiment_with_final_load
    // does, and the latter hands back the load its last row measured.
    const graph g = make_torus_2d(16, 16);
    const node_id n = g.num_nodes();
    const auto initial = point_load(n, 3, std::int64_t{40} * n);
    for (const process_kind process :
         {process_kind::discrete, process_kind::continuous,
          process_kind::cumulative})
        for (const bool bimodal : {false, true})
            for (const bool dynamic : {false, true}) {
                SCOPED_TRACE(std::string(to_string(process)) +
                             (bimodal ? " bimodal" : " uniform") +
                             (dynamic ? " poisson" : " static"));
                experiment_config config =
                    base_config(g, sos_scheme(beta_opt(torus_2d_lambda(16, 16))));
                if (bimodal)
                    config.diffusion.speeds =
                        speed_profile::bimodal(n, 0.2, 3.0, 5);
                config.process = process;
                config.rounds = 30;
                config.record_every = 7;
                config.run_continuous_twin = process == process_kind::discrete;
                const auto plain_workload = pinned_workload(dynamic, n);
                config.workload = plain_workload.get();
                const time_series plain = run_experiment(config, initial);

                const auto final_workload = pinned_workload(dynamic, n);
                config.workload = final_workload.get();
                const experiment_outcome outcome =
                    run_experiment_with_final_load(config, initial);
                expect_same_series(plain, outcome.series);

                const bool continuous = process == process_kind::continuous;
                const auto expected_size = static_cast<std::size_t>(n);
                ASSERT_EQ(outcome.final_load.size(), continuous ? 0 : expected_size);
                ASSERT_EQ(outcome.final_load_continuous.size(),
                          continuous ? expected_size : 0);
                const double last_global = outcome.series.max_minus_average.back();
                const double last_min = outcome.series.min_load.back();
                if (continuous) {
                    const std::span<const double> load(outcome.final_load_continuous);
                    EXPECT_EQ(max_minus_average(load), last_global);
                    EXPECT_EQ(min_load(load), last_min);
                } else {
                    const std::span<const std::int64_t> load(outcome.final_load);
                    EXPECT_EQ(max_minus_average(load), last_global);
                    EXPECT_EQ(min_load(load), last_min);
                }
            }
}

TEST(Recorder, CsvRoundTrip)
{
    const graph g = make_torus_2d(4, 4);
    auto config = base_config(g, fos_scheme());
    config.rounds = 20;
    config.record_every = 5;
    const auto series = run_experiment(config, point_load(16, 0, 1600));

    const std::string path = ::testing::TempDir() + "dlb_runner_series.csv";
    write_csv(path, series);
    std::ifstream in(path);
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) ++lines;
    EXPECT_EQ(lines, 1 + static_cast<int>(series.size()));
    std::remove(path.c_str());
}

TEST(Recorder, SummaryMentionsKeyNumbers)
{
    const graph g = make_torus_2d(4, 4);
    auto config = base_config(g, fos_scheme());
    config.rounds = 10;
    const auto series = run_experiment(config, point_load(16, 0, 160));
    std::ostringstream out;
    print_summary(out, "unit-test", series);
    const std::string text = out.str();
    EXPECT_NE(text.find("unit-test"), std::string::npos);
    EXPECT_NE(text.find("max-avg"), std::string::npos);
    print_series(out, "max-avg", series, &time_series::max_minus_average, 5);
    EXPECT_NE(out.str().find("[0]"), std::string::npos);
}

} // namespace
} // namespace dlb
