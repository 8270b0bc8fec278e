// Tests for the dynamic workload models and their runner integration:
// determinism, non-negative draining, and token conservation modulo
// injection for every engine.
#include <gtest/gtest.h>

#include <numeric>

#include "campaign/workload.hpp"
#include "core/alpha.hpp"
#include "graph/generators.hpp"
#include "sim/initial_load.hpp"
#include "sim/runner.hpp"

namespace dlb {
namespace {

using campaign::make_workload;
using campaign::poisson_sample;
using campaign::workload_spec;

TEST(PoissonSample, DeterministicAndShapedLikePoisson)
{
    xoshiro256ss a(42), b(42);
    EXPECT_EQ(poisson_sample(a, 7.5), poisson_sample(b, 7.5));

    xoshiro256ss rng(1);
    EXPECT_EQ(poisson_sample(rng, 0.0), 0);

    // Large means go through the chunked path; the sample mean over many
    // draws must land near the target.
    double sum = 0.0;
    const int draws = 400;
    for (int i = 0; i < draws; ++i)
        sum += static_cast<double>(poisson_sample(rng, 100.0));
    EXPECT_NEAR(sum / draws, 100.0, 2.5);

    EXPECT_THROW(poisson_sample(rng, -1.0), std::invalid_argument);
}

TEST(Workload, FactoryValidation)
{
    EXPECT_EQ(make_workload({"static", 0, 0, 0}, 10, 1), nullptr);
    EXPECT_NE(make_workload({"poisson", 2.0, 0, 0}, 10, 1), nullptr);
    EXPECT_NE(make_workload({"burst", 0, 100, 10}, 10, 1), nullptr);
    EXPECT_NE(make_workload({"drain", 2.0, 0, 0}, 10, 1), nullptr);
    EXPECT_THROW(make_workload({"no_such_kind", 0, 0, 0}, 10, 1),
                 std::invalid_argument);
    EXPECT_THROW(make_workload({"burst", 0, 100, 0}, 10, 1),
                 std::invalid_argument); // period must be >= 1
    EXPECT_THROW(make_workload({"poisson", -1.0, 0, 0}, 10, 1),
                 std::invalid_argument);
}

TEST(Workload, PoissonDeltasAreDeterministicPerRound)
{
    const node_id n = 20;
    auto hook_a = make_workload({"poisson", 6.0, 0, 0}, n, 99);
    auto hook_b = make_workload({"poisson", 6.0, 0, 0}, n, 99);
    const std::vector<double> load(n, 10.0);
    std::vector<std::int64_t> delta_a(n, 0), delta_b(n, 0);
    for (std::int64_t round = 0; round < 20; ++round) {
        std::fill(delta_a.begin(), delta_a.end(), 0);
        std::fill(delta_b.begin(), delta_b.end(), 0);
        hook_a->apply(round, load, delta_a);
        hook_b->apply(round, load, delta_b);
        EXPECT_EQ(delta_a, delta_b) << round;
        for (const auto d : delta_a) EXPECT_GE(d, 0);
    }
}

TEST(Workload, PoissonDeltasDifferAcrossSeeds)
{
    // Each seed draws its own arrival pattern.
    const node_id n = 20;
    auto hook_a = make_workload({"poisson", 6.0, 0, 0}, n, 99);
    auto hook_b = make_workload({"poisson", 6.0, 0, 0}, n, 100);
    const std::vector<double> load(n, 10.0);
    std::vector<std::int64_t> delta_a(n, 0), delta_b(n, 0);
    bool differs = false;
    for (std::int64_t round = 0; round < 20; ++round) {
        std::fill(delta_a.begin(), delta_a.end(), 0);
        std::fill(delta_b.begin(), delta_b.end(), 0);
        hook_a->apply(round, load, delta_a);
        hook_b->apply(round, load, delta_b);
        differs |= delta_a != delta_b;
    }
    EXPECT_TRUE(differs);
}

TEST(PoissonSample, CounterRngMatchesMeanToo)
{
    // The template accepts any generator; the per-round counter stream
    // the workloads draw from produces the right Poisson mean as well.
    counter_rng rng(5, 0, 0);
    const double mean = 40.0; // crosses the 32-token chunking boundary
    const int samples = 20000;
    double sum = 0.0;
    for (int i = 0; i < samples; ++i)
        sum += static_cast<double>(poisson_sample(rng, mean));
    EXPECT_NEAR(sum / samples, mean, 0.35); // 5 sigma ~ 0.22
}

TEST(Workload, BurstFiresOnPeriodBoundaries)
{
    const node_id n = 8;
    auto hook = make_workload({"burst", 0, 500, 25}, n, 7);
    const std::vector<double> load(n, 0.0);
    std::vector<std::int64_t> delta(n, 0);
    std::int64_t injected = 0;
    for (std::int64_t round = 0; round < 101; ++round) {
        std::fill(delta.begin(), delta.end(), 0);
        const bool any = hook->apply(round, load, delta);
        const std::int64_t sum =
            std::accumulate(delta.begin(), delta.end(), std::int64_t{0});
        if (round != 0 && round % 25 == 0) {
            EXPECT_TRUE(any) << round;
            EXPECT_EQ(sum, 500) << round;
        } else {
            EXPECT_FALSE(any) << round;
            EXPECT_EQ(sum, 0) << round;
        }
        injected += sum;
    }
    EXPECT_EQ(injected, 4 * 500);
}

TEST(Workload, BurstNeverFiresAtRoundZero)
{
    // Regression: 0 % period == 0 used to inject before the scheme had run
    // a single round (the same defect class as the hybrid round-0 trigger).
    // The first burst must land at round `period`, even for period 1.
    for (const std::int64_t period : {1, 2, 25}) {
        auto hook = make_workload({"burst", 0, 100, period}, 8, 7);
        const std::vector<double> load(8, 0.0);
        std::vector<std::int64_t> delta(8, 0);
        EXPECT_FALSE(hook->apply(0, load, delta)) << "period " << period;
        EXPECT_EQ(std::accumulate(delta.begin(), delta.end(), std::int64_t{0}), 0)
            << "period " << period;
        std::fill(delta.begin(), delta.end(), 0);
        EXPECT_TRUE(hook->apply(period, load, delta)) << "period " << period;
        EXPECT_EQ(std::accumulate(delta.begin(), delta.end(), std::int64_t{0}),
                  100)
            << "period " << period;
    }
}

TEST(Workload, DrainNeverTakesFromEmptyNodes)
{
    const node_id n = 10;
    auto hook = make_workload({"drain", 50.0, 0, 0}, n, 3);
    // Half the nodes are empty; heavy drain pressure must not touch them.
    std::vector<double> load(n, 0.0);
    for (node_id v = 0; v < n; v += 2) load[v] = 3.0;
    std::vector<std::int64_t> delta(n, 0);
    for (std::int64_t round = 0; round < 10; ++round) {
        std::fill(delta.begin(), delta.end(), 0);
        hook->apply(round, load, delta);
        for (node_id v = 0; v < n; ++v) {
            EXPECT_LE(load[v] + static_cast<double>(delta[v]),
                      load[v]); // drain only removes
            EXPECT_GE(load[v] + static_cast<double>(delta[v]), 0.0) << v;
        }
    }
}

struct runner_fixture {
    graph g = make_torus_2d(6, 6);
    experiment_config config;

    explicit runner_fixture(const char* workload_kind)
    {
        config.diffusion = {&g, make_alpha(g, alpha_policy::max_degree_plus_one),
                            speed_profile::uniform(g.num_nodes()), fos_scheme()};
        config.rounds = 150;
        spec.kind = workload_kind;
        spec.rate = 8.0;
        spec.amount = 200;
        spec.period = 20;
    }

    workload_spec spec;
};

TEST(WorkloadRunner, DiscreteConservationModuloInjection)
{
    for (const char* kind : {"static", "poisson", "burst", "drain"}) {
        runner_fixture fixture(kind);
        auto hook = make_workload(fixture.spec, fixture.g.num_nodes(), 11);
        fixture.config.workload = hook.get();
        const auto outcome = run_experiment_with_final_load(
            fixture.config, point_load(fixture.g.num_nodes(), 0, 3600));
        const auto& series = outcome.series;

        // Exact conservation modulo the recorded injection at every sample.
        for (const double error : series.total_load_error)
            EXPECT_EQ(error, 0.0) << kind;

        const std::int64_t final_total = std::accumulate(
            outcome.final_load.begin(), outcome.final_load.end(),
            std::int64_t{0});
        EXPECT_EQ(final_total,
                  3600 + series.total_injected - series.total_drained)
            << kind;

        if (std::string(kind) == "static") {
            EXPECT_EQ(series.total_injected, 0);
            EXPECT_EQ(series.total_drained, 0);
        } else if (std::string(kind) == "drain") {
            EXPECT_GT(series.total_drained, 0);
            EXPECT_EQ(series.total_injected, 0);
        } else {
            EXPECT_GT(series.total_injected, 0);
            EXPECT_EQ(series.total_drained, 0);
        }
    }
}

TEST(WorkloadRunner, ContinuousEngineAbsorbsInjection)
{
    runner_fixture fixture("poisson");
    fixture.config.process = process_kind::continuous;
    auto hook = make_workload(fixture.spec, fixture.g.num_nodes(), 11);
    fixture.config.workload = hook.get();
    const auto outcome = run_experiment_with_final_load(
        fixture.config, point_load(fixture.g.num_nodes(), 0, 3600));
    EXPECT_GT(outcome.series.total_injected, 0);
    for (const double error : outcome.series.total_load_error)
        EXPECT_NEAR(error, 0.0, 1e-6);
}

TEST(WorkloadRunner, CumulativeEngineAbsorbsInjection)
{
    runner_fixture fixture("burst");
    fixture.config.process = process_kind::cumulative;
    auto hook = make_workload(fixture.spec, fixture.g.num_nodes(), 11);
    fixture.config.workload = hook.get();
    const auto series = run_experiment(fixture.config,
                                       point_load(fixture.g.num_nodes(), 0, 3600));
    EXPECT_GT(series.total_injected, 0);
    for (const double error : series.total_load_error)
        EXPECT_EQ(error, 0.0);
}

TEST(WorkloadRunner, TwinReceivesTheSameInjection)
{
    runner_fixture fixture("poisson");
    fixture.config.run_continuous_twin = true;
    auto hook = make_workload(fixture.spec, fixture.g.num_nodes(), 11);
    fixture.config.workload = hook.get();
    const auto series = run_experiment(fixture.config,
                                       point_load(fixture.g.num_nodes(), 0, 3600));
    ASSERT_EQ(series.deviation_from_twin.size(), series.size());
    // The twin gets identical deltas, so the deviation stays the usual
    // rounding-error magnitude instead of drifting with the injected load.
    for (const double deviation : series.deviation_from_twin)
        EXPECT_LT(deviation, 50.0);
}

TEST(ProcessInject, DirectInjectKeepsConservationLedger)
{
    graph g = make_cycle(8);
    diffusion_config config{&g, make_alpha(g, alpha_policy::max_degree_plus_one),
                            speed_profile::uniform(8), fos_scheme()};
    discrete_process process(config, balanced_load(8, 10),
                             rounding_kind::randomized, 5);
    EXPECT_TRUE(process.verify_conservation());

    std::vector<std::int64_t> delta(8, 0);
    delta[2] = 7;
    delta[5] = -3;
    process.inject(delta);
    EXPECT_EQ(process.external_total(), 4);
    EXPECT_TRUE(process.verify_conservation());
    process.run(25);
    EXPECT_TRUE(process.verify_conservation());
    EXPECT_EQ(process.total_load(), 84);

    std::vector<std::int64_t> wrong_size(5, 1);
    EXPECT_THROW(process.inject(wrong_size), std::invalid_argument);
}

} // namespace
} // namespace dlb
