// Campaign scheduler: the per-scenario cost model and the cost-balanced
// shard partitioner. The contract under test: partitions are pure functions
// of the spec (so independently launched shard processes agree), they cover
// the expansion exactly once, equal costs reduce to round-robin, and on a
// heterogeneous nodes x rounds sweep the worst LPT shard is strictly
// cheaper than a round-robin split's — the wall-clock tail the scheduler
// exists to cut.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "campaign/cost_model.hpp"
#include "campaign/spec.hpp"

namespace dlb {
namespace {

using namespace dlb::campaign;

scenario_spec make_spec(std::int64_t nodes, std::int64_t rounds)
{
    scenario_spec spec;
    spec.nodes = nodes;
    spec.rounds = rounds;
    return spec;
}

// The heterogeneous sweep from the acceptance criteria: three node scales
// crossed with three round budgets — a 4096x cost spread between the
// cheapest and most expensive cell, the shape round-robin balances worst
// (the expansion orders costs ascending, so one round-robin shard draws
// the single dominant 65536 x 1600 cell on top of a mid-weight mix).
std::vector<scenario_spec> heterogeneous_sweep()
{
    campaign_spec spec;
    spec.base.rounds = 100;
    spec.axes["nodes"] = {"256", "4096", "65536"};
    spec.axes["rounds"] = {"100", "400", "1600"};
    return expand(spec);
}

TEST(CostModel, GrowsWithNodesAndRounds)
{
    const double base = scenario_cost(make_spec(1024, 100));
    EXPECT_GT(scenario_cost(make_spec(4096, 100)), base);
    EXPECT_GT(scenario_cost(make_spec(1024, 500)), base);
    // Roughly proportional: 4x nodes is ~4x cost (the +1 floor is noise).
    EXPECT_NEAR(scenario_cost(make_spec(4096, 100)) / base, 4.0, 0.1);
}

TEST(CostModel, EngineAndRoundingWeightsOrderAsCalibrated)
{
    scenario_spec randomized = make_spec(1024, 100);
    scenario_spec floor_rounding = randomized;
    floor_rounding.rounding = "floor";
    scenario_spec continuous = randomized;
    continuous.process = "continuous";
    scenario_spec cumulative = randomized;
    cumulative.process = "cumulative";

    // bench_micro_step ordering: fused floor sweep < randomized owner pass;
    // continuous (no rounding) < discrete < cumulative (matching baseline).
    EXPECT_LT(scenario_cost(floor_rounding), scenario_cost(randomized));
    EXPECT_LT(scenario_cost(continuous), scenario_cost(randomized));
    EXPECT_GT(scenario_cost(cumulative), scenario_cost(randomized));

    // Rounding weights only model the discrete engine's rounding pass.
    scenario_spec continuous_floor = continuous;
    continuous_floor.rounding = "floor";
    EXPECT_EQ(scenario_cost(continuous_floor), scenario_cost(continuous));

    // Zero-round scenarios still cost something (the setup floor).
    EXPECT_GT(scenario_cost(make_spec(1024, 0)), 0.0);
}

void expect_exact_cover(const std::vector<std::vector<std::int64_t>>& shards,
                        std::size_t count)
{
    std::vector<int> seen(count, 0);
    for (const auto& shard : shards) {
        EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
        for (const std::int64_t i : shard) {
            ASSERT_GE(i, 0);
            ASSERT_LT(static_cast<std::size_t>(i), count);
            ++seen[static_cast<std::size_t>(i)];
        }
    }
    for (const int n : seen) EXPECT_EQ(n, 1);
}

TEST(CostModel, PartitionCoversTheExpansionExactly)
{
    const auto scenarios = heterogeneous_sweep();
    for (const std::int64_t n : {1, 2, 4, 7})
        expect_exact_cover(partition_scenarios(scenarios, n),
                           scenarios.size());
    // More shards than scenarios: some shards legitimately end up empty.
    expect_exact_cover(partition_scenarios(scenarios, 100), scenarios.size());
}

TEST(CostModel, CostBalanceBeatsRoundRobinOnHeterogeneousSweep)
{
    const auto scenarios = heterogeneous_sweep();
    for (const std::int64_t n : {2, 4}) {
        // The round-robin baseline: index i on shard i mod n.
        const auto count = static_cast<std::int64_t>(scenarios.size());
        std::vector<std::vector<std::int64_t>> rr(static_cast<std::size_t>(n));
        for (std::int64_t i = 0; i < count; ++i)
            rr[static_cast<std::size_t>(i % n)].push_back(i);
        const auto lpt = partition_scenarios(scenarios, n);
        double rr_max = 0.0, lpt_max = 0.0;
        for (const auto& shard : rr)
            rr_max = std::max(rr_max, shard_cost(scenarios, shard));
        for (const auto& shard : lpt)
            lpt_max = std::max(lpt_max, shard_cost(scenarios, shard));
        EXPECT_LT(lpt_max, rr_max)
            << n << "-way LPT should strictly beat round-robin here";
    }
}

TEST(CostModel, PartitionIsDeterministic)
{
    // Equal-cost scenarios everywhere: assignment is decided purely by the
    // deterministic tie-breaks (ascending index onto the lowest shard id),
    // so repeated calls — i.e. independently launched shard processes —
    // must produce the identical partition, and it is round-robin.
    std::vector<scenario_spec> uniform(12, make_spec(1024, 100));
    const auto a = partition_scenarios(uniform, 5);
    const auto b = partition_scenarios(uniform, 5);
    EXPECT_EQ(a, b);
    for (std::size_t s = 0; s < a.size(); ++s)
        for (const std::int64_t i : a[s])
            EXPECT_EQ(i % 5, static_cast<std::int64_t>(s));

    const auto scenarios = heterogeneous_sweep();
    EXPECT_EQ(partition_scenarios(scenarios, 4),
              partition_scenarios(scenarios, 4));
}

TEST(CostModel, InvalidShardCountThrows)
{
    EXPECT_THROW(partition_scenarios(heterogeneous_sweep(), 0),
                 std::invalid_argument);
}

} // namespace
} // namespace dlb
