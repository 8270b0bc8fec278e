#include "campaign/cost_model.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace dlb::campaign {

namespace {

// Weight factors: relative per-(node, round) work of the engine loop,
// calibrated against bench_micro_step on the reference machine (the
// absolute scale is arbitrary — only ratios matter to the partitioner):
//
//   bm_discrete_step_sos / bm_discrete_step_fos   — discrete engines; FOS
//     skips the second-order memory term (~0.9x of an SOS step).
//   bm_continuous_step_sos                        — no rounding pass and no
//     token walk, ~0.55x of the discrete step.
//   bm_cumulative_step                            — the PODC'12 matching
//     baseline does per-round matching work on top, ~1.4x.
//   bm_rounding/{randomized,floor,nearest,bernoulli} — the rounding sweep:
//     floor/nearest are one fused branch-free pass (~0.6x of a step whose
//     randomized rounding drew from per-(node, round) xoshiro streams);
//     bernoulli_edge sits just under randomized (0.9x). Counter-based
//     draws cut both randomized steps to ~1/1.15 of that (the 0.87).
double process_weight(const scenario_spec& spec)
{
    if (spec.process == "continuous") return 0.55;
    if (spec.process == "cumulative") return 1.4;
    return 1.0; // discrete (and anything unknown: resolution rejects later)
}

double rounding_weight(const scenario_spec& spec)
{
    if (spec.process != "discrete") return 1.0; // only discrete engines round
    if (spec.rounding == "floor" || spec.rounding == "nearest") return 0.6;
    if (spec.rounding == "bernoulli_edge") return 0.9 * 0.87;
    return 0.87; // randomized
}

double scheme_weight(const scenario_spec& spec)
{
    return spec.scheme == "fos" ? 0.9 : 1.0; // no second-order memory term
}

} // namespace

double scenario_cost(const scenario_spec& spec)
{
    const double nodes = static_cast<double>(std::max<std::int64_t>(spec.nodes, 1));
    const double rounds =
        static_cast<double>(std::max<std::int64_t>(spec.rounds, 0));
    const double loop = nodes * rounds * process_weight(spec) *
                        rounding_weight(spec) * scheme_weight(spec);
    // Constant floor: setup (graph resolution, load placement) never costs
    // zero, and zero-cost scenarios would make LPT tie-breaking carry all
    // the weight.
    return 1.0 + loop;
}

std::vector<std::int64_t> lpt_order(const std::vector<scenario_spec>& scenarios)
{
    std::vector<std::int64_t> order(scenarios.size());
    std::iota(order.begin(), order.end(), std::int64_t{0});
    std::vector<double> costs(scenarios.size());
    for (std::size_t i = 0; i < scenarios.size(); ++i)
        costs[i] = scenario_cost(scenarios[i]);
    // Stable on the iota order, so equal costs keep ascending indices.
    std::stable_sort(order.begin(), order.end(),
                     [&](std::int64_t a, std::int64_t b) {
                         return costs[static_cast<std::size_t>(a)] >
                                costs[static_cast<std::size_t>(b)];
                     });
    return order;
}

std::vector<std::vector<std::int64_t>>
partition_scenarios(const std::vector<scenario_spec>& scenarios,
                    std::int64_t shard_count)
{
    if (shard_count < 1)
        throw std::invalid_argument("partition: shard count must be >= 1");

    // Greedy LPT: heaviest scenario first onto the currently cheapest
    // shard. Load ties break on the lowest shard id, so the partition is a
    // pure function of the spec — every independently launched shard
    // process computes the same assignment.
    std::vector<std::vector<std::int64_t>> shards(
        static_cast<std::size_t>(shard_count));
    std::vector<double> load(static_cast<std::size_t>(shard_count), 0.0);
    for (const std::int64_t i : lpt_order(scenarios)) {
        std::size_t lightest = 0;
        for (std::size_t s = 1; s < load.size(); ++s)
            if (load[s] < load[lightest]) lightest = s;
        shards[lightest].push_back(i);
        load[lightest] += scenario_cost(scenarios[static_cast<std::size_t>(i)]);
    }
    // Each shard runs (and reports progress) in global expansion order.
    for (auto& shard : shards) std::sort(shard.begin(), shard.end());
    return shards;
}

double shard_cost(const std::vector<scenario_spec>& scenarios,
                  const std::vector<std::int64_t>& indices)
{
    double total = 0.0;
    for (const std::int64_t i : indices)
        total += scenario_cost(scenarios.at(static_cast<std::size_t>(i)));
    return total;
}

} // namespace dlb::campaign
