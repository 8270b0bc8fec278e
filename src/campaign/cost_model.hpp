// Campaign scheduler: per-scenario cost model and cost-balanced sharding.
//
// A round-robin split of the expansion balances wall clock only when
// scenario cost is roughly uniform along the expansion order. A
// heterogeneous sweep (e.g. nodes 256,4096,65536) breaks that: one shard
// draws the large-`nodes` x long-`rounds` cells and becomes the tail every
// other machine waits on. The cost model predicts each scenario's relative
// round-loop work (nodes x rounds, scaled by per-engine and per-rounding
// weight factors calibrated from bench_micro_step), and `--shard i/N`
// assigns scenarios greedily (LPT: heaviest scenario first onto the
// currently lightest shard) with deterministic index-order tie-breaking,
// so every shard process computes the identical partition from the spec
// alone. On equal costs LPT is exactly round-robin.
//
// Global scenario indices are preserved, so `--merge` reassembles the
// byte-identical full report; the merge validates coverage, not the
// assignment.
#ifndef DLB_CAMPAIGN_COST_MODEL_HPP
#define DLB_CAMPAIGN_COST_MODEL_HPP

#include <cstdint>
#include <vector>

#include "campaign/spec.hpp"

namespace dlb::campaign {

/// Predicted relative cost of one scenario: nodes x rounds scaled by
/// per-engine (process) and per-rounding weight factors, with a small
/// constant floor so zero-round scenarios still schedule. The weights are
/// calibrated from bench_micro_step step timings (see cost_model.cpp); the
/// model only needs to rank and proportion scenarios against each other,
/// not predict seconds.
double scenario_cost(const scenario_spec& spec);

/// Every index of `scenarios` in LPT (longest processing time first)
/// order: descending scenario_cost, ties by ascending index. The shard
/// partitioner deals scenarios out in this order; the lease queue leases
/// them in it.
std::vector<std::int64_t> lpt_order(const std::vector<scenario_spec>& scenarios);

/// Splits `scenarios` into `shard_count` disjoint index lists (ascending
/// global expansion indices, every index in exactly one list) by greedy LPT
/// on scenario_cost: indices in lpt_order go to the currently cheapest
/// shard (ties: lowest shard id). When every scenario costs the same, shard
/// s owns the indices ≡ s (mod shard_count). Pure function of (scenarios,
/// shard_count), so independently launched shard processes agree on the
/// partition. Throws std::invalid_argument when shard_count < 1.
std::vector<std::vector<std::int64_t>>
partition_scenarios(const std::vector<scenario_spec>& scenarios,
                    std::int64_t shard_count);

/// Sum of scenario_cost over one shard's index list (scheduler diagnostics
/// and the balance-quality tests).
double shard_cost(const std::vector<scenario_spec>& scenarios,
                  const std::vector<std::int64_t>& indices);

} // namespace dlb::campaign

#endif // DLB_CAMPAIGN_COST_MODEL_HPP
