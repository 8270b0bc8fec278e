// Golden determinism suite for the node-slice round kernels.
//
// Two bitwise guarantees are pinned here:
//
//  1. The library kernels (the discrete engine's two-sweep round with its
//     blocked owner walk and prevent clip, round_flows, scheduled_flows,
//     and the continuous and cumulative rounds) produce bit-for-bit the
//     same output as the plain two-sided, early-exit kernels and steps of
//     reference_kernels.hpp. Reference pipelines re-implementing the old
//     engine rounds drive the comparison over real engine trajectories, so
//     every `time_series` a run records is byte-identical to what the
//     reference kernels produce: the series is a pure function of the
//     per-round load state, which is compared exactly here.
//
//  2. Engine output is byte-identical across executors: serial_executor and
//     thread_pool with 1, 2 and 8 workers (1, 2 and 4 on the graphs of four
//     parallel_reduce chunks), across all three engines, all four
//     roundings, both negative-load policies, and a hybrid-switch Chebyshev
//     long run (>= 4000 rounds, which is only affordable because the
//     engines carry the omega recurrence in O(1)).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/registry.hpp"
#include "campaign/workload.hpp"
#include "core/alpha.hpp"
#include "obs/obs.hpp"
#include "core/beta.hpp"
#include "core/checkpoint.hpp"
#include "core/cumulative_baseline.hpp"
#include "core/diffusion_matrix.hpp"
#include "core/process.hpp"
#include "core/rounding.hpp"
#include "core/scheme.hpp"
#include "graph/generators.hpp"
#include "reference_kernels.hpp"
#include "sim/initial_load.hpp"
#include "sim/runner.hpp"
#include "sim/thread_pool.hpp"
#include "util/rng.hpp"

namespace dlb {
namespace {

template <class T>
bool bytes_equal(const std::vector<T>& a, const std::vector<T>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <class T>
bool bytes_equal(std::span<const T> a, const std::vector<T>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Byte-level equality of every recorded series field (memcmp, so it also
/// distinguishes -0.0 from +0.0 and would catch any reordered combine).
void expect_series_identical(const time_series& a, const time_series& b,
                             const std::string& label)
{
    EXPECT_TRUE(bytes_equal(a.rounds, b.rounds)) << label;
    EXPECT_TRUE(bytes_equal(a.max_minus_average, b.max_minus_average)) << label;
    EXPECT_TRUE(bytes_equal(a.max_local_difference, b.max_local_difference))
        << label;
    EXPECT_TRUE(bytes_equal(a.potential_over_n, b.potential_over_n)) << label;
    EXPECT_TRUE(bytes_equal(a.min_load, b.min_load)) << label;
    EXPECT_TRUE(bytes_equal(a.min_transient_load, b.min_transient_load)) << label;
    EXPECT_TRUE(bytes_equal(a.deviation_from_twin, b.deviation_from_twin))
        << label;
    EXPECT_TRUE(bytes_equal(a.total_load_error, b.total_load_error)) << label;
    EXPECT_EQ(a.switch_round, b.switch_round) << label;
    EXPECT_EQ(a.total_injected, b.total_injected) << label;
    EXPECT_EQ(a.total_drained, b.total_drained) << label;
    EXPECT_EQ(std::memcmp(&a.negative, &b.negative, sizeof a.negative), 0)
        << label;
    EXPECT_EQ(a.remaining_imbalance, b.remaining_imbalance) << label;
    EXPECT_EQ(a.imbalance_converged, b.imbalance_converged) << label;
}

struct golden_case {
    std::string name;
    graph g;
    speed_profile speeds;
    std::vector<std::int64_t> initial;
    double beta = 0.0; // 0: beta_opt of the case's lambda
};

std::vector<golden_case> golden_topologies()
{
    std::vector<golden_case> cases;
    const auto point = [](node_id n) { return point_load(n, 0, n * 500LL); };
    cases.push_back(
        {"torus", make_torus_2d(8, 8), speed_profile::uniform(64), point(64)});
    cases.push_back({"hypercube", make_hypercube(6), speed_profile::uniform(64),
                     point(64)});
    {
        graph g = make_random_regular_cm(60, 5, 17);
        const node_id n = g.num_nodes();
        cases.push_back({"random_regular_zipf_speeds", std::move(g),
                         speed_profile::zipf(n, 1.0, 8.0, 23), point(n)});
    }
    // Graphs larger than one randomized owner block: the 67x67 torus (4489
    // nodes, a partial last block, a partial second reduce chunk) under a
    // 3-token random load that keeps fractional flows on every node, a
    // degree that is not a multiple of four, and degree 599, above the
    // block's half-edge bound. On K_600 lambda is 0, so beta_opt is 1 and
    // the point load balances in one round; beta 1.8 keeps SOS moving.
    cases.push_back({"torus_67x67", make_torus_2d(67, 67),
                     speed_profile::uniform(4489), random_load(4489, 3 * 4489, 5)});
    cases.push_back({"random_regular_degree7", make_random_regular_cm(200, 7, 29),
                     speed_profile::uniform(200), point(200)});
    cases.push_back({"complete_600", make_complete(600), speed_profile::uniform(600),
                     point(600), 1.8});
    // A grid: degrees 2, 3 and 4 give alpha 1/4 on the boundary and 1/5
    // inside, so its engines read alpha per half-edge, as on the
    // configuration-model graphs (whose erasure leaves some degrees below
    // d). Under this load seed floor rounding clips too (3 tokens), as it
    // does on the 67x67 torus.
    cases.push_back({"grid_37x23", make_grid_2d(37, 23), speed_profile::uniform(851),
                     random_load(851, 3 * 851, 23)});
    return cases;
}

/// One old-style engine round: the exact pre-refactor pipeline built from
/// the retained reference kernels, the prevent clip and the (unchanged)
/// apply rule.
struct reference_pipeline {
    const graph& g;
    std::vector<double> alpha;
    speed_profile speeds;
    scheme_params scheme;
    rounding_kind rounding;
    std::uint64_t seed;
    negative_load_policy policy;

    std::vector<std::int64_t> load;
    std::vector<double> x_over_s;
    std::vector<double> scheduled;
    std::vector<std::int64_t> flows;
    std::vector<std::int64_t> prev_int;
    std::vector<double> prev_dbl;
    std::int64_t round = 0;
    std::int64_t clipped = 0;

    reference_pipeline(const graph& graph_, speed_profile speeds_,
                       scheme_params scheme_, rounding_kind rounding_,
                       std::uint64_t seed_, std::vector<std::int64_t> initial,
                       negative_load_policy policy_ = negative_load_policy::allow)
        : g(graph_),
          alpha(alpha_reference(g)),
          speeds(std::move(speeds_)),
          scheme(scheme_),
          rounding(rounding_),
          seed(seed_),
          policy(policy_),
          load(std::move(initial))
    {
        const auto half_edges = static_cast<std::size_t>(g.num_half_edges());
        x_over_s.resize(load.size());
        scheduled.assign(half_edges, 0.0);
        flows.assign(half_edges, 0);
        prev_int.assign(half_edges, 0);
        prev_dbl.assign(half_edges, 0.0);
    }

    void step()
    {
        for (node_id v = 0; v < g.num_nodes(); ++v)
            x_over_s[v] = static_cast<double>(load[v]) / speeds.speed(v);
        scheduled_flows_reference(g, alpha, scheme, round, x_over_s, prev_dbl,
                                  scheduled, default_executor());
        round_flows_reference(g, rounding, scheduled, seed, round, flows,
                              default_executor());
        if (policy == negative_load_policy::prevent) clip();
        for (node_id v = 0; v < g.num_nodes(); ++v) {
            std::int64_t net_out = 0;
            for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v);
                 ++h)
                net_out += flows[h];
            load[v] -= net_out;
        }
        std::swap(prev_int, flows);
        for (std::size_t h = 0; h < prev_int.size(); ++h)
            prev_dbl[h] = static_cast<double>(prev_int[h]);
        ++round;
    }

    /// The prevent policy: a node whose outgoing tokens exceed its
    /// (nonnegative part of its) load keeps them in slot order until the
    /// load runs out; every incoming side is then re-mirrored from its
    /// clipped owner.
    void clip()
    {
        for (node_id v = 0; v < g.num_nodes(); ++v) {
            std::int64_t outgoing = 0;
            for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v);
                 ++h)
                if (flows[h] > 0) outgoing += flows[h];
            std::int64_t remaining = std::max<std::int64_t>(load[v], 0);
            if (outgoing <= remaining) continue;
            for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v);
                 ++h) {
                if (flows[h] <= 0) continue;
                const std::int64_t keep = std::min(flows[h], remaining);
                clipped += flows[h] - keep;
                flows[h] = keep;
                remaining -= keep;
            }
        }
        for (half_edge_id h = 0; h < g.num_half_edges(); ++h)
            if (scheduled[h] < 0.0) flows[h] = -flows[g.twin(h)];
    }
};

TEST(GoldenKernel, CanonicalMatchesTwoSidedKernelBitwise)
{
    // Drive the real engine and the reference pipeline in lock-step over
    // real trajectories: loads, scheduled flows, rounded flows and clipped
    // tokens must stay bit-for-bit identical on every round, for every
    // rounding scheme under both negative-load policies, on five topology
    // families (one heterogeneous). The tori take the degree-4 owner
    // kernel; the 6-cube, the random regular graphs, K_600 and the grid
    // take the generic-degree one. The regular graphs' alpha is one value,
    // the others' one weight per half-edge.
    for (auto& tc : golden_topologies()) {
        const double beta =
            tc.beta != 0.0
                ? tc.beta
                : beta_opt(compute_lambda(
                      tc.g, make_alpha(tc.g, alpha_policy::max_degree_plus_one),
                      tc.speeds));
        const scheme_params scheme = sos_scheme(beta);
        const auto& initial = tc.initial;
        for (const rounding_kind rounding :
             {rounding_kind::randomized, rounding_kind::floor,
              rounding_kind::nearest, rounding_kind::bernoulli_edge}) {
            for (const negative_load_policy policy :
                 {negative_load_policy::allow, negative_load_policy::prevent}) {
                const std::string label =
                    tc.name + " " + std::string(to_string(rounding)) +
                    (policy == negative_load_policy::prevent ? " prevent"
                                                             : " allow");
                diffusion_config config{
                    &tc.g, make_alpha(tc.g, alpha_policy::max_degree_plus_one),
                    tc.speeds, scheme};
                discrete_process engine(config, initial, rounding, 42, policy);
                std::vector<double> scheduled(
                    static_cast<std::size_t>(tc.g.num_half_edges()));
                engine.capture_scheduled_flows(scheduled);
                reference_pipeline reference(tc.g, tc.speeds, scheme, rounding,
                                             42, initial, policy);

                for (int t = 0; t < 120; ++t) {
                    engine.step();
                    reference.step();
                    ASSERT_TRUE(bytes_equal(engine.load(), reference.load))
                        << label << " round " << t;
                    ASSERT_TRUE(bytes_equal(scheduled, reference.scheduled))
                        << label << " round " << t;
                    ASSERT_TRUE(
                        bytes_equal(engine.previous_flows(), reference.prev_int))
                        << label << " round " << t;
                    ASSERT_EQ(engine.clipped_tokens(), reference.clipped)
                        << label << " round " << t;
                }
                // The point load starves most nodes, and the random load
                // leaves some empty, so SOS overshoot clips somewhere under
                // prevent.
                if (policy == negative_load_policy::prevent) {
                    EXPECT_GT(reference.clipped, 0) << label;
                }
            }
        }
    }
}

TEST(GoldenKernel, ScheduledFlowCaptureIsOutOfBand)
{
    // Two engines in lock-step, only one capturing its scheduled flows:
    // loads, previous flows and clipped tokens stay equal on every round,
    // for every rounding under both policies, on the 4-regular torus (one
    // alpha value, stack blocks) and the grid (per-half-edge alpha, the
    // generic-degree kernels).
    const auto cases = golden_topologies();
    for (const char* name : {"torus_67x67", "grid_37x23"}) {
        const golden_case& tc = *std::find_if(
            cases.begin(), cases.end(),
            [&](const golden_case& c) { return c.name == name; });
        const auto alpha = make_alpha(tc.g, alpha_policy::max_degree_plus_one);
        const scheme_params scheme =
            sos_scheme(beta_opt(compute_lambda(tc.g, alpha, tc.speeds)));
        const diffusion_config config{&tc.g, alpha, tc.speeds, scheme};
        for (const rounding_kind rounding :
             {rounding_kind::randomized, rounding_kind::floor,
              rounding_kind::nearest, rounding_kind::bernoulli_edge}) {
            for (const negative_load_policy policy :
                 {negative_load_policy::allow, negative_load_policy::prevent}) {
                const std::string label =
                    tc.name + " " + std::string(to_string(rounding)) +
                    (policy == negative_load_policy::prevent ? " prevent"
                                                             : " allow");
                discrete_process plain(config, tc.initial, rounding, 42, policy);
                discrete_process captured(config, tc.initial, rounding, 42,
                                          policy);
                std::vector<double> scheduled(
                    static_cast<std::size_t>(tc.g.num_half_edges()));
                captured.capture_scheduled_flows(scheduled);
                for (int t = 0; t < 120; ++t) {
                    plain.step();
                    captured.step();
                    ASSERT_TRUE(bytes_equal(captured.load(),
                                            std::vector<std::int64_t>(
                                                plain.load().begin(),
                                                plain.load().end())))
                        << label << " round " << t;
                    ASSERT_TRUE(bytes_equal(captured.previous_flows(),
                                            std::vector<std::int64_t>(
                                                plain.previous_flows().begin(),
                                                plain.previous_flows().end())))
                        << label << " round " << t;
                    ASSERT_EQ(captured.clipped_tokens(), plain.clipped_tokens())
                        << label << " round " << t;
                }
            }
        }
    }
}

TEST(GoldenKernel, PooledInPlaceRoundMatchesTwoArrayReference)
{
    // The discrete engine's one flow array on a 3-worker pool, in lock-step
    // with the two-array reference pipeline: loads, previous flows and
    // clipped tokens stay bit-for-bit equal on every round, for every
    // rounding under both policies. Both graphs span two parallel_reduce
    // chunks, so one worker's apply reads twin slots that another worker
    // is overwriting: the 67x67 torus (degree-4 kernels) and the 2^13
    // hypercube (generic degree, 13 half-edges per node). At the cube's
    // beta_opt (1.32) floor rounding never clips this load; at 1.9 it
    // clips 10 tokens.
    thread_pool pool(3);
    auto cases = golden_topologies();
    std::vector<golden_case> pooled_cases;
    pooled_cases.push_back(std::move(*std::find_if(
        cases.begin(), cases.end(),
        [](const golden_case& c) { return c.name == "torus_67x67"; })));
    pooled_cases.push_back({"hypercube_2^13", make_hypercube(13),
                            speed_profile::uniform(8192),
                            random_load(8192, 3 * 8192, 1), 1.9});
    ASSERT_EQ(pooled_cases.back().g.num_nodes(), 2 * executor::reduce_chunk);
    for (const golden_case& tc : pooled_cases) {
        const auto alpha = make_alpha(tc.g, alpha_policy::max_degree_plus_one);
        const scheme_params scheme = sos_scheme(
            tc.beta != 0.0 ? tc.beta
                           : beta_opt(compute_lambda(tc.g, alpha, tc.speeds)));
        const diffusion_config config{&tc.g, alpha, tc.speeds, scheme};
        for (const rounding_kind rounding :
             {rounding_kind::randomized, rounding_kind::floor,
              rounding_kind::nearest, rounding_kind::bernoulli_edge}) {
            for (const negative_load_policy policy :
                 {negative_load_policy::allow, negative_load_policy::prevent}) {
                const std::string label =
                    tc.name + " " + std::string(to_string(rounding)) +
                    (policy == negative_load_policy::prevent ? " prevent"
                                                             : " allow");
                discrete_process engine(config, tc.initial, rounding, 42, policy,
                                        &pool);
                reference_pipeline reference(tc.g, tc.speeds, scheme, rounding,
                                             42, tc.initial, policy);
                for (int t = 0; t < 100; ++t) {
                    engine.step();
                    reference.step();
                    ASSERT_TRUE(bytes_equal(engine.load(), reference.load))
                        << label << " round " << t;
                    ASSERT_TRUE(
                        bytes_equal(engine.previous_flows(), reference.prev_int))
                        << label << " round " << t;
                    ASSERT_EQ(engine.clipped_tokens(), reference.clipped)
                        << label << " round " << t;
                }
                if (policy == negative_load_policy::prevent) {
                    EXPECT_GT(reference.clipped, 0) << label;
                }
            }
        }
    }
}

TEST(GoldenKernel, ChebyshevTrajectoryMatchesReferenceBitwise)
{
    // Same lock-step comparison under the Chebyshev per-round omega — this
    // also pins the incremental scheme_beta_state against the pure
    // recurrence the reference kernel evaluates from scratch each round.
    const graph g = make_torus_2d(8, 8);
    const auto speeds = speed_profile::uniform(g.num_nodes());
    const double lambda =
        compute_lambda(g, make_alpha(g, alpha_policy::max_degree_plus_one), speeds);
    const scheme_params scheme = chebyshev_scheme(lambda);
    const auto initial = point_load(g.num_nodes(), 0, 64000);

    diffusion_config config{&g, make_alpha(g, alpha_policy::max_degree_plus_one),
                            speeds, scheme};
    discrete_process engine(config, initial, rounding_kind::randomized, 9);
    std::vector<double> scheduled(static_cast<std::size_t>(g.num_half_edges()));
    engine.capture_scheduled_flows(scheduled);
    reference_pipeline reference(g, speeds, scheme, rounding_kind::randomized, 9,
                                 initial);
    for (int t = 0; t < 200; ++t) {
        engine.step();
        reference.step();
        ASSERT_TRUE(bytes_equal(engine.load(), reference.load)) << t;
        ASSERT_TRUE(bytes_equal(scheduled, reference.scheduled)) << t;
    }
}

TEST(GoldenKernel, RoundFlowsMatchesReferenceAcrossExecutors)
{
    // round_flows on fixed random antisymmetric flows, with exact zeros and
    // integers among them, against the reference kernels: serially, and on
    // a 3-worker pool whose parallel_for chunks start in the middle of a
    // randomized block (562 nodes on the 67x67 torus, 200 on K_600).
    thread_pool pool(3);
    for (auto& tc : golden_topologies()) {
        const graph& g = tc.g;
        std::vector<double> scheduled(static_cast<std::size_t>(g.num_half_edges()));
        xoshiro256ss rng{77};
        for (half_edge_id h = 0; h < g.num_half_edges(); ++h) {
            if (h > g.twin(h)) continue;
            const double u = rng.next_double();
            scheduled[h] = u < 0.1   ? 0.0
                           : u < 0.2 ? std::floor(u * 30.0) - 4.0
                                     : rng.next_double() * 6.0 - 3.0;
            scheduled[g.twin(h)] = -scheduled[h];
        }
        for (const rounding_kind rounding :
             {rounding_kind::randomized, rounding_kind::floor,
              rounding_kind::nearest, rounding_kind::bernoulli_edge}) {
            for (std::int64_t round = 0; round < 3; ++round) {
                const std::string label = tc.name + " " +
                                          std::string(to_string(rounding)) +
                                          " round " + std::to_string(round);
                std::vector<std::int64_t> expected(scheduled.size());
                round_flows_reference(g, rounding, scheduled, 42, round, expected,
                                      default_executor());
                std::vector<std::int64_t> serial(scheduled.size());
                round_flows(g, rounding, scheduled, 42, round, serial,
                            default_executor());
                EXPECT_TRUE(bytes_equal(serial, expected)) << label;
                std::vector<std::int64_t> pooled(scheduled.size());
                round_flows(g, rounding, scheduled, 42, round, pooled, pool);
                EXPECT_TRUE(bytes_equal(pooled, expected)) << label;
            }
        }
    }
}

TEST(GoldenKernel, ContinuousScheduledFlowsMatchReferenceBitwise)
{
    // The continuous engine exercises the signed-zero corner cases (exact
    // cancellation near convergence) that integer-valued discrete flows
    // cannot: compare the kernels directly on the continuous engine's own
    // evolving state.
    const graph g = make_torus_2d(8, 8);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto reference_weights = alpha_reference(g);
    const auto speeds = speed_profile::uniform(g.num_nodes());
    const scheme_params scheme = sos_scheme(1.6);

    diffusion_config config{&g, alpha, speeds, scheme};
    continuous_process engine(config,
                              to_continuous(point_load(g.num_nodes(), 0, 64000)));

    std::vector<double> x(engine.load().begin(), engine.load().end());
    std::vector<double> swept(static_cast<std::size_t>(g.num_half_edges()));
    std::vector<double> reference(swept.size());
    for (int t = 0; t < 2000; ++t) {
        engine.step();
        x.assign(engine.load().begin(), engine.load().end());
        const auto prev = engine.previous_flows();
        scheduled_flows(g, alpha, scheme, t + 1, x, prev, swept,
                        default_executor());
        scheduled_flows_reference(g, reference_weights, scheme, t + 1, x, prev,
                                  reference, default_executor());
        ASSERT_TRUE(bytes_equal(std::span<const double>(swept), reference))
            << "round " << t;
    }
}

TEST(GoldenKernel, ScheduledFlowsInPlaceMatchTwoArraysBitwise)
{
    // scheduled_flows with previous_flows == flows_out, as the continuous
    // engine calls it, gives the two-array bits under FOS, SOS and
    // Chebyshev on every golden graph, serially and on a 3-worker pool,
    // along a trajectory in which each round's flows are applied and feed
    // the next round. The bits do not depend on beta or lambda being the
    // graph's own, so every graph takes the same values.
    thread_pool pool(3);
    for (const golden_case& tc : golden_topologies()) {
        const graph& g = tc.g;
        const auto half_edges = static_cast<std::size_t>(g.num_half_edges());
        const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
        for (const scheme_params scheme :
             {fos_scheme(), sos_scheme(1.7), chebyshev_scheme(0.95)}) {
            const std::string label =
                tc.name + " " + std::to_string(static_cast<int>(scheme.kind));
            std::vector<double> load = to_continuous(tc.initial);
            std::vector<double> x(load.size());
            std::vector<double> two_array(half_edges);
            std::vector<double> serial(half_edges);
            std::vector<double> pooled(half_edges);
            for (std::int64_t t = 0; t < 30; ++t) {
                for (node_id v = 0; v < g.num_nodes(); ++v)
                    x[v] = load[v] / tc.speeds.speed(v);
                const std::vector<double> previous = two_array;
                scheduled_flows(g, alpha, scheme, t, x, previous, two_array,
                                default_executor());
                scheduled_flows(g, alpha, scheme, t, x, serial, serial,
                                default_executor());
                scheduled_flows(g, alpha, scheme, t, x, pooled, pooled, pool);
                ASSERT_TRUE(bytes_equal(serial, two_array)) << label << " round " << t;
                ASSERT_TRUE(bytes_equal(pooled, two_array)) << label << " round " << t;
                for (node_id v = 0; v < g.num_nodes(); ++v)
                    for (half_edge_id h = g.half_edge_begin(v);
                         h < g.half_edge_end(v); ++h)
                        load[v] -= two_array[h];
            }
        }
    }
}

bool same_bits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Every field of two checkpoint states, each double bit for bit.
bool same_state(const continuous_engine_state& a, const continuous_engine_state& b)
{
    return bytes_equal(a.load, b.load) &&
           bytes_equal(a.previous_flows, b.previous_flows) && a.round == b.round &&
           a.scheme.kind == b.scheme.kind && same_bits(a.scheme.beta, b.scheme.beta) &&
           same_bits(a.scheme.lambda, b.scheme.lambda) &&
           a.scheme.rounds_in_scheme == b.scheme.rounds_in_scheme &&
           same_bits(a.scheme.omega, b.scheme.omega) &&
           same_bits(a.initial_total, b.initial_total) &&
           same_bits(a.external_total, b.external_total) &&
           std::memcmp(&a.negative, &b.negative, sizeof a.negative) == 0;
}

bool same_state(const cumulative_engine_state& a, const cumulative_engine_state& b)
{
    return same_state(a.twin, b.twin) && bytes_equal(a.load, b.load) &&
           bytes_equal(a.cumulative_continuous, b.cumulative_continuous) &&
           bytes_equal(a.cumulative_discrete, b.cumulative_discrete) &&
           a.round == b.round && a.initial_total == b.initial_total &&
           a.external_total == b.external_total &&
           std::memcmp(&a.negative, &b.negative, sizeof a.negative) == 0;
}

/// continuous_process::inject and set_scheme on a checkpoint state.
void inject_reference(continuous_engine_state& state,
                      const std::vector<std::int64_t>& delta)
{
    for (std::size_t v = 0; v < delta.size(); ++v) {
        state.load[v] += static_cast<double>(delta[v]);
        state.external_total += static_cast<double>(delta[v]);
    }
}

void switch_reference(continuous_engine_state& state, scheme_params scheme)
{
    state.scheme = {static_cast<std::int32_t>(scheme.kind), scheme.beta,
                    scheme.lambda, 0, 1.0};
}

TEST(GoldenKernel, ContinuousAndCumulativeEnginesMatchReferenceBitwise)
{
    // Both engines in lock-step with the plain reference steps, from their
    // own round-0 snapshots: every field of the checkpoint state stays
    // bitwise equal on every round, through token arrivals and departures
    // and a mid-run scheme switch, under FOS, SOS and Chebyshev with
    // uniform and zipf speeds, on the grid with three alpha values too.
    // The references take their own alpha. The 67x67 torus spans two
    // parallel_reduce chunks; there a second pair of engines runs on a
    // 3-worker pool (on the one-chunk graphs the pair runs serially too).
    thread_pool pool(3);
    const auto cases = golden_topologies();
    for (const char* name :
         {"torus", "torus_67x67", "random_regular_degree7", "grid_37x23"}) {
        const golden_case& tc = *std::find_if(
            cases.begin(), cases.end(),
            [&](const golden_case& c) { return c.name == name; });
        const graph& g = tc.g;
        const node_id n = g.num_nodes();
        const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
        const auto reference = alpha_reference(g);
        executor* pooled = n > executor::reduce_chunk ? &pool : nullptr;
        for (const speed_profile& speeds :
             {speed_profile::uniform(n), speed_profile::zipf(n, 1.0, 8.0, 23)}) {
            const double lambda = compute_lambda(g, alpha, speeds);
            for (const scheme_params scheme :
                 {fos_scheme(), sos_scheme(beta_opt(lambda)),
                  chebyshev_scheme(lambda)}) {
                const scheme_params switched =
                    scheme.kind == scheme_kind::fos ? sos_scheme(1.7) : fos_scheme();
                const std::string label =
                    tc.name + (speeds.is_uniform() ? " uniform " : " zipf ") +
                    std::to_string(static_cast<int>(scheme.kind));
                const diffusion_config config{&g, alpha, speeds, scheme};
                const auto initial_real = to_continuous(tc.initial);
                continuous_process continuous(config, initial_real);
                continuous_process continuous_pooled(config, initial_real, pooled);
                cumulative_process cumulative(config, tc.initial);
                cumulative_process cumulative_pooled(config, tc.initial, pooled);
                continuous_engine_state continuous_ref;
                continuous.save_checkpoint(continuous_ref);
                cumulative_engine_state cumulative_ref;
                cumulative.save_checkpoint(cumulative_ref);

                continuous_engine_state continuous_state;
                cumulative_engine_state cumulative_state;
                for (int t = 0; t < 300; ++t) {
                    if (t == 40 || t == 170) {
                        std::vector<std::int64_t> delta(static_cast<std::size_t>(n));
                        for (node_id v = 0; v < n; ++v) delta[v] = (v * 7 + t) % 5 - 2;
                        continuous.inject(delta);
                        continuous_pooled.inject(delta);
                        cumulative.inject(delta);
                        cumulative_pooled.inject(delta);
                        inject_reference(continuous_ref, delta);
                        inject_reference(cumulative_ref.twin, delta);
                        for (std::size_t v = 0; v < delta.size(); ++v) {
                            cumulative_ref.load[v] += delta[v];
                            cumulative_ref.external_total += delta[v];
                        }
                    }
                    if (t == 120) {
                        continuous.set_scheme(switched);
                        continuous_pooled.set_scheme(switched);
                        cumulative.set_scheme(switched);
                        cumulative_pooled.set_scheme(switched);
                        switch_reference(continuous_ref, switched);
                        switch_reference(cumulative_ref.twin, switched);
                    }
                    continuous.step();
                    continuous_pooled.step();
                    cumulative.step();
                    cumulative_pooled.step();
                    continuous_step_reference(g, reference, speeds,
                                              continuous_ref, default_executor());
                    cumulative_step_reference(g, reference, speeds,
                                              cumulative_ref, default_executor());

                    continuous.save_checkpoint(continuous_state);
                    ASSERT_TRUE(same_state(continuous_state, continuous_ref))
                        << label << " continuous round " << t;
                    continuous_pooled.save_checkpoint(continuous_state);
                    ASSERT_TRUE(same_state(continuous_state, continuous_ref))
                        << label << " continuous pooled round " << t;
                    cumulative.save_checkpoint(cumulative_state);
                    ASSERT_TRUE(same_state(cumulative_state, cumulative_ref))
                        << label << " cumulative round " << t;
                    cumulative_pooled.save_checkpoint(cumulative_state);
                    ASSERT_TRUE(same_state(cumulative_state, cumulative_ref))
                        << label << " cumulative pooled round " << t;
                }
            }
        }
    }
}

template <class T>
bool bytes_equal(std::span<const T> a, std::span<const T> b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

TEST(GoldenKernel, PatternFilledEnginesMatchSpanBuiltEnginesBitwise)
{
    // The campaign path: each engine writes a load pattern in place into
    // the load array it acquires (campaign::initial_load_fill). Those
    // engines step in lock-step, bit for bit, with engines built from a
    // span of build_initial_load's vector (its to_continuous copy for the
    // continuous engine): every pattern, the discrete engine under every
    // rounding and both policies, the continuous and the cumulative
    // engine, on every golden graph with its speeds, serially and on a
    // 3-worker pool. The initial loads compare too, before any round.
    thread_pool pool(3);
    for (const golden_case& tc : golden_topologies()) {
        const graph& g = tc.g;
        const node_id n = g.num_nodes();
        const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
        const scheme_params scheme = sos_scheme(
            tc.beta != 0.0 ? tc.beta
                           : beta_opt(compute_lambda(g, alpha, tc.speeds)));
        const diffusion_config config{&g, alpha, tc.speeds, scheme};
        for (const std::string& pattern : campaign::load_pattern_names()) {
            const std::vector<std::int64_t> values =
                campaign::build_initial_load(pattern, n, 5, 7);
            const std::vector<double> real_values = to_continuous(values);
            const load_fill fill = campaign::initial_load_fill(pattern, n, 5, 7);
            for (executor* exec : {static_cast<executor*>(nullptr),
                                   static_cast<executor*>(&pool)}) {
                const std::string where = tc.name + " " + pattern +
                                          (exec == nullptr ? " serial" : " pool3");
                for (const rounding_kind rounding :
                     {rounding_kind::randomized, rounding_kind::floor,
                      rounding_kind::nearest, rounding_kind::bernoulli_edge})
                    for (const negative_load_policy policy :
                         {negative_load_policy::allow,
                          negative_load_policy::prevent}) {
                        const std::string label =
                            where + " " + std::string(to_string(rounding)) +
                            (policy == negative_load_policy::prevent ? " prevent"
                                                                     : " allow");
                        discrete_process filled(config, fill, rounding, 42,
                                                policy, exec);
                        discrete_process copied(config, values, rounding, 42,
                                                policy, exec);
                        ASSERT_TRUE(bytes_equal(filled.load(), values)) << label;
                        for (int t = 0; t < 4; ++t) {
                            filled.step();
                            copied.step();
                            ASSERT_TRUE(bytes_equal(filled.load(), copied.load()))
                                << label << " round " << t;
                            ASSERT_TRUE(bytes_equal(filled.previous_flows(),
                                                    copied.previous_flows()))
                                << label << " round " << t;
                            ASSERT_EQ(filled.clipped_tokens(),
                                      copied.clipped_tokens())
                                << label << " round " << t;
                        }
                    }

                continuous_process continuous_filled(config, fill, exec);
                continuous_process continuous_copied(config, real_values, exec);
                cumulative_process cumulative_filled(config, fill, exec);
                cumulative_process cumulative_copied(config, values, exec);
                ASSERT_TRUE(bytes_equal(continuous_filled.load(), real_values))
                    << where;
                ASSERT_TRUE(bytes_equal(cumulative_filled.load(), values)) << where;
                continuous_engine_state continuous_a;
                continuous_engine_state continuous_b;
                cumulative_engine_state cumulative_a;
                cumulative_engine_state cumulative_b;
                for (int t = 0; t < 4; ++t) {
                    continuous_filled.step();
                    continuous_copied.step();
                    cumulative_filled.step();
                    cumulative_copied.step();
                    continuous_filled.save_checkpoint(continuous_a);
                    continuous_copied.save_checkpoint(continuous_b);
                    ASSERT_TRUE(same_state(continuous_a, continuous_b))
                        << where << " continuous round " << t;
                    cumulative_filled.save_checkpoint(cumulative_a);
                    cumulative_copied.save_checkpoint(cumulative_b);
                    ASSERT_TRUE(same_state(cumulative_a, cumulative_b))
                        << where << " cumulative round " << t;
                }
            }
        }
    }
}

struct determinism_grid_case {
    process_kind process;
    rounding_kind rounding;
    negative_load_policy policy;
};

/// Runs every cell serially and on a pool of each worker count, and
/// byte-compares the recorded series.
void expect_grid_identical_across_executors(
    const std::string& name, const graph& g, const speed_profile& speeds,
    const std::vector<std::int64_t>& initial,
    const std::vector<determinism_grid_case>& grid, std::int64_t rounds,
    std::initializer_list<unsigned> worker_counts)
{
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    for (const auto& cell : grid) {
        experiment_config config;
        config.diffusion = {&g, alpha, speeds, sos_scheme(1.7)};
        config.process = cell.process;
        config.rounding = cell.rounding;
        config.policy = cell.policy;
        config.seed = 77;
        config.rounds = rounds;
        config.record_every = 7;

        const std::string label =
            name + " " + std::string(to_string(cell.process)) + "/" +
            std::string(to_string(cell.rounding)) + "/" +
            (cell.policy == negative_load_policy::prevent ? "prevent" : "allow");

        config.exec = nullptr;
        const time_series serial = run_experiment(config, initial);
        for (const unsigned workers : worker_counts) {
            thread_pool pool(workers);
            config.exec = &pool;
            const time_series pooled = run_experiment(config, initial);
            expect_series_identical(serial, pooled,
                                    label + " workers=" + std::to_string(workers));
        }
    }
}

TEST(GoldenDeterminism, SeriesByteIdenticalAcrossExecutors)
{
    std::vector<determinism_grid_case> grid;
    for (const auto rounding :
         {rounding_kind::randomized, rounding_kind::floor,
          rounding_kind::nearest, rounding_kind::bernoulli_edge})
        for (const auto policy :
             {negative_load_policy::allow, negative_load_policy::prevent})
            grid.push_back({process_kind::discrete, rounding, policy});
    grid.push_back({process_kind::continuous, rounding_kind::randomized,
                    negative_load_policy::allow});
    grid.push_back({process_kind::cumulative, rounding_kind::randomized,
                    negative_load_policy::allow});

    // 144 nodes: one parallel_reduce chunk.
    const graph small = make_torus_2d(12, 12);
    expect_grid_identical_across_executors(
        "torus12", small, speed_profile::bimodal(small.num_nodes(), 0.25, 4.0, 5),
        point_load(small.num_nodes(), 0, small.num_nodes() * 100LL), grid, 300,
        {1u, 2u, 8u});

    // 2^14 nodes: four chunks, so every sweep's neighbour reads cross chunk
    // boundaries, under uniform speeds (the torus) and heterogeneous ones
    // (the hypercube). Two random tokens per node keep most edges busy and
    // make the prevent policy clip.
    const graph torus = make_torus_2d(128, 128);
    const graph cube = make_hypercube(14);
    ASSERT_EQ(torus.num_nodes(), 4 * executor::reduce_chunk);
    ASSERT_EQ(cube.num_nodes(), 4 * executor::reduce_chunk);
    expect_grid_identical_across_executors(
        "torus128", torus, speed_profile::uniform(torus.num_nodes()),
        random_load(torus.num_nodes(), torus.num_nodes() * 2LL, 5), grid, 40,
        {1u, 2u, 4u});
    expect_grid_identical_across_executors(
        "hypercube14", cube, speed_profile::bimodal(cube.num_nodes(), 0.25, 4.0, 5),
        random_load(cube.num_nodes(), cube.num_nodes() * 2LL, 5), grid, 40,
        {1u, 2u, 4u});
}

TEST(GoldenDeterminism, SaveResumeSeriesByteIdenticalAcrossGrid)
{
    // The checkpoint contract over the same grid as the executor test:
    // a checkpointing run records the identical series (snapshots are pure
    // output), and resuming from the last snapshot finishes with the
    // identical series — both compared byte-for-byte against the
    // uninterrupted run, for all three engines.
    const graph g = make_torus_2d(12, 12);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::bimodal(g.num_nodes(), 0.25, 4.0, 5);
    const auto initial = point_load(g.num_nodes(), 0, g.num_nodes() * 100LL);

    std::vector<determinism_grid_case> grid;
    for (const auto rounding :
         {rounding_kind::randomized, rounding_kind::floor,
          rounding_kind::nearest, rounding_kind::bernoulli_edge})
        grid.push_back(
            {process_kind::discrete, rounding, negative_load_policy::allow});
    grid.push_back({process_kind::discrete, rounding_kind::randomized,
                    negative_load_policy::prevent});
    grid.push_back({process_kind::discrete, rounding_kind::bernoulli_edge,
                    negative_load_policy::prevent});
    grid.push_back({process_kind::continuous, rounding_kind::randomized,
                    negative_load_policy::allow});
    grid.push_back({process_kind::cumulative, rounding_kind::randomized,
                    negative_load_policy::allow});

    for (std::size_t i = 0; i < grid.size(); ++i) {
        const auto& cell = grid[i];
        experiment_config config;
        config.diffusion = {&g, alpha, speeds, sos_scheme(1.7)};
        config.process = cell.process;
        config.rounding = cell.rounding;
        config.policy = cell.policy;
        config.seed = 77;
        config.rounds = 300;
        config.record_every = 7;

        const std::string label = "cell " + std::to_string(i) + " (" +
                                  std::string(to_string(cell.rounding)) + ")";
        const std::string path = testing::TempDir() + "dlb_golden_resume_" +
                                 std::to_string(i) + ".ckpt";

        const time_series full = run_experiment(config, initial);

        config.checkpoint_every = 90;
        config.checkpoint_path = path;
        const time_series checkpointed = run_experiment(config, initial);
        expect_series_identical(full, checkpointed,
                                label + " with checkpointing on");

        // Snapshots landed at rounds 90, 180 and 270; the file holds the
        // last one. Resume must replay rounds 270..300 bit-for-bit.
        const engine_checkpoint snapshot = read_checkpoint_file(path);
        EXPECT_EQ(snapshot.round, 270) << label;

        experiment_config resume_config = config;
        resume_config.checkpoint_every = 0;
        resume_config.checkpoint_path.clear();
        resume_config.resume = &snapshot;
        const time_series resumed = run_experiment(resume_config, initial);
        expect_series_identical(full, resumed, label + " resumed");

        std::remove(path.c_str());
    }
}

TEST(GoldenDeterminism, SeriesByteIdenticalWithObservabilityEnabled)
{
    // The observability layer's zero-perturbation contract: re-running the
    // executor x engine x rounding grid with tracing AND metrics active must
    // reproduce the unobserved series byte-for-byte. Instrumentation reads
    // clocks and bumps counters but never touches engine state or RNG
    // streams, and this is where that claim is pinned.
    const graph g = make_torus_2d(12, 12);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::bimodal(g.num_nodes(), 0.25, 4.0, 5);
    const auto initial = point_load(g.num_nodes(), 0, g.num_nodes() * 100LL);

    std::vector<determinism_grid_case> grid;
    for (const auto rounding :
         {rounding_kind::randomized, rounding_kind::floor,
          rounding_kind::nearest, rounding_kind::bernoulli_edge})
        grid.push_back(
            {process_kind::discrete, rounding, negative_load_policy::allow});
    grid.push_back({process_kind::discrete, rounding_kind::randomized,
                    negative_load_policy::prevent});
    grid.push_back({process_kind::continuous, rounding_kind::randomized,
                    negative_load_policy::allow});

    auto make_config = [&](const determinism_grid_case& cell) {
        experiment_config config;
        config.diffusion = {&g, alpha, speeds, sos_scheme(1.7)};
        config.process = cell.process;
        config.rounding = cell.rounding;
        config.policy = cell.policy;
        config.seed = 77;
        config.rounds = 200;
        config.record_every = 7;
        return config;
    };

    // Baseline: the whole grid with observability off (the default).
    ASSERT_FALSE(obs::tracing());
    ASSERT_FALSE(obs::metrics_enabled());
    std::vector<time_series> baseline;
    for (const auto& cell : grid) {
        experiment_config config = make_config(cell);
        config.exec = nullptr;
        baseline.push_back(run_experiment(config, initial));
    }

    // Same grid again, serial and pooled, inside a live session with both
    // the trace writer and the metrics registry hot.
    {
        obs::session_options options;
        options.trace_path = testing::TempDir() + "dlb_golden_obs_trace.json";
        options.metrics_path = testing::TempDir() + "dlb_golden_obs_metrics.jsonl";
        options.collect_metrics = true;
        const obs::session session(options);
        ASSERT_TRUE(obs::tracing());
        ASSERT_TRUE(obs::metrics_enabled());

        for (std::size_t i = 0; i < grid.size(); ++i) {
            experiment_config config = make_config(grid[i]);
            const std::string label =
                std::string(grid[i].process == process_kind::continuous
                                ? "continuous"
                                : "discrete") +
                "/" + std::string(to_string(grid[i].rounding)) + " (observed)";

            config.exec = nullptr;
            expect_series_identical(baseline[i], run_experiment(config, initial),
                                    label + " serial");
            for (const unsigned workers : {2u, 8u}) {
                thread_pool pool(workers);
                config.exec = &pool;
                expect_series_identical(
                    baseline[i], run_experiment(config, initial),
                    label + " workers=" + std::to_string(workers));
            }
        }
    }
    ASSERT_FALSE(obs::tracing());
    ASSERT_FALSE(obs::metrics_enabled());
}

TEST(GoldenDeterminism, V2ConservationAcrossEnginesRoundingsWorkloads)
{
    // Conservation-modulo-injection across the discrete/cumulative engines
    // x all four roundings x all three dynamic workload models (the
    // workload draws come from the same per-round counter streams).
    const graph g = make_torus_2d(10, 10);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::uniform(g.num_nodes());
    const auto initial = point_load(g.num_nodes(), 0, g.num_nodes() * 50LL);

    const campaign::workload_spec workloads[] = {
        {"poisson", 6.0, 0, 0},
        {"burst", 0.0, 40, 11},
        {"drain", 3.0, 0, 0},
    };

    for (const auto process : {process_kind::discrete, process_kind::cumulative}) {
        for (const auto rounding :
             {rounding_kind::randomized, rounding_kind::floor,
              rounding_kind::nearest, rounding_kind::bernoulli_edge}) {
            if (process == process_kind::cumulative &&
                rounding != rounding_kind::randomized)
                continue; // the cumulative baseline has a fixed rounding
            for (const auto& wl : workloads) {
                const auto hook = campaign::make_workload(
                    wl, g.num_nodes(), mix64(31, 0x776b6c64));

                experiment_config config;
                config.diffusion = {&g, alpha, speeds, fos_scheme()};
                config.process = process;
                config.rounding = rounding;
                config.seed = 31;
                config.rounds = 120;
                config.record_every = 10;
                config.workload = hook.get();

                const time_series series = run_experiment(config, initial);
                const std::string label =
                    std::string(process == process_kind::cumulative
                                    ? "cumulative"
                                    : "discrete") +
                    "/" + std::string(to_string(rounding)) + "/" + wl.kind;
                // Exact token conservation modulo the injected/drained
                // totals, at every recorded round.
                for (const double error : series.total_load_error)
                    EXPECT_EQ(error, 0.0) << label;
                if (wl.kind != "drain") {
                    EXPECT_GT(series.total_injected, 0) << label;
                } else {
                    EXPECT_GT(series.total_drained, 0) << label;
                }
            }
        }
    }
}

TEST(GoldenDeterminism, HybridChebyshevLongRunByteIdentical)
{
    // >= 4000 rounds of Chebyshev followed by a hybrid switch to FOS. Under
    // the old O(T^2) scheme_beta_for_round-per-round recurrence this run
    // alone would re-execute ~T^2/2 omega iterations; with the incremental
    // state it is O(T) and cheap enough for the suite.
    const graph g = make_torus_2d(8, 8);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::uniform(g.num_nodes());
    const double lambda = compute_lambda(g, alpha, speeds);

    experiment_config config;
    config.diffusion = {&g, alpha, speeds, chebyshev_scheme(lambda)};
    config.rounding = rounding_kind::randomized;
    config.seed = 13;
    config.rounds = 4500;
    config.record_every = 50;
    config.switching = switch_policy::at(4000);
    config.switch_to = fos_scheme();

    const auto initial = point_load(g.num_nodes(), 0, 64000);
    config.exec = nullptr;
    const time_series serial = run_experiment(config, initial);
    EXPECT_EQ(serial.switch_round, 4000);

    for (const unsigned workers : {2u, 8u}) {
        thread_pool pool(workers);
        config.exec = &pool;
        expect_series_identical(serial, run_experiment(config, initial),
                                "hybrid-chebyshev workers=" +
                                    std::to_string(workers));
    }
}

TEST(GoldenDeterminism, PreventPolicyClipRepairKeepsAntisymmetry)
{
    // Force heavy clipping (tiny loads, aggressive SOS beta) and verify the
    // targeted twin repair: flows stay antisymmetric, conservation holds,
    // and serial/pooled runs agree bitwise.
    const graph g = make_random_regular_cm(80, 4, 3);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::uniform(g.num_nodes());
    diffusion_config config{&g, alpha, speeds, sos_scheme(1.9)};
    const auto initial = point_load(g.num_nodes(), 0, 3 * g.num_nodes());

    discrete_process serial_engine(config, initial, rounding_kind::randomized, 21,
                                   negative_load_policy::prevent);
    thread_pool pool(8);
    discrete_process pooled_engine(config, initial, rounding_kind::randomized, 21,
                                   negative_load_policy::prevent, &pool);

    for (int t = 0; t < 150; ++t) {
        serial_engine.step();
        pooled_engine.step();
        ASSERT_TRUE(bytes_equal(serial_engine.load(),
                                std::vector<std::int64_t>(
                                    pooled_engine.load().begin(),
                                    pooled_engine.load().end())))
            << t;
        const auto flows = serial_engine.previous_flows();
        for (half_edge_id h = 0; h < g.num_half_edges(); ++h)
            ASSERT_EQ(flows[h], -flows[g.twin(h)]) << "h=" << h << " t=" << t;
        ASSERT_TRUE(serial_engine.verify_conservation()) << t;
    }
    EXPECT_GT(serial_engine.clipped_tokens(), 0);
    EXPECT_EQ(serial_engine.clipped_tokens(), pooled_engine.clipped_tokens());
}

TEST(GoldenDeterminism, ParallelReduceCombinesInFixedOrder)
{
    // Floating-point sums are order-sensitive; the fixed chunking + ordered
    // combine must make them bitwise reproducible for any executor.
    const std::int64_t n = 100003;
    std::vector<double> values(static_cast<std::size_t>(n));
    xoshiro256ss rng{123};
    for (auto& v : values) v = rng.next_double() * 2.0 - 1.0;

    auto sum_with = [&](executor& exec) {
        return exec.parallel_reduce(
            n, 0.0,
            [&](std::int64_t begin, std::int64_t end) {
                double acc = 0.0;
                for (std::int64_t i = begin; i < end; ++i)
                    acc += values[static_cast<std::size_t>(i)];
                return acc;
            },
            [](double a, double b) { return a + b; });
    };

    const double serial = sum_with(default_executor());
    for (const unsigned workers : {1u, 2u, 3u, 8u}) {
        thread_pool pool(workers);
        const double pooled = sum_with(pool);
        EXPECT_EQ(std::memcmp(&serial, &pooled, sizeof serial), 0)
            << "workers=" << workers;
    }
}

} // namespace
} // namespace dlb
