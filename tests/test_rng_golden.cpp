// Golden vectors pinning the per-round RNG stream (util/rng.hpp, checkpoint
// wire value 2) bit-exactly.
//
// A failure here means the stream drifted, which silently changes every
// randomized report and golden series. Changing the stream is a deliberate
// byte change that replaces these vectors in the same commit (see
// docs/architecture.md, "Determinism and the RNG-stream contract").
//
// Three layers are pinned: the raw draw words for fixed (seed, node, round)
// inputs; the randomized-rounding output of whole fixed scenarios (3x3
// torus and K6, deterministic antisymmetric scheduled flows), which
// additionally freezes the draw *consumption order* of the kernels — raw
// words alone would not catch a reordering; and the first outputs of every
// other per-round consumer (load patterns, workloads, matching).
#include <gtest/gtest.h>

#include <vector>

#include "campaign/registry.hpp"
#include "campaign/workload.hpp"
#include "core/matching.hpp"
#include "core/rounding.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace dlb {
namespace {

struct stream_golden {
    std::uint64_t seed;
    std::uint64_t node;
    std::uint64_t round;
    std::uint64_t words[3]; // first three draws of the substream
};

// draw_u64(seed, node, round, i) for i = 0, 1, 2.
const stream_golden kV2Streams[] = {
    {1ULL, 0ULL, 0ULL,
     {6535721012157785706ULL, 2134938885099536146ULL, 18190390861039114489ULL}},
    {1ULL, 1ULL, 0ULL,
     {10419041500976450680ULL, 16232538827714772508ULL, 5089427536641201908ULL}},
    {1ULL, 0ULL, 1ULL,
     {15074325541806124071ULL, 17350095584914184684ULL, 11247279047685065566ULL}},
    {42ULL, 7ULL, 3ULL,
     {5629528106756497104ULL, 6357449888078014566ULL, 730100476589100835ULL}},
    {6840124660045547947ULL, 1000000ULL, 4096ULL,
     {769910712315693037ULL, 5854660214317324125ULL, 3797810075799329834ULL}},
    {18446744073709551615ULL, 5ULL, 2ULL,
     {12322254161731393095ULL, 8656377847639188561ULL, 7905170758349639469ULL}},
};

TEST(RngGolden, V2DrawU64IsPinned)
{
    for (const auto& golden : kV2Streams) {
        for (std::uint64_t i = 0; i < 3; ++i)
            EXPECT_EQ(draw_u64(golden.seed, golden.node, golden.round, i),
                      golden.words[i])
                << "seed=" << golden.seed << " node=" << golden.node
                << " round=" << golden.round << " i=" << i;
    }
}

TEST(RngGolden, V2SubstreamIsNotTheV1SeedingSequence)
{
    // The base is tagged: without the tag, draws 0..3 would be exactly the
    // four state words xoshiro seeds from mix64(seed, node+1, round+1) —
    // the seeding of tagged_rng(seed, node+1, round+1) and of the retired
    // per-round xoshiro stream. Pin the decorrelation.
    for (const auto& golden : kV2Streams) {
        std::uint64_t v1_base =
            mix64(golden.seed, golden.node + 1, golden.round + 1);
        for (const std::uint64_t v2_word : golden.words)
            EXPECT_NE(v2_word, splitmix64(v1_base)) // advances v1_base
                << "seed=" << golden.seed << " node=" << golden.node;
    }
}

TEST(RngGolden, V2CounterRngMatchesDrawU64)
{
    // The incremental view and the stateless contract are the same stream:
    // counter_rng output k equals draw_u64(..., k).
    for (const auto& golden : kV2Streams) {
        counter_rng rng(golden.seed, golden.node, golden.round);
        for (std::uint64_t i = 0; i < 16; ++i)
            EXPECT_EQ(rng(), draw_u64(golden.seed, golden.node, golden.round, i));
    }
}

// The fixed rounding scenario: a 3x3 torus with deterministic antisymmetric
// scheduled flows in roughly [-2, 3.1]. Must match gen formula used to
// produce the tables below exactly.
std::vector<double> golden_scheduled(const graph& g)
{
    std::vector<double> scheduled(static_cast<std::size_t>(g.num_half_edges()));
    for (node_id v = 0; v < g.num_nodes(); ++v)
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h)
            if (h < g.twin(h)) {
                scheduled[h] =
                    static_cast<double>((h * 37 + 11) % 97) / 19.0 - 2.0;
                scheduled[g.twin(h)] = -scheduled[h];
            }
    return scheduled;
}

struct rounding_golden {
    std::int64_t round;
    std::int64_t flows[36]; // one per half-edge of the 3x3 torus
};

const rounding_golden kRoundingGoldens[] = {
    {0,
     {-1, 0, 3, -1, 1, -2, 0, 2, 0, 2, 3, 0, -3, -2, 0, 2, 0, 2,
      3, 0, -3, 0, -3, 3, 1, -2, -1, 0, -2, 0, 1, 4, 0, -3, 0, -4}},
    {1,
     {-2, 1, 2, -1, 2, -2, 0, 2, -1, 2, 2, 0, -2, -2, 0, 2, 0, 2,
      3, 0, -2, 0, -3, 2, 1, -2, -1, 0, -2, 0, 1, 4, 0, -2, 0, -4}},
};

TEST(RngGolden, RandomizedRoundingOutputsArePinned)
{
    const graph g = make_torus_2d(3, 3);
    ASSERT_EQ(g.num_half_edges(), 36);
    const auto scheduled = golden_scheduled(g);
    std::vector<std::int64_t> flows(scheduled.size());

    for (const auto& golden : kRoundingGoldens) {
        round_flows(g, rounding_kind::randomized, scheduled, 42, golden.round,
                    flows, default_executor());
        for (std::size_t h = 0; h < flows.size(); ++h)
            EXPECT_EQ(flows[h], golden.flows[h])
                << "round=" << golden.round << " h=" << h;
    }
}

// The same scheduled-flow formula on the complete graph K6: degree 5 takes
// the generic-degree owner kernel (the 3x3 torus above only reaches the
// degree-4 one), and its 30 half-edges mix fractional, integral and
// negative slots.
struct generic_degree_golden {
    rounding_kind kind;
    std::int64_t round;
    std::int64_t flows[30]; // one per half-edge of K6
};

const generic_degree_golden kGenericDegreeGoldens[] = {
    {rounding_kind::randomized, 0,
     {-1, 0, 2, 0, 2, 1, 0, 2, -1, 1, 0, 0, 2, -3, 0,
      -2, -2, -2, 3, -1, 0, 1, 3, -3, 0, -2, -1, 0, 1, 0}},
    {rounding_kind::randomized, 1,
     {-2, 1, 2, 0, 2, 2, 0, 2, -1, 0, -1, 0, 1, -3, 0,
      -2, -2, -1, 3, 0, 0, 1, 3, -3, -1, -2, 0, 0, 0, 1}},
    {rounding_kind::bernoulli_edge, 0,
     {-1, 0, 3, -1, 1, 1, 0, 2, -1, 1, 0, 0, 1, -1, 1,
      -3, -2, -1, 3, 0, 1, 1, 1, -3, -1, -1, -1, -1, 0, 1}},
    {rounding_kind::bernoulli_edge, 1,
     {-2, 0, 2, -1, 2, 2, 0, 2, -1, 1, 0, 0, 1, -2, 0,
      -2, -2, -1, 3, 0, 1, 1, 2, -3, -1, -2, -1, 0, 0, 1}},
};

TEST(RngGolden, V2GenericDegreeRoundingIsPinned)
{
    const graph g = make_complete(6);
    ASSERT_EQ(g.num_half_edges(), 30);
    const auto scheduled = golden_scheduled(g);
    std::vector<std::int64_t> flows(scheduled.size());

    for (const auto& golden : kGenericDegreeGoldens) {
        round_flows(g, golden.kind, scheduled, 42, golden.round, flows,
                    default_executor());
        for (std::size_t h = 0; h < flows.size(); ++h)
            EXPECT_EQ(flows[h], golden.flows[h])
                << to_string(golden.kind) << " round=" << golden.round
                << " h=" << h;
    }
}

TEST(RngGolden, V2InitialLoadsArePinned)
{
    // The randomized load patterns: `random` draws from its tagged counter
    // substream, `bimodal` takes one draw per node. First 16 of 64 nodes.
    const std::int64_t random_head[16] = {0,  57,  49, 82,  145, 5,  7,   191,
                                          42, 161, 23, 176, 37,  79, 157, 27};
    const std::int64_t bimodal_head[16] = {223, 213, 213, 213, 0,   213, 213, 0,
                                           213, 213, 213, 213, 0,   0,   213, 0};
    const auto random = campaign::build_initial_load("random", 64, 100, 7);
    const auto bimodal = campaign::build_initial_load("bimodal", 64, 100, 7);
    for (std::size_t v = 0; v < 16; ++v) {
        EXPECT_EQ(random[v], random_head[v]) << "random v=" << v;
        EXPECT_EQ(bimodal[v], bimodal_head[v]) << "bimodal v=" << v;
    }
}

TEST(RngGolden, V2WorkloadDeltasArePinned)
{
    // Rounds 0..4 of each model over 10 nodes holding 5 tokens each.
    struct workload_golden {
        campaign::workload_spec spec;
        std::int64_t deltas[5][10];
    };
    const workload_golden goldens[] = {
        {{"poisson", 6.0, 0, 0},
         {{1, 0, 0, 0, 1, 0, 1, 2, 1, 2},
          {0, 0, 0, 0, 0, 0, 1, 0, 0, 0},
          {0, 0, 1, 0, 1, 0, 1, 1, 1, 0},
          {0, 1, 2, 0, 0, 1, 1, 0, 0, 2},
          {1, 2, 0, 0, 1, 0, 0, 0, 0, 0}}},
        {{"burst", 0.0, 40, 2},
         {{0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
          {0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
          {0, 0, 0, 0, 0, 0, 0, 0, 40, 0},
          {0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
          {0, 0, 0, 40, 0, 0, 0, 0, 0, 0}}},
        {{"drain", 3.0, 0, 0},
         {{0, 0, 0, -1, 0, 0, -1, 0, 0, 0},
          {0, 0, 0, 0, 0, 0, -1, 0, 0, 0},
          {0, -1, -1, -1, 0, 0, 0, 0, 0, 0},
          {0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
          {-2, -1, 0, 0, 0, 0, 0, 0, 0, 0}}},
    };
    const node_id n = 10;
    const std::vector<double> load(n, 5.0);
    for (const auto& golden : goldens) {
        const auto hook = campaign::make_workload(golden.spec, n, 99);
        for (std::int64_t round = 0; round < 5; ++round) {
            std::vector<std::int64_t> delta(n, 0);
            hook->apply(round, load, delta);
            for (node_id v = 0; v < n; ++v)
                EXPECT_EQ(delta[v], golden.deltas[round][v])
                    << golden.spec.kind << " round=" << round << " v=" << v;
        }
    }
}

TEST(RngGolden, V2MatchingRoundIsPinned)
{
    // One round of random matching on the 4x4 torus: the edge shuffle and
    // the odd-token coins both come from the per-round substream.
    const std::int64_t expected[16] = {39, 66, 67, 51, 32, 32, 64, 50,
                                       34, 35, 65, 55, 39, 26, 25, 56};
    const graph g = make_torus_2d(4, 4);
    std::vector<std::int64_t> initial(16);
    for (std::size_t v = 0; v < initial.size(); ++v)
        initial[v] = static_cast<std::int64_t>((v * 37 + 11) % 97);
    matching_process matching(g, initial, 7);
    matching.step();
    for (node_id v = 0; v < 16; ++v)
        EXPECT_EQ(matching.load()[v], expected[v]) << "v=" << v;
}

} // namespace
} // namespace dlb
