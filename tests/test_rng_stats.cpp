// Statistical conformance suite for the per-round RNG stream.
//
// The load-balancing guarantees this codebase reproduces are stated purely
// in terms of unbiased roundings with independent per-(seed, node, round)
// randomness (Shiraga, "Discrepancy Analysis of a New Randomized Diffusion
// Algorithm"; Sauerwald & Sun, "Tight Bounds for Randomized Load
// Balancing") — not in terms of any particular stream format. This suite
// tests those properties directly, so a format change is theory-safe
// exactly when these tests pass:
//
//  * chi-square uniformity of draw_u64 low and high bits, along the
//    draw-index, node and round axes;
//  * cross-stream independence (adjacent node streams, paired nibbles);
//  * unbiasedness of the randomized roundings: the empirical mean flow
//    equals the idealized (scheduled) flow within binomial confidence
//    bounds.
//
// All seeds are fixed, so the suite is deterministic: thresholds are
// chosen with comfortable margin (chi-square df=255 has mean 255 and
// sd ~22.6; 340 is ~3.8 sd, p < 1e-4 per test for a correct generator).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/rounding.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace dlb {
namespace {

/// Chi-square statistic of 256-bucket counts against the uniform law.
double chi_square_256(const std::vector<std::int64_t>& buckets,
                      std::int64_t samples)
{
    const double expected = static_cast<double>(samples) / 256.0;
    double chi2 = 0.0;
    for (const std::int64_t count : buckets) {
        const double d = static_cast<double>(count) - expected;
        chi2 += d * d / expected;
    }
    return chi2;
}

constexpr double kChi2Threshold = 340.0; // df = 255, ~3.8 sigma
constexpr std::int64_t kSamples = 1 << 18;

TEST(RngStatsV2, ChiSquareLowAndHighBitsAlongDrawIndex)
{
    std::vector<std::int64_t> low(256, 0), high(256, 0);
    for (std::int64_t i = 0; i < kSamples; ++i) {
        const std::uint64_t word =
            draw_u64(12345, 7, 9, static_cast<std::uint64_t>(i));
        ++low[word & 0xff];
        ++high[word >> 56];
    }
    EXPECT_LT(chi_square_256(low, kSamples), kChi2Threshold);
    EXPECT_LT(chi_square_256(high, kSamples), kChi2Threshold);
}

TEST(RngStatsV2, ChiSquareLowAndHighBitsAcrossNodes)
{
    // Draw 0 of every node's substream: the cross-section the rounding
    // owner pass actually consumes in one round.
    std::vector<std::int64_t> low(256, 0), high(256, 0);
    for (std::int64_t node = 0; node < kSamples; ++node) {
        const std::uint64_t word =
            draw_u64(1, static_cast<std::uint64_t>(node), 17, 0);
        ++low[word & 0xff];
        ++high[word >> 56];
    }
    EXPECT_LT(chi_square_256(low, kSamples), kChi2Threshold);
    EXPECT_LT(chi_square_256(high, kSamples), kChi2Threshold);
}

TEST(RngStatsV2, ChiSquareLowAndHighBitsAcrossRounds)
{
    std::vector<std::int64_t> low(256, 0), high(256, 0);
    for (std::int64_t round = 0; round < kSamples; ++round) {
        const std::uint64_t word =
            draw_u64(99, 3, static_cast<std::uint64_t>(round), 1);
        ++low[word & 0xff];
        ++high[word >> 56];
    }
    EXPECT_LT(chi_square_256(low, kSamples), kChi2Threshold);
    EXPECT_LT(chi_square_256(high, kSamples), kChi2Threshold);
}

TEST(RngStatsV2, AdjacentNodeStreamsAreIndependent)
{
    // Pair the low nibbles of draw 0 from node v and node v+1: under
    // independence the 256 nibble pairs are uniform. Catches cross-stream
    // correlation that per-stream uniformity cannot.
    std::vector<std::int64_t> buckets(256, 0);
    for (std::int64_t v = 0; v < kSamples; ++v) {
        const std::uint64_t a = draw_u64(5, static_cast<std::uint64_t>(v), 0, 0);
        const std::uint64_t b =
            draw_u64(5, static_cast<std::uint64_t>(v) + 1, 0, 0);
        ++buckets[((a & 0xf) << 4) | (b & 0xf)];
    }
    EXPECT_LT(chi_square_256(buckets, kSamples), kChi2Threshold);
}

TEST(RngStatsV2, UnitDoubleMeanIsHalf)
{
    double sum = 0.0;
    for (std::int64_t i = 0; i < kSamples; ++i)
        sum += to_unit_double(draw_u64(7, 1, 2, static_cast<std::uint64_t>(i)));
    // sd of the mean = (1/sqrt(12)) / sqrt(N) ~ 5.6e-4; allow 5 sigma.
    EXPECT_NEAR(sum / static_cast<double>(kSamples), 0.5, 0.003);
}

/// Accumulates `rounds` independent randomized roundings of the same
/// scheduled flows and returns the per-half-edge mean flow.
std::vector<double> mean_rounded_flow(const graph& g,
                                      std::span<const double> scheduled,
                                      std::int64_t rounds)
{
    std::vector<std::int64_t> flows(scheduled.size());
    std::vector<double> mean(scheduled.size(), 0.0);
    for (std::int64_t r = 0; r < rounds; ++r) {
        round_flows(g, rounding_kind::randomized, scheduled, 2024, r, flows,
                    default_executor());
        for (std::size_t h = 0; h < mean.size(); ++h)
            mean[h] += static_cast<double>(flows[h]);
    }
    for (auto& value : mean) value /= static_cast<double>(rounds);
    return mean;
}

TEST(RngStats, OwnerPassExpectedFlowEqualsIdealizedFlow)
{
    // Observation 1 of the paper (E[error] = 0): the expected rounded flow
    // on every owner half-edge equals the scheduled (idealized) flow. The
    // per-round flow is floor(yhat) plus a nonnegative count bounded by
    // the node's token budget, so its per-round sd is < 1.5 on this graph;
    // with R rounds the mean's 5-sigma band is 7.5/sqrt(R).
    const graph g = make_torus_2d(4, 4);
    std::vector<double> scheduled(static_cast<std::size_t>(g.num_half_edges()));
    // Deterministic antisymmetric fixture with rich fractional parts.
    for (node_id v = 0; v < g.num_nodes(); ++v)
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h)
            if (h < g.twin(h)) {
                scheduled[h] =
                    static_cast<double>((h * 53 + 29) % 101) / 23.0 - 2.0;
                scheduled[g.twin(h)] = -scheduled[h];
            }

    const std::int64_t rounds = 40000;
    const double tolerance = 7.5 / std::sqrt(static_cast<double>(rounds));

    const auto mean = mean_rounded_flow(g, scheduled, rounds);
    for (half_edge_id h = 0; h < g.num_half_edges(); ++h) {
        if (scheduled[h] <= 0.0) continue; // owner sides only
        EXPECT_NEAR(mean[h], scheduled[h], tolerance) << "h=" << h;
    }
}

TEST(RngStats, BernoulliEdgeExpectedFlowEqualsIdealizedFlow)
{
    const graph g = make_torus_2d(4, 4);
    std::vector<double> scheduled(static_cast<std::size_t>(g.num_half_edges()));
    for (node_id v = 0; v < g.num_nodes(); ++v)
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h)
            if (h < g.twin(h)) {
                scheduled[h] =
                    static_cast<double>((h * 53 + 29) % 101) / 23.0 - 2.0;
                scheduled[g.twin(h)] = -scheduled[h];
            }

    const std::int64_t rounds = 40000;
    // Per-edge Bernoulli: per-round sd <= 0.5, 5-sigma band 2.5/sqrt(R).
    const double tolerance = 2.5 / std::sqrt(static_cast<double>(rounds));
    std::vector<std::int64_t> flows(scheduled.size());

    std::vector<double> mean(scheduled.size(), 0.0);
    for (std::int64_t r = 0; r < rounds; ++r) {
        round_flows(g, rounding_kind::bernoulli_edge, scheduled, 2024, r, flows,
                    default_executor());
        for (std::size_t h = 0; h < mean.size(); ++h)
            mean[h] += static_cast<double>(flows[h]);
    }
    for (auto& value : mean) value /= static_cast<double>(rounds);
    for (half_edge_id h = 0; h < g.num_half_edges(); ++h) {
        if (scheduled[h] <= 0.0) continue;
        EXPECT_NEAR(mean[h], scheduled[h], tolerance) << "h=" << h;
    }
}

TEST(RngStats, V2RoundingConservesTokensAndAntisymmetry)
{
    // Structural invariants: round_flows output is
    // antisymmetric, and each node's outgoing token total differs from the
    // scheduled total by less than 1 (floor plus at most the excess).
    const graph g = make_random_regular_cm(60, 5, 17);
    xoshiro256ss fill{3};
    std::vector<double> scheduled(static_cast<std::size_t>(g.num_half_edges()));
    for (node_id v = 0; v < g.num_nodes(); ++v)
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h)
            if (h < g.twin(h)) {
                scheduled[h] = fill.next_double() * 8.0 - 4.0;
                scheduled[g.twin(h)] = -scheduled[h];
            }
    std::vector<std::int64_t> flows(scheduled.size());

    for (std::int64_t round = 0; round < 50; ++round) {
        round_flows(g, rounding_kind::randomized, scheduled, 7, round, flows,
                    default_executor());
        for (half_edge_id h = 0; h < g.num_half_edges(); ++h)
            ASSERT_EQ(flows[h], -flows[g.twin(h)]) << "h=" << h;
        for (node_id v = 0; v < g.num_nodes(); ++v) {
            double scheduled_out = 0.0;
            std::int64_t sent = 0;
            for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v);
                 ++h)
                if (scheduled[h] > 0.0) {
                    scheduled_out += scheduled[h];
                    sent += flows[h];
                }
            EXPECT_GE(sent, static_cast<std::int64_t>(scheduled_out) -
                                static_cast<std::int64_t>(
                                    g.half_edge_end(v) - g.half_edge_begin(v)));
            EXPECT_LE(static_cast<double>(sent), std::ceil(scheduled_out) + 0.5);
        }
    }
}

} // namespace
} // namespace dlb
