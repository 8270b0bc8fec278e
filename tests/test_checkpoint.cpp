// Checkpointed engine state with byte-identical resume.
//
// Four contracts are pinned here:
//
//  1. Round-trip exactness: save_checkpoint -> serialize -> parse ->
//     restore_checkpoint reproduces every engine field bit-for-bit, and a
//     restored engine's subsequent trajectory is bitwise identical to the
//     engine it was saved from.
//
//  2. Resume byte-identity: a campaign run that checkpoints, and a second
//     invocation resuming from the snapshot, both produce reports
//     byte-identical to the uninterrupted run — across discrete /
//     continuous / cumulative engines, all four roundings and the
//     poisson / burst / drain workload models.
//
//  3. Strict rejection: a snapshot that does not match the run it is fed
//     to (spec hash, seed, rounding, policy, record_every, engine kind,
//     round range, load shape) or was taken under the retired v1 stream
//     (rng_version 1) is refused with an error naming the field; an engine
//     restored from malformed state (short vectors, negative round, unknown
//     scheme) refuses it and keeps its own; and a corrupted snapshot file
//     (eight shapes, mirroring the lambda-sidecar battery) never parses.
//
//  4. Windowed sampling (measure_windows): window 0 with W = rounds -
//     start_round reproduces the uninterrupted run's final discrepancy
//     exactly; aggregates are consistent; the interval is Student-t for
//     K - 1 degrees of freedom, and K = 1 has none; non-discrete snapshots
//     and degenerate options are rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign_executor.hpp"
#include "campaign/report.hpp"
#include "campaign/spec.hpp"
#include "core/alpha.hpp"
#include "core/checkpoint.hpp"
#include "core/process.hpp"
#include "core/scheme.hpp"
#include "graph/generators.hpp"
#include "sim/initial_load.hpp"
#include "sim/runner.hpp"

namespace dlb {
namespace {

using namespace dlb::campaign;

// One small-but-busy scenario: random initial load, an SOS -> FOS switch
// mid-run and (per test) a dynamic workload, so a snapshot taken at round
// 40 carries nontrivial scheme, hybrid, tracker and conservation state.
campaign_spec checkpoint_spec()
{
    campaign_spec spec;
    spec.name = "checkpoint";
    spec.base.nodes = 36;
    spec.base.rounds = 60;
    spec.base.scheme = "sos";
    spec.base.load_pattern = "random";
    spec.base.tokens_per_node = 200;
    spec.base.switch_mode = "at_round";
    spec.base.switch_value = 20;
    spec.base.seed = 7;
    return spec;
}

std::string csv_of(const campaign_result& result)
{
    std::ostringstream out;
    write_csv(out, result);
    return out.str();
}

std::string json_of(const campaign_result& result)
{
    std::ostringstream out;
    write_json(out, result);
    return out.str();
}

std::string read_binary(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void write_binary(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << bytes;
}

void expect_contains(const std::string& message, const std::string& needle)
{
    EXPECT_NE(message.find(needle), std::string::npos)
        << "message \"" << message << "\" does not name \"" << needle << "\"";
}

/// Runs `fn`, which must throw; returns the exception message.
template <class Fn>
std::string thrown_message(Fn&& fn)
{
    try {
        fn();
    } catch (const std::exception& error) {
        return error.what();
    }
    ADD_FAILURE() << "expected an exception, none was thrown";
    return {};
}

class CheckpointTest : public ::testing::Test {
protected:
    std::string dir_ = ::testing::TempDir() + "dlb_checkpoint_test";
    void SetUp() override
    {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string snapshot_path(const campaign_spec& spec,
                              std::int64_t index = 0) const
    {
        const auto scenarios = expand(spec);
        return dir_ + "/" + std::to_string(index) + "_" +
               scenario_label(scenarios[static_cast<std::size_t>(index)]) +
               ".ckpt";
    }
};

// ---------------------------------------------------------------------------
// Resume byte-identity across the engine grid (campaign level).
// ---------------------------------------------------------------------------

struct resume_cell {
    const char* process;
    const char* rounding;
    const char* workload;
};

TEST_F(CheckpointTest, ResumeByteIdenticalAcrossEngineGrid)
{
    // Every dimension value appears: 3 engines, 4 roundings,
    // poisson/burst/drain (two per rounding, cycled through the discrete
    // cells, fixed pairings elsewhere — the cross product would be 36
    // cells for no added coverage).
    std::vector<resume_cell> grid;
    const char* workloads[] = {"poisson", "burst", "drain"};
    int next_workload = 0;
    for (const char* rounding :
         {"randomized", "floor", "nearest", "bernoulli_edge"})
        for (int pairing = 0; pairing < 2; ++pairing)
            grid.push_back(
                {"discrete", rounding, workloads[next_workload++ % 3]});
    for (const char* workload : workloads)
        grid.push_back({"continuous", "randomized", workload});
    grid.push_back({"cumulative", "randomized", "poisson"});
    grid.push_back({"cumulative", "randomized", "drain"});

    for (const auto& cell : grid) {
        campaign_spec spec = checkpoint_spec();
        spec.base.process = cell.process;
        spec.base.rounding = cell.rounding;
        spec.base.workload = cell.workload;
        if (spec.base.workload == "poisson") {
            spec.base.workload_rate = 3.0;
        } else if (spec.base.workload == "drain") {
            spec.base.workload_rate = 2.0;
        } else {
            spec.base.workload_amount = 120;
            spec.base.workload_period = 15;
        }
        SCOPED_TRACE(std::string(cell.process) + "/" + cell.rounding + "/" +
                     cell.workload);

        // Uninterrupted reference.
        const auto full = run_campaign(spec, {});

        // Checkpointing is pure output: the report does not change.
        campaign_options with_snapshots;
        with_snapshots.checkpoint_every = 40;
        with_snapshots.checkpoint_dir = dir_;
        const auto checkpointed = run_campaign(spec, with_snapshots);
        EXPECT_EQ(csv_of(full), csv_of(checkpointed))
            << "checkpointing changed the report bytes";

        const std::string path = snapshot_path(spec);
        const engine_checkpoint snapshot = read_checkpoint_file(path);
        EXPECT_EQ(snapshot.round, 40);
        EXPECT_EQ(snapshot.scenario_index, 0);
        EXPECT_EQ(snapshot.rng_version, kCurrentRngVersion);
        EXPECT_EQ(std::string(to_string(snapshot.engine)), cell.process);

        // Resume from round 40 and compare the whole report byte-for-byte.
        campaign_options resume;
        resume.resume_path = path;
        const auto resumed = run_campaign(spec, resume);
        EXPECT_EQ(csv_of(full), csv_of(resumed))
            << "resumed CSV differs from the uninterrupted run";
        EXPECT_EQ(json_of(full), json_of(resumed))
            << "resumed JSON differs from the uninterrupted run";
    }
}

// ---------------------------------------------------------------------------
// Round-trip exactness (engine level).
// ---------------------------------------------------------------------------

TEST(CheckpointRoundTrip, DiscreteStateSurvivesSerializeParseExactly)
{
    const graph g = make_torus_2d(6, 6);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::bimodal(g.num_nodes(), 0.25, 4.0, 5);
    const diffusion_config diffusion{&g, alpha, speeds, sos_scheme(1.7)};
    const auto initial = point_load(g.num_nodes(), 0, 3600);

    discrete_process engine(diffusion, initial, rounding_kind::randomized, 9);
    engine.run(37);

    engine_checkpoint checkpoint;
    checkpoint.spec_hash = 0xfeedbeefcafef00dULL;
    checkpoint.scenario_index = 3;
    checkpoint.rng_version = 1;
    checkpoint.seed = 9;
    checkpoint.round = engine.round();
    checkpoint.rng_check = checkpoint_rng_check(1, 9, engine.round());
    checkpoint.engine = process_kind::discrete;
    checkpoint.record_every = 7;
    engine.save_checkpoint(checkpoint.discrete);

    const std::string image = serialize_checkpoint(checkpoint);
    const engine_checkpoint parsed = parse_checkpoint(image);

    EXPECT_EQ(parsed.spec_hash, checkpoint.spec_hash);
    EXPECT_EQ(parsed.scenario_index, checkpoint.scenario_index);
    EXPECT_EQ(parsed.rng_version, checkpoint.rng_version);
    EXPECT_EQ(parsed.seed, checkpoint.seed);
    EXPECT_EQ(parsed.rng_check, checkpoint.rng_check);
    EXPECT_EQ(parsed.engine, checkpoint.engine);
    EXPECT_EQ(parsed.round, checkpoint.round);
    EXPECT_EQ(parsed.record_every, checkpoint.record_every);
    EXPECT_EQ(parsed.discrete.load, checkpoint.discrete.load);
    EXPECT_EQ(parsed.discrete.previous_flows,
              checkpoint.discrete.previous_flows);
    EXPECT_EQ(parsed.discrete.round, checkpoint.discrete.round);
    EXPECT_EQ(parsed.discrete.scheme.kind, checkpoint.discrete.scheme.kind);
    EXPECT_EQ(parsed.discrete.scheme.beta, checkpoint.discrete.scheme.beta);
    EXPECT_EQ(parsed.discrete.scheme.lambda,
              checkpoint.discrete.scheme.lambda);
    EXPECT_EQ(parsed.discrete.scheme.rounds_in_scheme,
              checkpoint.discrete.scheme.rounds_in_scheme);
    EXPECT_EQ(parsed.discrete.scheme.omega, checkpoint.discrete.scheme.omega);
    EXPECT_EQ(parsed.discrete.initial_total, checkpoint.discrete.initial_total);
    EXPECT_EQ(parsed.discrete.external_total,
              checkpoint.discrete.external_total);
    EXPECT_EQ(parsed.discrete.clipped_tokens,
              checkpoint.discrete.clipped_tokens);
    EXPECT_EQ(std::memcmp(&parsed.discrete.negative,
                          &checkpoint.discrete.negative,
                          sizeof checkpoint.discrete.negative),
              0);

    // Serialization is a fixed point: re-serializing the parsed snapshot
    // reproduces the file image byte-for-byte.
    EXPECT_EQ(serialize_checkpoint(parsed), image);

    // A fresh engine seeded with a *different* initial distribution,
    // restored from the snapshot, walks the identical trajectory.
    const auto other = point_load(g.num_nodes(), g.num_nodes() - 1, 3600);
    discrete_process resumed(diffusion, other, rounding_kind::randomized, 9);
    resumed.restore_checkpoint(parsed.discrete);
    ASSERT_EQ(resumed.round(), engine.round());
    for (int i = 0; i < 15; ++i) {
        engine.step();
        resumed.step();
    }
    const auto a = engine.load();
    const auto b = resumed.load();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof a[0]), 0)
        << "restored engine diverged from the original";
    EXPECT_TRUE(resumed.verify_conservation());
}

TEST(CheckpointRoundTrip, CumulativeStateSurvivesSerializeParseExactly)
{
    const graph g = make_torus_2d(6, 6);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::uniform(g.num_nodes());
    const diffusion_config diffusion{&g, alpha, speeds, sos_scheme(1.7)};
    const auto initial = point_load(g.num_nodes(), 0, 3600);

    cumulative_process engine(diffusion, initial);
    engine.run(23);

    engine_checkpoint checkpoint;
    checkpoint.seed = 1;
    checkpoint.round = engine.round();
    checkpoint.rng_check =
        checkpoint_rng_check(checkpoint.rng_version, 1, engine.round());
    checkpoint.engine = process_kind::cumulative;
    engine.save_checkpoint(checkpoint.cumulative);

    const engine_checkpoint parsed =
        parse_checkpoint(serialize_checkpoint(checkpoint));
    EXPECT_EQ(parsed.cumulative.load, checkpoint.cumulative.load);
    EXPECT_EQ(parsed.cumulative.cumulative_continuous,
              checkpoint.cumulative.cumulative_continuous);
    EXPECT_EQ(parsed.cumulative.cumulative_discrete,
              checkpoint.cumulative.cumulative_discrete);
    EXPECT_EQ(parsed.cumulative.twin.load, checkpoint.cumulative.twin.load);
    EXPECT_EQ(parsed.cumulative.twin.previous_flows,
              checkpoint.cumulative.twin.previous_flows);

    cumulative_process resumed(diffusion, initial);
    resumed.restore_checkpoint(parsed.cumulative);
    ASSERT_EQ(resumed.round(), engine.round());
    for (int i = 0; i < 15; ++i) {
        engine.step();
        resumed.step();
    }
    const auto a = engine.load();
    const auto b = resumed.load();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof a[0]), 0);
    EXPECT_TRUE(resumed.verify_conservation());
    EXPECT_LE(resumed.max_cumulative_error(), 0.5);
}

// ---------------------------------------------------------------------------
// Wire layout pin (format v1).
//
// Round-trips, resume and the corruption battery all run one build against
// itself, so a field reorder applied consistently to writer and reader
// would pass them — and silently misread every older snapshot. These
// images were produced by the v1 writer and must never change: a snapshot
// built from literal values serializes to exactly these bytes, and parsing
// them yields exactly those values.
// ---------------------------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

checkpoint_scheme_state pinned_scheme()
{
    checkpoint_scheme_state scheme;
    scheme.kind = 1;
    scheme.beta = 1.75;
    scheme.lambda = 0.96875;
    scheme.rounds_in_scheme = 27;
    scheme.omega = 1.3125;
    return scheme;
}

continuous_engine_state pinned_continuous()
{
    continuous_engine_state state;
    state.load = {10.5, -0.25, 3.0};
    state.previous_flows = {0.5, -0.5, 1.25, -1.25};
    state.round = 48;
    state.scheme = pinned_scheme();
    state.initial_total = 13.25;
    state.external_total = -2.5;
    state.negative = {kInf, -0.75, 0, 3};
    return state;
}

engine_checkpoint pinned_snapshot(process_kind engine)
{
    engine_checkpoint c;
    c.spec_hash = 0x0123456789abcdefULL;
    c.scenario_index = 6;
    c.rng_version = engine == process_kind::continuous ? 2 : 1;
    c.seed = 0x5eedULL;
    c.engine = engine;
    c.rounding = 3;
    c.policy = 1;
    c.round = 48;
    c.record_every = 4;
    c.rng_check = checkpoint_rng_check(c.rng_version, c.seed, c.round);

    switch (engine) {
    case process_kind::discrete:
        c.discrete.load = {7, -2, 11};
        c.discrete.previous_flows = {1, -1, 2, -3};
        c.discrete.round = 48;
        c.discrete.scheme = pinned_scheme();
        c.discrete.initial_total = 16;
        c.discrete.external_total = 5;
        c.discrete.clipped_tokens = 9;
        c.discrete.negative = {kInf, kInf, 0, 0};
        break;
    case process_kind::continuous:
        c.continuous = pinned_continuous();
        break;
    case process_kind::cumulative:
        c.cumulative.twin = pinned_continuous();
        c.cumulative.load = {4, 5, 6};
        c.cumulative.cumulative_continuous = {0.5, -0.5, 2.25, -2.25};
        c.cumulative.cumulative_discrete = {1, -1, 2, -2};
        c.cumulative.round = 48;
        c.cumulative.initial_total = 15;
        c.cumulative.external_total = 0;
        c.cumulative.negative = {kInf, -1.0, 0, 2};
        break;
    }

    runner_checkpoint_state& r = c.runner;
    r.series.rounds = {36, 40, 44};
    r.series.max_minus_average = {3.5, 2.25, 1.125};
    r.series.max_local_difference = {2.0, 1.5, 1.0};
    r.series.potential_over_n = {12.5, 6.25, 3.125};
    r.series.min_load = {-1.0, 0.0, 1.0};
    r.series.min_transient_load = {kInf, -2.0, -0.5};
    r.series.total_load_error = {0.0, 0.25, 0.0};
    r.series.switch_round = 20;
    r.series.total_injected = 33;
    r.series.total_drained = 7;
    r.hybrid_switched = true;
    r.hybrid_switch_round = 21;
    r.tracker.count = 49;
    r.tracker.last_improvement = 41;
    r.tracker.best = 1.0625;
    r.tracker.converged = false;
    r.tracker.trailing = {2.25, 1.125};
    r.baseline_total = 3625.0;
    r.ideal_basis = 3600.0;
    r.ideal_stale = true;
    return c;
}

std::string hex_of(std::string_view bytes)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string hex;
    for (const char c : bytes) {
        const auto byte = static_cast<unsigned char>(c);
        hex.push_back(kDigits[byte >> 4]);
        hex.push_back(kDigits[byte & 0xf]);
    }
    return hex;
}

void expect_same_negative(const negative_load_stats& a,
                          const negative_load_stats& b)
{
    EXPECT_EQ(a.min_end_of_round_load, b.min_end_of_round_load);
    EXPECT_EQ(a.min_transient_load, b.min_transient_load);
    EXPECT_EQ(a.rounds_with_negative_end_load, b.rounds_with_negative_end_load);
    EXPECT_EQ(a.rounds_with_negative_transient,
              b.rounds_with_negative_transient);
}

void expect_same_scheme(const checkpoint_scheme_state& a,
                        const checkpoint_scheme_state& b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.beta, b.beta);
    EXPECT_EQ(a.lambda, b.lambda);
    EXPECT_EQ(a.rounds_in_scheme, b.rounds_in_scheme);
    EXPECT_EQ(a.omega, b.omega);
}

void expect_same_continuous(const continuous_engine_state& a,
                            const continuous_engine_state& b)
{
    EXPECT_EQ(a.load, b.load);
    EXPECT_EQ(a.previous_flows, b.previous_flows);
    EXPECT_EQ(a.round, b.round);
    expect_same_scheme(a.scheme, b.scheme);
    EXPECT_EQ(a.initial_total, b.initial_total);
    EXPECT_EQ(a.external_total, b.external_total);
    expect_same_negative(a.negative, b.negative);
}

/// Every field of the header, the active engine section and the runner.
void expect_same_snapshot(const engine_checkpoint& a,
                          const engine_checkpoint& b)
{
    EXPECT_EQ(a.spec_hash, b.spec_hash);
    EXPECT_EQ(a.scenario_index, b.scenario_index);
    EXPECT_EQ(a.rng_version, b.rng_version);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.rng_check, b.rng_check);
    EXPECT_EQ(a.engine, b.engine);
    EXPECT_EQ(a.rounding, b.rounding);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.round, b.round);
    EXPECT_EQ(a.record_every, b.record_every);
    switch (b.engine) {
    case process_kind::discrete:
        EXPECT_EQ(a.discrete.load, b.discrete.load);
        EXPECT_EQ(a.discrete.previous_flows, b.discrete.previous_flows);
        EXPECT_EQ(a.discrete.round, b.discrete.round);
        expect_same_scheme(a.discrete.scheme, b.discrete.scheme);
        EXPECT_EQ(a.discrete.initial_total, b.discrete.initial_total);
        EXPECT_EQ(a.discrete.external_total, b.discrete.external_total);
        EXPECT_EQ(a.discrete.clipped_tokens, b.discrete.clipped_tokens);
        expect_same_negative(a.discrete.negative, b.discrete.negative);
        break;
    case process_kind::continuous:
        expect_same_continuous(a.continuous, b.continuous);
        break;
    case process_kind::cumulative:
        expect_same_continuous(a.cumulative.twin, b.cumulative.twin);
        EXPECT_EQ(a.cumulative.load, b.cumulative.load);
        EXPECT_EQ(a.cumulative.cumulative_continuous,
                  b.cumulative.cumulative_continuous);
        EXPECT_EQ(a.cumulative.cumulative_discrete,
                  b.cumulative.cumulative_discrete);
        EXPECT_EQ(a.cumulative.round, b.cumulative.round);
        EXPECT_EQ(a.cumulative.initial_total, b.cumulative.initial_total);
        EXPECT_EQ(a.cumulative.external_total, b.cumulative.external_total);
        expect_same_negative(a.cumulative.negative, b.cumulative.negative);
        break;
    }
    const runner_checkpoint_state& ra = a.runner;
    const runner_checkpoint_state& rb = b.runner;
    EXPECT_EQ(ra.series.rounds, rb.series.rounds);
    EXPECT_EQ(ra.series.max_minus_average, rb.series.max_minus_average);
    EXPECT_EQ(ra.series.max_local_difference, rb.series.max_local_difference);
    EXPECT_EQ(ra.series.potential_over_n, rb.series.potential_over_n);
    EXPECT_EQ(ra.series.min_load, rb.series.min_load);
    EXPECT_EQ(ra.series.min_transient_load, rb.series.min_transient_load);
    EXPECT_EQ(ra.series.total_load_error, rb.series.total_load_error);
    EXPECT_EQ(ra.series.switch_round, rb.series.switch_round);
    EXPECT_EQ(ra.series.total_injected, rb.series.total_injected);
    EXPECT_EQ(ra.series.total_drained, rb.series.total_drained);
    EXPECT_EQ(ra.hybrid_switched, rb.hybrid_switched);
    EXPECT_EQ(ra.hybrid_switch_round, rb.hybrid_switch_round);
    EXPECT_EQ(ra.tracker.count, rb.tracker.count);
    EXPECT_EQ(ra.tracker.last_improvement, rb.tracker.last_improvement);
    EXPECT_EQ(ra.tracker.best, rb.tracker.best);
    EXPECT_EQ(ra.tracker.converged, rb.tracker.converged);
    EXPECT_EQ(ra.tracker.trailing, rb.tracker.trailing);
    EXPECT_EQ(ra.baseline_total, rb.baseline_total);
    EXPECT_EQ(ra.ideal_basis, rb.ideal_basis);
    EXPECT_EQ(ra.ideal_stale, rb.ideal_stale);
}

struct pinned_image {
    process_kind engine;
    const char* hex;
};

TEST(CheckpointWireLayout, V1BytesArePinnedPerEngine)
{
    const pinned_image images[] = {
        {process_kind::discrete,
         "2320646c6220636865636b706f696e742076310aefcdab896745230106000000"
         "0000000001000000ed5e0000000000008bf133775651c7110000000003000000"
         "0100000030000000000000000400000000000000030000000000000007000000"
         "00000000feffffffffffffff0b00000000000000040000000000000001000000"
         "00000000ffffffffffffffff0200000000000000fdffffffffffffff30000000"
         "0000000001000000000000000000fc3f000000000000ef3f1b00000000000000"
         "000000000000f53f100000000000000005000000000000000900000000000000"
         "000000000000f07f000000000000f07f00000000000000000000000000000000"
         "0300000000000000240000000000000028000000000000002c00000000000000"
         "03000000000000000000000000000c400000000000000240000000000000f23f"
         "03000000000000000000000000000040000000000000f83f000000000000f03f"
         "0300000000000000000000000000294000000000000019400000000000000940"
         "0300000000000000000000000000f0bf0000000000000000000000000000f03f"
         "0300000000000000000000000000f07f00000000000000c0000000000000e0bf"
         "03000000000000000000000000000000000000000000d03f0000000000000000"
         "1400000000000000210000000000000007000000000000000115000000000000"
         "0031000000000000002900000000000000000000000000f13f00020000000000"
         "00000000000000000240000000000000f23f000000000052ac40000000000020"
         "ac40011e89058ba17c9daa"},
        {process_kind::continuous,
         "2320646c6220636865636b706f696e742076310aefcdab896745230106000000"
         "0000000002000000ed5e0000000000009e3b69d20fdfe24b0100000003000000"
         "0100000030000000000000000400000000000000030000000000000000000000"
         "00002540000000000000d0bf0000000000000840040000000000000000000000"
         "0000e03f000000000000e0bf000000000000f43f000000000000f4bf30000000"
         "0000000001000000000000000000fc3f000000000000ef3f1b00000000000000"
         "000000000000f53f0000000000802a4000000000000004c0000000000000f07f"
         "000000000000e8bf000000000000000003000000000000000300000000000000"
         "240000000000000028000000000000002c000000000000000300000000000000"
         "0000000000000c400000000000000240000000000000f23f0300000000000000"
         "0000000000000040000000000000f83f000000000000f03f0300000000000000"
         "0000000000002940000000000000194000000000000009400300000000000000"
         "000000000000f0bf0000000000000000000000000000f03f0300000000000000"
         "000000000000f07f00000000000000c0000000000000e0bf0300000000000000"
         "0000000000000000000000000000d03f00000000000000001400000000000000"
         "2100000000000000070000000000000001150000000000000031000000000000"
         "002900000000000000000000000000f13f000200000000000000000000000000"
         "0240000000000000f23f000000000052ac40000000000020ac4001f9562ff6bc"
         "91ae70"},
        {process_kind::cumulative,
         "2320646c6220636865636b706f696e742076310aefcdab896745230106000000"
         "0000000001000000ed5e0000000000008bf133775651c7110200000003000000"
         "0100000030000000000000000400000000000000030000000000000000000000"
         "00002540000000000000d0bf0000000000000840040000000000000000000000"
         "0000e03f000000000000e0bf000000000000f43f000000000000f4bf30000000"
         "0000000001000000000000000000fc3f000000000000ef3f1b00000000000000"
         "000000000000f53f0000000000802a4000000000000004c0000000000000f07f"
         "000000000000e8bf000000000000000003000000000000000300000000000000"
         "0400000000000000050000000000000006000000000000000400000000000000"
         "000000000000e03f000000000000e0bf000000000000024000000000000002c0"
         "04000000000000000100000000000000ffffffffffffffff0200000000000000"
         "feffffffffffffff30000000000000000f000000000000000000000000000000"
         "000000000000f07f000000000000f0bf00000000000000000200000000000000"
         "0300000000000000240000000000000028000000000000002c00000000000000"
         "03000000000000000000000000000c400000000000000240000000000000f23f"
         "03000000000000000000000000000040000000000000f83f000000000000f03f"
         "0300000000000000000000000000294000000000000019400000000000000940"
         "0300000000000000000000000000f0bf0000000000000000000000000000f03f"
         "0300000000000000000000000000f07f00000000000000c0000000000000e0bf"
         "03000000000000000000000000000000000000000000d03f0000000000000000"
         "1400000000000000210000000000000007000000000000000115000000000000"
         "0031000000000000002900000000000000000000000000f13f00020000000000"
         "00000000000000000240000000000000f23f000000000052ac40000000000020"
         "ac40012ac1d839f36e3865"},
    };
    for (const pinned_image& pinned : images) {
        SCOPED_TRACE(std::string(to_string(pinned.engine)));
        const engine_checkpoint snapshot = pinned_snapshot(pinned.engine);
        const std::string hex = hex_of(serialize_checkpoint(snapshot));
        const std::string expected = pinned.hex;
        const auto differs = std::mismatch(hex.begin(), hex.end(),
                                           expected.begin(), expected.end());
        EXPECT_EQ(hex, expected)
            << "serialized image leaves the pinned v1 bytes at byte "
            << (differs.first - hex.begin()) / 2;

        std::string image;
        for (std::size_t i = 0; i + 1 < expected.size(); i += 2)
            image.push_back(static_cast<char>(
                std::stoi(expected.substr(i, 2), nullptr, 16)));
        expect_same_snapshot(parse_checkpoint(image), snapshot);
    }
}

// ---------------------------------------------------------------------------
// Mismatch rejection, naming the field (runner level).
// ---------------------------------------------------------------------------

TEST(CheckpointResumeValidation, MismatchesThrowNamingTheField)
{
    const graph g = make_torus_2d(6, 6);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::uniform(g.num_nodes());
    const auto initial = point_load(g.num_nodes(), 0, 3600);
    const std::string path =
        ::testing::TempDir() + "dlb_checkpoint_mismatch.ckpt";

    experiment_config config;
    config.diffusion = {&g, alpha, speeds, sos_scheme(1.7)};
    config.seed = 11;
    config.rounds = 50;
    config.record_every = 1;
    config.checkpoint_every = 20;
    config.checkpoint_path = path;
    run_experiment(config, initial);

    const engine_checkpoint snapshot = read_checkpoint_file(path);
    ASSERT_EQ(snapshot.round, 40);
    std::filesystem::remove(path);

    experiment_config base = config;
    base.checkpoint_every = 0;
    base.checkpoint_path.clear();
    base.resume = &snapshot;
    run_experiment(base, initial); // control: the matching config resumes

    const auto message_for = [&](const experiment_config& bad) {
        return thrown_message([&] { run_experiment(bad, initial); });
    };

    {
        experiment_config bad = base;
        bad.seed = 12;
        expect_contains(message_for(bad), "seed");
    }
    {
        // A snapshot of the retired v1 stream: wire value 1 with its probe.
        engine_checkpoint v1_snapshot = snapshot;
        v1_snapshot.rng_version = 1;
        v1_snapshot.rng_check =
            checkpoint_rng_check(1, v1_snapshot.seed, v1_snapshot.round);
        experiment_config bad = base;
        bad.resume = &v1_snapshot;
        expect_contains(message_for(bad), "rng_version");
    }
    {
        experiment_config bad = base;
        bad.rounding = rounding_kind::floor;
        expect_contains(message_for(bad), "rounding");
    }
    {
        // The message spells the kind the way specs and flags accept it.
        experiment_config bad = base;
        bad.rounding = rounding_kind::bernoulli_edge;
        expect_contains(message_for(bad), "bernoulli_edge");
    }
    {
        experiment_config bad = base;
        bad.policy = negative_load_policy::prevent;
        expect_contains(message_for(bad), "policy");
    }
    {
        experiment_config bad = base;
        bad.record_every = 2;
        expect_contains(message_for(bad), "record_every");
    }
    {
        experiment_config bad = base;
        bad.process = process_kind::continuous;
        expect_contains(message_for(bad), "continuous");
    }
    {
        experiment_config bad = base;
        bad.checkpoint_spec_hash = 123;
        expect_contains(message_for(bad), "spec_hash");
    }
    {
        experiment_config bad = base;
        bad.rounds = 30; // snapshot round 40 is beyond the end
        expect_contains(message_for(bad), "round");
    }
    {
        experiment_config bad = base;
        bad.run_continuous_twin = true;
        expect_contains(message_for(bad), "twin");
    }
    {
        // A shape mismatch survives parsing (the snapshot is internally
        // consistent) but must be refused by the engine restore.
        engine_checkpoint forged = snapshot;
        forged.discrete.load.pop_back();
        experiment_config bad = base;
        bad.resume = &forged;
        expect_contains(message_for(bad), "load");
    }
}

// ---------------------------------------------------------------------------
// Malformed engine state, refused by restore_checkpoint itself (engine level).
// ---------------------------------------------------------------------------

/// One malformed copy of an engine's saved state and the words its restore
/// error must contain.
template <class State>
struct forged_state {
    void (*forge)(State&);
    std::vector<std::string> words;
};

/// Restores each forged copy of `engine`'s own state: each must throw
/// std::invalid_argument with a message containing its words, and leave
/// the engine exactly as it was.
template <class Engine, class State>
void expect_restore_refuses(Engine& engine,
                            const std::vector<forged_state<State>>& cases)
{
    State saved;
    engine.save_checkpoint(saved);
    for (const forged_state<State>& bad : cases) {
        State forged = saved;
        bad.forge(forged);
        std::string message;
        try {
            engine.restore_checkpoint(forged);
            ADD_FAILURE() << "restore accepted a state that should name "
                          << bad.words.back();
        } catch (const std::invalid_argument& error) {
            message = error.what();
        }
        for (const std::string& word : bad.words) expect_contains(message, word);

        State after;
        engine.save_checkpoint(after);
        EXPECT_EQ(after.load, saved.load);
        EXPECT_EQ(after.previous_flows, saved.previous_flows);
        EXPECT_EQ(after.round, saved.round);
        EXPECT_EQ(after.scheme.kind, saved.scheme.kind);
    }
}

TEST(CheckpointResumeValidation, EngineRestoreRefusesMalformedStateNamingTheField)
{
    const graph g = make_torus_2d(6, 6);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::uniform(g.num_nodes());
    const diffusion_config diffusion{&g, alpha, speeds, sos_scheme(1.7)};
    const auto initial = point_load(g.num_nodes(), 0, 3600);

    {
        SCOPED_TRACE("continuous");
        const std::vector<double> real_initial(initial.begin(), initial.end());
        continuous_process engine(diffusion, real_initial);
        engine.run(5);
        expect_restore_refuses<continuous_process, continuous_engine_state>(
            engine,
            {{[](continuous_engine_state& s) { s.load.pop_back(); },
              {"continuous load vector"}},
             {[](continuous_engine_state& s) { s.previous_flows.pop_back(); },
              {"continuous previous-flows vector"}},
             {[](continuous_engine_state& s) { s.round = -1; },
              {"continuous round -1"}},
             {[](continuous_engine_state& s) { s.scheme.kind = 9; },
              {"continuous scheme kind 9"}}});
    }
    {
        SCOPED_TRACE("discrete");
        discrete_process engine(diffusion, initial, rounding_kind::randomized, 3);
        engine.run(5);
        expect_restore_refuses<discrete_process, discrete_engine_state>(
            engine,
            {{[](discrete_engine_state& s) { s.load.pop_back(); },
              {"discrete load vector"}},
             {[](discrete_engine_state& s) { s.previous_flows.pop_back(); },
              {"discrete previous-flows vector"}},
             {[](discrete_engine_state& s) { s.round = -1; },
              {"discrete round -1"}},
             {[](discrete_engine_state& s) { s.scheme.kind = 9; },
              {"discrete scheme kind 9"}}});
    }
}

// ---------------------------------------------------------------------------
// Mismatch rejection at the campaign driver.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, CampaignResumeRejectsSpecHashMismatch)
{
    campaign_spec spec = checkpoint_spec();
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    run_campaign(spec, with_snapshots);
    const std::string path = snapshot_path(spec);

    campaign_spec other = spec;
    other.base.rounds = 80; // different campaign, different spec_hash
    campaign_options resume;
    resume.resume_path = path;
    const std::string message =
        thrown_message([&] { run_campaign(other, resume); });
    expect_contains(message, "spec_hash");
    expect_contains(message, path);
}

TEST_F(CheckpointTest, CampaignResumeRejectsRngVersionMismatch)
{
    campaign_spec spec = checkpoint_spec();
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    run_campaign(spec, with_snapshots);

    // Forge a snapshot of the retired v1 stream, with its self-consistent
    // probe word so it parses — the campaign driver must still refuse it.
    engine_checkpoint forged = read_checkpoint_file(snapshot_path(spec));
    forged.rng_version = 1;
    forged.rng_check = checkpoint_rng_check(1, forged.seed, forged.round);
    const std::string forged_path = dir_ + "/forged_rng.ckpt";
    write_checkpoint_file(forged_path, forged);

    campaign_options resume;
    resume.resume_path = forged_path;
    expect_contains(thrown_message([&] { run_campaign(spec, resume); }),
                    "rng_version");
}

TEST_F(CheckpointTest, CampaignResumeRejectsRecordEveryMismatch)
{
    campaign_spec spec = checkpoint_spec();
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    with_snapshots.record_every = 1;
    run_campaign(spec, with_snapshots);

    campaign_options resume;
    resume.resume_path = snapshot_path(spec);
    resume.record_every = 5;
    expect_contains(thrown_message([&] { run_campaign(spec, resume); }),
                    "record_every");
}

TEST_F(CheckpointTest, CampaignResumeRejectsScenarioOutsideShard)
{
    campaign_spec spec = checkpoint_spec();
    spec.axes["seed"] = {"1", "2"};
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    run_campaign(spec, with_snapshots);

    // Scenario 0 lands in shard 0 of 2 (equal costs: LPT puts index i on
    // shard i mod 2); shard 1 must refuse its snapshot rather than
    // silently run it.
    campaign_options resume;
    resume.resume_path = snapshot_path(spec, 0);
    resume.shard_index = 1;
    resume.shard_count = 2;
    expect_contains(thrown_message([&] { run_campaign(spec, resume); }),
                    "shard");
}

TEST_F(CheckpointTest, CheckpointKnobsMustBeSetTogether)
{
    const campaign_spec spec = checkpoint_spec();
    {
        campaign_options options;
        options.checkpoint_every = 5;
        expect_contains(thrown_message([&] { run_campaign(spec, options); }),
                        "together");
    }
    {
        campaign_options options;
        options.checkpoint_dir = dir_;
        expect_contains(thrown_message([&] { run_campaign(spec, options); }),
                        "together");
    }
    {
        campaign_options options;
        options.resume_path = dir_ + "/does_not_exist.ckpt";
        expect_contains(thrown_message([&] { run_campaign(spec, options); }),
                        "does_not_exist.ckpt");
    }
}

// ---------------------------------------------------------------------------
// Corruption battery (mirrors the lambda-sidecar shapes).
// ---------------------------------------------------------------------------

TEST_F(CheckpointTest, CorruptSnapshotFilesAreRejected)
{
    campaign_spec spec = checkpoint_spec();
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    run_campaign(spec, with_snapshots);
    const std::string image = read_binary(snapshot_path(spec));
    ASSERT_GT(image.size(), 100u);
    const std::size_t header = std::string(kCheckpointHeader).size() + 1;

    std::string flipped_payload = image;
    flipped_payload[header + 8] ^= 0x40;
    std::string zeroed_checksum = image;
    for (std::size_t i = image.size() - 8; i < image.size(); ++i)
        zeroed_checksum[i] = '\0';

    const std::vector<std::string> corruptions = {
        "",                                           // empty file
        image.substr(0, 10),                          // truncated header
        "# dlb lambda sidecar v1\n" + image.substr(header), // wrong magic
        std::string(kCheckpointHeader) + "\n",        // header, no payload
        image.substr(0, image.size() * 6 / 10),       // truncated payload
        flipped_payload,                              // flipped byte
        image + "trailing garbage",                   // extra bytes
        zeroed_checksum,                              // checksum wiped
    };
    const std::string path = dir_ + "/corrupt.ckpt";
    for (std::size_t i = 0; i < corruptions.size(); ++i) {
        SCOPED_TRACE("corruption shape " + std::to_string(i));
        write_binary(path, corruptions[i]);
        EXPECT_THROW(read_checkpoint_file(path), std::runtime_error);
        expect_contains(
            thrown_message([&] { read_checkpoint_file(path); }),
            "checkpoint");
    }
}

TEST_F(CheckpointTest, InternallyInconsistentSnapshotsAreRejected)
{
    campaign_spec spec = checkpoint_spec();
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    run_campaign(spec, with_snapshots);
    const engine_checkpoint valid =
        read_checkpoint_file(snapshot_path(spec));

    {
        // Header round drifted from the engine's own round (probe word kept
        // consistent so the round check, not the RNG check, must fire).
        engine_checkpoint forged = valid;
        forged.round += 1;
        forged.rng_check =
            checkpoint_rng_check(forged.rng_version, forged.seed, forged.round);
        expect_contains(
            thrown_message([&] { parse_checkpoint(serialize_checkpoint(forged)); }),
            "round");
    }
    {
        // A probe word from some other RNG implementation.
        engine_checkpoint forged = valid;
        forged.rng_check ^= 1;
        expect_contains(
            thrown_message([&] { parse_checkpoint(serialize_checkpoint(forged)); }),
            "rng");
    }
    {
        // Scheme kind outside the wire range.
        engine_checkpoint forged = valid;
        forged.discrete.scheme.kind = 9;
        expect_contains(
            thrown_message([&] { parse_checkpoint(serialize_checkpoint(forged)); }),
            "scheme");
    }
}

// ---------------------------------------------------------------------------
// Windowed sampling (measure_windows).
// ---------------------------------------------------------------------------

campaign_spec windows_spec()
{
    campaign_spec spec = checkpoint_spec();
    spec.base.workload = "poisson";
    spec.base.workload_rate = 3.0;
    return spec;
}

TEST_F(CheckpointTest, WindowZeroReproducesTheFullRunExactly)
{
    const campaign_spec spec = windows_spec();
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    const auto full = run_campaign(spec, with_snapshots);
    ASSERT_EQ(full.scenarios.size(), 1u);
    ASSERT_TRUE(full.scenarios[0].error.empty()) << full.scenarios[0].error;

    const engine_checkpoint snapshot =
        read_checkpoint_file(snapshot_path(spec));
    measure_windows_options options;
    options.windows = 1;
    options.window_rounds = spec.base.rounds - snapshot.round;
    const auto result = measure_windows(spec, snapshot, options);

    ASSERT_EQ(result.samples.size(), 1u);
    EXPECT_EQ(result.samples[0].seed, spec.base.seed);
    EXPECT_EQ(result.samples[0].discrepancy,
              full.scenarios[0].final_max_minus_average)
        << "window 0 with W = rounds - start_round must replay the tail";
    EXPECT_EQ(result.mean, result.samples[0].discrepancy);
    EXPECT_EQ(result.stddev, 0.0);
    EXPECT_TRUE(std::isnan(result.ci95_half_width))
        << "one window has no interval";
    EXPECT_EQ(result.start_round, snapshot.round);
}

TEST_F(CheckpointTest, ResumeAndWindowZeroReplayAnUnfiredLocalSwitch)
{
    // A local trigger that has not fired at the snapshot must go on
    // reading the local difference on every round after a resume,
    // recorded (every 7th) or not, on both the resumed run and window 0.
    // A point load on 256 nodes keeps the local difference falling past
    // the round-30 snapshot; the first threshold (ascending) that fires at
    // all fires latest.
    campaign_spec spec = windows_spec();
    spec.base.nodes = 256;
    spec.base.load_pattern = "point";
    spec.base.switch_mode = "local";
    campaign_options sparse;
    sparse.record_every = 7;
    std::int64_t switch_round = -1;
    for (double threshold = 0.5; threshold <= 50.0 && switch_round < 0;
         threshold += 0.5) {
        spec.base.switch_value = threshold;
        switch_round = run_campaign(spec, sparse).scenarios[0].switch_round;
    }
    ASSERT_GT(switch_round, 30) << "no threshold fires after the snapshot";
    EXPECT_NE(switch_round % 7, 0) << "the switch round is recorded";

    campaign_options with_snapshots = sparse;
    with_snapshots.checkpoint_every = 30;
    with_snapshots.checkpoint_dir = dir_;
    const auto full = run_campaign(spec, with_snapshots);
    const engine_checkpoint snapshot =
        read_checkpoint_file(snapshot_path(spec));
    ASSERT_EQ(snapshot.round, 30);
    EXPECT_FALSE(snapshot.runner.hybrid_switched);

    campaign_options resume = sparse;
    resume.resume_path = snapshot_path(spec);
    const auto resumed = run_campaign(spec, resume);
    EXPECT_EQ(resumed.scenarios[0].switch_round, switch_round);
    EXPECT_EQ(csv_of(full), csv_of(resumed));

    measure_windows_options options;
    options.windows = 1;
    options.window_rounds = spec.base.rounds - snapshot.round;
    EXPECT_EQ(measure_windows(spec, snapshot, options).samples[0].discrepancy,
              full.scenarios[0].final_max_minus_average);
}

TEST_F(CheckpointTest, WindowAggregatesAreConsistent)
{
    const campaign_spec spec = windows_spec();
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    run_campaign(spec, with_snapshots);
    const engine_checkpoint snapshot =
        read_checkpoint_file(snapshot_path(spec));

    measure_windows_options options;
    options.windows = 5;
    options.window_rounds = 10;
    const auto result = measure_windows(spec, snapshot, options);
    ASSERT_EQ(result.samples.size(), 5u);
    EXPECT_EQ(result.window_rounds, 10);

    // Window 0 keeps the run's seed; every other window is re-seeded and
    // all seeds are pairwise distinct.
    EXPECT_EQ(result.samples[0].seed, spec.base.seed);
    for (std::size_t i = 0; i < result.samples.size(); ++i)
        for (std::size_t j = i + 1; j < result.samples.size(); ++j)
            EXPECT_NE(result.samples[i].seed, result.samples[j].seed)
                << "windows " << i << " and " << j << " share a seed";

    double sum = 0.0;
    for (const auto& sample : result.samples) sum += sample.discrepancy;
    EXPECT_DOUBLE_EQ(result.mean, sum / 5.0);
    EXPECT_GE(result.stddev, 0.0);
    // Student-t with K - 1 = 4 degrees of freedom.
    EXPECT_DOUBLE_EQ(result.ci95_half_width,
                     2.776445 * result.stddev / std::sqrt(5.0));

    // Determinism: the same snapshot and options reproduce the samples.
    const auto again = measure_windows(spec, snapshot, options);
    ASSERT_EQ(again.samples.size(), result.samples.size());
    for (std::size_t i = 0; i < result.samples.size(); ++i) {
        EXPECT_EQ(again.samples[i].seed, result.samples[i].seed);
        EXPECT_EQ(again.samples[i].discrepancy, result.samples[i].discrepancy);
    }
}

TEST(WindowInterval, StudentTQuantileIsPinned)
{
    // Exact quantiles to six decimals up to df 30.
    EXPECT_EQ(student_t_975(1), 12.706205);
    EXPECT_EQ(student_t_975(4), 2.776445);
    EXPECT_EQ(student_t_975(7), 2.364624);
    EXPECT_EQ(student_t_975(30), 2.042272);
    // Linear in 1/df between the knots above 30; exact t_0.975(31) is
    // 2.039513.
    EXPECT_NEAR(student_t_975(31), 2.0395369, 1e-7);
    EXPECT_EQ(student_t_975(40), 2.021075);
    EXPECT_EQ(student_t_975(120), 1.979930);
    EXPECT_NEAR(student_t_975(1000000), 1.959964, 1e-5); // the normal's
    EXPECT_THROW(student_t_975(0), std::invalid_argument);
}

TEST_F(CheckpointTest, WindowIntervalIsStudentTForKMinusOneDegrees)
{
    const campaign_spec spec = windows_spec();
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    run_campaign(spec, with_snapshots);
    const engine_checkpoint snapshot =
        read_checkpoint_file(snapshot_path(spec));

    struct pinned_t {
        std::int64_t windows;
        double t; // t_0.975(windows - 1)
    };
    for (const pinned_t pinned : {pinned_t{2, 12.706205}, pinned_t{5, 2.776445},
                                  pinned_t{8, 2.364624},
                                  pinned_t{32, 2.0395369}}) {
        SCOPED_TRACE("K = " + std::to_string(pinned.windows));
        measure_windows_options options;
        options.windows = pinned.windows;
        options.window_rounds = 5;
        const auto result = measure_windows(spec, snapshot, options);
        ASSERT_EQ(result.samples.size(),
                  static_cast<std::size_t>(pinned.windows));
        EXPECT_GT(result.stddev, 0.0);
        EXPECT_NEAR(result.ci95_half_width / result.stddev *
                        std::sqrt(static_cast<double>(pinned.windows)),
                    pinned.t, 1e-7);
    }

    // K = 1: no interval, an empty CSV cell and a JSON null.
    measure_windows_options one;
    one.windows = 1;
    one.window_rounds = 5;
    const auto single = measure_windows(spec, snapshot, one);
    std::ostringstream csv;
    write_windows_csv(csv, single);
    const std::string row = csv.str().substr(csv.str().find('\n') + 1);
    EXPECT_EQ(row.substr(row.size() - 2), ",\n") << row;
    std::ostringstream json;
    write_windows_json(json, single);
    expect_contains(json.str(), "\"ci95_half_width\": null");
}

TEST_F(CheckpointTest, WindowedSamplingRejectsNonDiscreteAndBadOptions)
{
    campaign_spec continuous = windows_spec();
    continuous.base.process = "continuous";
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    run_campaign(continuous, with_snapshots);
    const engine_checkpoint snapshot =
        read_checkpoint_file(snapshot_path(continuous));

    measure_windows_options options;
    options.windows = 2;
    options.window_rounds = 5;
    expect_contains(
        thrown_message([&] { measure_windows(continuous, snapshot, options); }),
        "discrete");

    const campaign_spec spec = windows_spec();
    {
        measure_windows_options bad = options;
        bad.windows = 0;
        EXPECT_THROW(measure_windows(spec, snapshot, bad),
                     std::invalid_argument);
    }
    {
        measure_windows_options bad = options;
        bad.window_rounds = 0;
        EXPECT_THROW(measure_windows(spec, snapshot, bad),
                     std::invalid_argument);
    }
}

TEST_F(CheckpointTest, WindowedSamplingRejectsRetiredRngVersion)
{
    const campaign_spec spec = windows_spec();
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    run_campaign(spec, with_snapshots);
    engine_checkpoint forged = read_checkpoint_file(snapshot_path(spec));
    forged.rng_version = 1;
    forged.rng_check = checkpoint_rng_check(1, forged.seed, forged.round);

    measure_windows_options options;
    options.windows = 2;
    options.window_rounds = 5;
    expect_contains(
        thrown_message([&] { measure_windows(spec, forged, options); }),
        "rng_version");
}

TEST_F(CheckpointTest, WindowReportsAreWellFormed)
{
    const campaign_spec spec = windows_spec();
    campaign_options with_snapshots;
    with_snapshots.checkpoint_every = 40;
    with_snapshots.checkpoint_dir = dir_;
    run_campaign(spec, with_snapshots);
    const engine_checkpoint snapshot =
        read_checkpoint_file(snapshot_path(spec));

    measure_windows_options options;
    options.windows = 3;
    options.window_rounds = 10;
    const auto result = measure_windows(spec, snapshot, options);

    std::ostringstream csv;
    write_windows_csv(csv, result);
    const std::string csv_text = csv.str();
    expect_contains(csv_text,
                    "window,seed,start_round,window_rounds,discrepancy,"
                    "mean,stddev,ci95_half_width");
    // Header plus one row per window.
    EXPECT_EQ(std::count(csv_text.begin(), csv_text.end(), '\n'), 4);

    std::ostringstream json;
    write_windows_json(json, result);
    expect_contains(json.str(), "\"windows\"");
    expect_contains(json.str(), "\"ci95_half_width\"");

    // Byte-stable like every other report.
    std::ostringstream csv_again;
    write_windows_csv(csv_again, measure_windows(spec, snapshot, options));
    EXPECT_EQ(csv_text, csv_again.str());
}

} // namespace
} // namespace dlb
