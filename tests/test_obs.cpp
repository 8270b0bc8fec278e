// Tests for the observability layer (src/obs): trace-event JSON output,
// deterministic metrics aggregation, session lifecycle, and run manifests.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/campaign_executor.hpp"
#include "campaign/graph_cache.hpp"
#include "campaign/report.hpp"
#include "core/alpha.hpp"
#include "core/checkpoint.hpp"
#include "core/cumulative_baseline.hpp"
#include "core/diffusion_matrix.hpp"
#include "core/process.hpp"
#include "core/speeds.hpp"
#include "graph/generators.hpp"
#include "obs/manifest.hpp"
#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "sim/initial_load.hpp"
#include "sim/thread_pool.hpp"

namespace dlb {
namespace {

std::string read_file(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// Minimal structural JSON validation: scans the document with a
/// string-aware bracket matcher and checks it is one complete value with
/// balanced {} / [] and properly terminated strings. Not a full parser —
/// the CI smoke job runs python's json.load on real traces — but enough to
/// catch the classic writer bugs (trailing comma never closes the array,
/// unescaped quote, truncated document).
void expect_balanced_json(const std::string& text)
{
    std::vector<char> stack;
    bool in_string = false;
    bool escaped = false;
    for (const char c : text) {
        if (in_string) {
            if (escaped) escaped = false;
            else if (c == '\\') escaped = true;
            else if (c == '"') in_string = false;
            continue;
        }
        switch (c) {
        case '"': in_string = true; break;
        case '{': stack.push_back('}'); break;
        case '[': stack.push_back(']'); break;
        case '}':
        case ']':
            ASSERT_FALSE(stack.empty()) << "unmatched closer '" << c << "'";
            ASSERT_EQ(stack.back(), c) << "mismatched closer '" << c << "'";
            stack.pop_back();
            break;
        default: break;
        }
    }
    EXPECT_FALSE(in_string) << "unterminated string";
    EXPECT_TRUE(stack.empty()) << "unclosed brackets: " << stack.size();
}

/// Extracts the numeric value of `"key":` immediately following `from` in
/// the event object that starts at `event_pos`.
double event_number(const std::string& text, std::size_t event_pos,
                    const std::string& key)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = text.find(needle, event_pos);
    EXPECT_NE(pos, std::string::npos) << "missing " << key;
    return std::stod(text.substr(pos + needle.size()));
}

class ObsSessionTest : public ::testing::Test {
protected:
    std::string trace_path_ = ::testing::TempDir() + "dlb_obs_test_trace.json";
    std::string metrics_path_ =
        ::testing::TempDir() + "dlb_obs_test_metrics.jsonl";
    void TearDown() override
    {
        std::remove(trace_path_.c_str());
        std::remove(metrics_path_.c_str());
    }
};

TEST_F(ObsSessionTest, TraceFileIsValidNestableTraceEventJson)
{
    obs::set_thread_name("obs-test-main");
    {
        obs::session_options options;
        options.trace_path = trace_path_;
        const obs::session session(options);
        ASSERT_TRUE(obs::tracing());

        const obs::trace_span outer("test", "outer_phase");
        {
            const obs::trace_span inner("test", std::string("inner_phase"));
            volatile std::int64_t sink = 0; // measurable inner duration
            for (int i = 0; i < 10000; ++i) sink = sink + i;
        }
        obs::trace_instant("test", "marker");
    }
    ASSERT_FALSE(obs::tracing());

    const std::string text = read_file(trace_path_);
    expect_balanced_json(text);
    EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);

    // The instant event and the thread-name metadata made it out.
    EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(text.find("obs-test-main"), std::string::npos);

    // Both spans are complete events and the inner one nests inside the
    // outer: outer.ts <= inner.ts and inner end <= outer end. Timestamps
    // are exact integer-microsecond text (three-digit ns fraction), so the
    // containment comparison is not at the mercy of double rounding.
    const auto outer_pos = text.find("\"name\":\"outer_phase\"");
    const auto inner_pos = text.find("\"name\":\"inner_phase\"");
    ASSERT_NE(outer_pos, std::string::npos);
    ASSERT_NE(inner_pos, std::string::npos);
    const auto outer_obj = text.rfind('{', outer_pos);
    const auto inner_obj = text.rfind('{', inner_pos);
    EXPECT_NE(text.find("\"ph\":\"X\"", outer_obj), std::string::npos);

    const double outer_ts = event_number(text, outer_obj, "ts");
    const double outer_dur = event_number(text, outer_obj, "dur");
    const double inner_ts = event_number(text, inner_obj, "ts");
    const double inner_dur = event_number(text, inner_obj, "dur");
    EXPECT_LE(outer_ts, inner_ts);
    EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur);
    EXPECT_GE(inner_dur, 0.0);
    EXPECT_GE(outer_dur, inner_dur);
}

TEST_F(ObsSessionTest, SpanArgsAreOneNumericObject)
{
    {
        obs::session_options options;
        options.trace_path = trace_path_;
        const obs::session session(options);
        obs::trace_span span("test", "with_args");
        span.set_args({{"first", 1.0}, {"dropped", 2.0}});
        span.set_args({{"count", 3.0},
                       {"ratio", 0.25},
                       {"undefined", std::nan("")}});
    }
    const std::string text = read_file(trace_path_);
    expect_balanced_json(text);
    // The later call replaced the earlier args; a non-finite value is null.
    EXPECT_NE(text.find("\"args\":{\"count\":3,\"ratio\":0.25,"
                        "\"undefined\":null}}"),
              std::string::npos)
        << text;
    EXPECT_EQ(text.find("dropped"), std::string::npos);
}

TEST_F(ObsSessionTest, LambdaSolveSpanCarriesSolverArgs)
{
    // A zipf-speed torus has no closed form: compute_lambda runs the
    // solver inside a linalg/lanczos span whose args are its telemetry.
    const graph g = make_torus_2d(20, 20);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const auto speeds = speed_profile::zipf(400, 1.0, 8.0, 11);
    lanczos_result solved;
    {
        obs::session_options options;
        options.trace_path = trace_path_;
        const obs::session session(options);
        compute_lambda(g, alpha, speeds, &solved);
    }
    ASSERT_TRUE(solved.converged);
    const std::string text = read_file(trace_path_);
    expect_balanced_json(text);
    const auto name_pos = text.find("\"name\":\"lanczos\"");
    ASSERT_NE(name_pos, std::string::npos) << text;
    const auto event = text.rfind('{', name_pos);
    EXPECT_NE(text.find("\"cat\":\"linalg\"", event), std::string::npos);
    EXPECT_LT(text.find("\"cat\":\"linalg\"", event), name_pos);
    EXPECT_EQ(event_number(text, event, "steps"), solved.iterations);
    EXPECT_EQ(event_number(text, event, "applies"), solved.applies);
    EXPECT_GT(solved.applies, solved.iterations);
    // Shortest round-trip text: the residual reads back bit for bit.
    EXPECT_EQ(event_number(text, event, "residual"), solved.residual);
    EXPECT_LE(solved.residual, kLanczosTolerance);
    EXPECT_EQ(event_number(text, event, "converged"), 1.0);
}

TEST_F(ObsSessionTest, EngineStateBytesNameTheArraysEachEngineHolds)
{
    // engine.state_bytes takes one sample per engine constructed, valued at
    // the bytes of its arrays. On the 64x64 torus a discrete or continuous
    // engine holds 16 bytes per half-edge (flows, previous flows) and 8 per
    // node (load), plus 8 per node of load/speed under zipf speeds; the
    // cumulative engine adds 16 per half-edge and 8 per node to its
    // continuous twin's sample. An array added back fails here.
    const graph g = make_torus_2d(64, 64);
    const std::int64_t n = g.num_nodes();
    const std::int64_t half_edges = g.num_half_edges();
    const auto state_bytes = [&](const speed_profile& speeds, auto make_engine) {
        const diffusion_config config{
            &g, make_alpha(g, alpha_policy::max_degree_plus_one), speeds,
            sos_scheme(1.5)};
        obs::session_options options;
        options.collect_metrics = true;
        const obs::session session(options);
        make_engine(config);
        const obs::histogram& h = obs::registry_histogram("engine.state_bytes");
        return std::pair{h.count(), h.sum()};
    };
    const auto samples = [](std::int64_t count, std::int64_t sum) {
        return std::pair{count, sum};
    };
    const auto load = point_load(static_cast<node_id>(n), 0, 1000);
    const auto discrete = [&](const diffusion_config& config) {
        const discrete_process engine(config, load, rounding_kind::randomized, 1);
    };
    const auto uniform = speed_profile::uniform(static_cast<node_id>(n));
    const auto zipf = speed_profile::zipf(static_cast<node_id>(n), 1.0, 8.0, 5);
    EXPECT_EQ(state_bytes(uniform, discrete), samples(1, 16 * half_edges + 8 * n));
    EXPECT_EQ(state_bytes(zipf, discrete), samples(1, 16 * half_edges + 16 * n));
    EXPECT_EQ(state_bytes(zipf,
                          [&](const diffusion_config& config) {
                              const continuous_process engine(
                                  config, to_continuous(load));
                          }),
              samples(1, 16 * half_edges + 16 * n));
    EXPECT_EQ(state_bytes(uniform,
                          [&](const diffusion_config& config) {
                              const cumulative_process engine(config, load);
                          }),
              samples(2, 32 * half_edges + 16 * n));
}

TEST_F(ObsSessionTest, GraphBuildSpanCarriesTheGraphSize)
{
    // A cache miss builds under a campaign/graph.build span whose args
    // name what was built; the hit that follows emits no span.
    campaign::graph_cache cache;
    {
        obs::session_options options;
        options.trace_path = trace_path_;
        const obs::session session(options);
        cache.get("torus", 100, 0.0, 1);
        cache.get("torus", 100, 0.0, 2);
    }
    const std::string text = read_file(trace_path_);
    expect_balanced_json(text);
    const auto name_pos = text.find("\"name\":\"graph.build\"");
    ASSERT_NE(name_pos, std::string::npos) << text;
    EXPECT_EQ(text.find("\"name\":\"graph.build\"", name_pos + 1), std::string::npos);
    const auto event = text.rfind('{', name_pos);
    EXPECT_LT(text.find("\"cat\":\"campaign\"", event), name_pos);
    EXPECT_EQ(event_number(text, event, "nodes"), 100.0);
    EXPECT_EQ(event_number(text, event, "half_edges"), 400.0);
}

TEST_F(ObsSessionTest, WindowsTraceSpansTheRunAndItsResolution)
{
    // Windows resample a snapshot of a zipf-speed SOS torus, whose λ has
    // no closed form: resolving the scenario builds the graph and solves.
    campaign::campaign_spec spec;
    spec.name = "obs-windows";
    spec.base.nodes = 64;
    spec.base.rounds = 20;
    spec.base.speeds = "zipf";
    const std::string dir = ::testing::TempDir() + "dlb_obs_windows";
    std::filesystem::remove_all(dir);
    campaign::campaign_options options;
    options.checkpoint_every = 10;
    options.checkpoint_dir = dir;
    const auto full = campaign::run_campaign(spec, options);
    ASSERT_EQ(full.scenarios.size(), 1u);
    ASSERT_TRUE(full.scenarios[0].error.empty()) << full.scenarios[0].error;
    const engine_checkpoint snapshot = read_checkpoint_file(
        dir + "/0_" + full.scenarios[0].label + ".ckpt");
    std::filesystem::remove_all(dir);

    // The first invocation finds no sidecar, solves λ and writes one; the
    // second reads λ from it.
    const std::string sidecar = dir + ".sidecar";
    std::filesystem::remove(sidecar);
    campaign::measure_windows_options windows;
    windows.windows = 2;
    windows.window_rounds = 5;
    windows.lambda_cache_path = sidecar;
    const auto traced_windows = [&] {
        obs::session_options trace;
        trace.trace_path = trace_path_;
        const obs::session session(trace);
        return campaign::measure_windows(spec, snapshot, windows);
    };
    const auto report = [](const campaign::measure_windows_result& result) {
        std::ostringstream out;
        campaign::write_windows_csv(out, result);
        campaign::write_windows_json(out, result);
        return out.str();
    };
    const auto span_of = [](const std::string& text, const std::string& category,
                            const std::string& name) {
        const auto name_pos = text.find("\"name\":\"" + name + "\"");
        if (name_pos == std::string::npos) return false;
        const auto event = text.rfind('{', name_pos);
        return text.find("\"cat\":\"" + category + "\"", event) < name_pos;
    };

    const auto cold = traced_windows();
    const std::string text = read_file(trace_path_);
    expect_balanced_json(text);
    for (const char* name : {"windows", "graph.build", "lambda.compute"})
        EXPECT_TRUE(span_of(text, "campaign", name)) << name << " missing:\n" << text;
    EXPECT_TRUE(span_of(text, "linalg", "lanczos")) << text;
    ASSERT_TRUE(std::filesystem::exists(sidecar));

    const auto warm = traced_windows();
    const std::string warm_text = read_file(trace_path_);
    expect_balanced_json(warm_text);
    EXPECT_TRUE(span_of(warm_text, "campaign", "windows")) << warm_text;
    EXPECT_EQ(warm_text.find("\"name\":\"lanczos\""), std::string::npos) << warm_text;
    EXPECT_EQ(report(warm), report(cold));
    std::filesystem::remove(sidecar);
}

TEST_F(ObsSessionTest, MetricsAggregationDeterministicAcrossThreadCounts)
{
    // The same work at 1, 2 and 8 workers must snapshot to identical metric
    // values: counters are order-independent integer sums over stripes,
    // histogram buckets depend only on the recorded values.
    const std::int64_t items = 5000;
    auto run_at = [&](unsigned workers) {
        obs::session_options options;
        options.collect_metrics = true;
        const obs::session session(options);
        EXPECT_TRUE(obs::metrics_enabled());
        EXPECT_FALSE(obs::tracing()); // no trace path: metrics only

        thread_pool pool(workers);
        pool.parallel_tasks(items, [](std::int64_t begin, std::int64_t end) {
            obs::counter& c = obs::registry_counter("test.obs.items");
            obs::histogram& h = obs::registry_histogram("test.obs.values");
            for (std::int64_t i = begin; i < end; ++i) {
                c.add(1);
                h.record(i);
            }
        });
        // Keep only the metrics this test owns: the pool registers its own
        // metrics lazily (and their values are timing-dependent by design),
        // so they are not part of the determinism contract checked here.
        std::vector<obs::metric_value> mine;
        for (auto& m : obs::snapshot_metrics())
            if (m.name.rfind("test.obs.", 0) == 0) mine.push_back(std::move(m));
        return mine;
    };

    const auto baseline = run_at(1);
    ASSERT_FALSE(baseline.empty());
    // The snapshot is sorted by name — the deterministic dump order.
    for (std::size_t i = 1; i < baseline.size(); ++i)
        EXPECT_LT(baseline[i - 1].name, baseline[i].name);

    bool saw_counter = false;
    bool saw_histogram = false;
    for (const auto& m : baseline) {
        if (m.name == "test.obs.items") {
            saw_counter = true;
            EXPECT_FALSE(m.is_histogram);
            EXPECT_EQ(m.value, items);
        }
        if (m.name == "test.obs.values") {
            saw_histogram = true;
            EXPECT_TRUE(m.is_histogram);
            EXPECT_EQ(m.value, items);
            EXPECT_EQ(m.sum, items * (items - 1) / 2);
        }
    }
    EXPECT_TRUE(saw_counter);
    EXPECT_TRUE(saw_histogram);

    for (const unsigned workers : {2u, 8u}) {
        const auto snapshot = run_at(workers);
        ASSERT_EQ(snapshot.size(), baseline.size()) << workers;
        for (std::size_t i = 0; i < snapshot.size(); ++i) {
            EXPECT_EQ(snapshot[i].name, baseline[i].name);
            EXPECT_EQ(snapshot[i].is_histogram, baseline[i].is_histogram);
            EXPECT_EQ(snapshot[i].value, baseline[i].value)
                << snapshot[i].name << " workers=" << workers;
            EXPECT_EQ(snapshot[i].sum, baseline[i].sum)
                << snapshot[i].name << " workers=" << workers;
            EXPECT_EQ(snapshot[i].buckets, baseline[i].buckets)
                << snapshot[i].name << " workers=" << workers;
        }
    }
}

TEST_F(ObsSessionTest, MetricsJsonlSortedAndDisabledOutsideSession)
{
    {
        obs::session_options options;
        options.metrics_path = metrics_path_;
        const obs::session session(options);
        obs::registry_counter("test.obs.zz").add(3);
        obs::registry_counter("test.obs.aa").add(2);
    }
    const std::string text = read_file(metrics_path_);
    const auto aa = text.find("\"name\":\"test.obs.aa\"");
    const auto zz = text.find("\"name\":\"test.obs.zz\"");
    ASSERT_NE(aa, std::string::npos);
    ASSERT_NE(zz, std::string::npos);
    EXPECT_LT(aa, zz) << "JSONL must be sorted by metric name";
    EXPECT_NE(text.find("\"type\":\"counter\",\"value\":2"), std::string::npos);
    // Each line is one standalone JSON object.
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line))
        if (!line.empty()) expect_balanced_json(line);

    // Outside any session every instrumentation point is inert: adds are
    // dropped, so the counters still hold their session-final values.
    ASSERT_FALSE(obs::metrics_enabled());
    obs::registry_counter("test.obs.aa").add(100);
    EXPECT_EQ(obs::registry_counter("test.obs.aa").value(), 2);
}

TEST_F(ObsSessionTest, NestedSessionThrowsAndUnopenablePathFails)
{
    obs::session_options outer;
    outer.collect_metrics = true;
    const obs::session session(outer);
    EXPECT_THROW(obs::session(obs::session_options{}), std::logic_error);
}

TEST(ObsSession, UnopenableTraceFileThrowsAndReleasesTheSessionSlot)
{
    obs::session_options bad;
    bad.trace_path = "/nonexistent-dir-for-dlb-obs-test/trace.json";
    EXPECT_THROW(obs::session{bad}, std::runtime_error);
    obs::session_options bad_metrics;
    bad_metrics.metrics_path = "/nonexistent-dir-for-dlb-obs-test/m.jsonl";
    EXPECT_THROW(obs::session{bad_metrics}, std::runtime_error);

    // A failed construction must not leave the singleton slot occupied.
    obs::session_options ok;
    ok.collect_metrics = true;
    EXPECT_NO_THROW(obs::session{ok});
    EXPECT_FALSE(obs::metrics_enabled());
}

// Runs a short-period meter, applies `setup` to it, lets the ticker print
// a few heartbeats, and returns everything written after the meter is torn
// down — the stream is only ever read once the ticker thread has joined,
// so there is no reader/writer race on the ostringstream.
template <class Setup>
std::string heartbeat_lines_after(Setup setup)
{
    std::ostringstream out;
    {
        obs::progress_meter::options options;
        options.period_seconds = 0.005;
        options.out = &out;
        obs::progress_meter meter(options, /*total_scenarios=*/12,
                                  /*total_cost=*/100.0);
        setup(meter);
        // ~20 periods: several heartbeats land after setup's state did.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return out.str();
}

// All-zero predicted cost (every completed scenario priced at zero, or
// only failures so far) has no rate to extrapolate: the heartbeat must say
// `eta=?`, never the inf/nan a raw done_seconds_/done_cost_ would print.
TEST(ObsProgress, EtaIsQuestionMarkWhenCompletedCostIsZero)
{
    const std::string lines =
        heartbeat_lines_after([](obs::progress_meter& meter) {
            meter.scenario_done(/*predicted_cost=*/0.0, /*wall_seconds=*/0.5,
                                /*failed=*/false);
        });
    EXPECT_NE(lines.find("eta=?"), std::string::npos) << lines;
    EXPECT_EQ(lines.find("inf"), std::string::npos) << lines;
    EXPECT_EQ(lines.find("nan"), std::string::npos) << lines;
}

// Before any completion there is no rate either — but there also must be
// no eta field at all (nothing to extrapolate from), matching the
// pre-guard behavior.
TEST(ObsProgress, NoEtaBeforeFirstCompletion)
{
    const std::string lines = heartbeat_lines_after([](obs::progress_meter&) {
    });
    EXPECT_FALSE(lines.empty());
    EXPECT_EQ(lines.find("eta="), std::string::npos) << lines;
}

// Queue-mode heartbeats append the sweep-wide view: global completions
// against the campaign total plus this worker's lease activity.
TEST(ObsProgress, QueueViewRendersInHeartbeat)
{
    const std::string lines =
        heartbeat_lines_after([](obs::progress_meter& meter) {
            meter.set_queue_view(/*queue_done=*/7, /*queue_leased=*/3,
                                 /*stolen=*/1, /*re_leased=*/2);
        });
    EXPECT_NE(lines.find("queue: done=7/12"), std::string::npos) << lines;
    EXPECT_NE(lines.find("leased=3"), std::string::npos) << lines;
    EXPECT_NE(lines.find("stolen=1"), std::string::npos) << lines;
    EXPECT_NE(lines.find("re-leased=2"), std::string::npos) << lines;
}

TEST(ObsHistogram, PowerOfTwoBucketsByBitWidth)
{
    obs::session_options options;
    options.collect_metrics = true;
    const obs::session session(options);

    obs::histogram& h = obs::registry_histogram("test.obs.buckets");
    h.record(0);  // bucket 0
    h.record(1);  // bucket 1
    h.record(2);  // bucket 2
    h.record(3);  // bucket 2
    h.record(4);  // bucket 3
    h.record(7);  // bucket 3
    h.record(8);  // bucket 4
    h.record(-5); // clamped to 0 -> bucket 0
    EXPECT_EQ(h.count(), 8);
    EXPECT_EQ(h.sum(), 0 + 1 + 2 + 3 + 4 + 7 + 8 + 0);
    EXPECT_EQ(h.bucket(0), 2);
    EXPECT_EQ(h.bucket(1), 1);
    EXPECT_EQ(h.bucket(2), 2);
    EXPECT_EQ(h.bucket(3), 2);
    EXPECT_EQ(h.bucket(4), 1);
}

// -- manifests ----------------------------------------------------------------

obs::run_manifest shard_manifest(int index)
{
    obs::run_manifest m;
    m.set("campaign", "demo_sweep");
    m.set("spec_hash", "9f86d081884c7d65");
    m.set("scenario_count", "24");
    m.set("record_every", "7");
    m.set("shard_count", "2");
    m.set("shard_index", std::to_string(index));
    m.set("host", "node" + std::to_string(index));
    return m;
}

const std::vector<std::string> kMustMatch = {
    "campaign", "spec_hash", "scenario_count", "record_every", "shard_count"};

TEST(ObsManifest, RoundTripsThroughWriteAndParse)
{
    obs::run_manifest m = shard_manifest(0);
    m.set("args", "--campaign demo.spec --shard 0/2");
    m.shards.push_back(shard_manifest(0));
    m.shards.push_back(shard_manifest(1));

    std::stringstream io;
    obs::write_manifest(io, m);
    const obs::run_manifest parsed = obs::parse_manifest(io, "roundtrip");

    EXPECT_EQ(parsed.fields, m.fields);
    ASSERT_EQ(parsed.shards.size(), 2u);
    EXPECT_EQ(parsed.shards[0].fields, m.shards[0].fields);
    EXPECT_EQ(parsed.shards[1].fields, m.shards[1].fields);
    EXPECT_EQ(parsed.get("spec_hash"), "9f86d081884c7d65");
    EXPECT_EQ(parsed.get("absent_key"), "");
    EXPECT_FALSE(parsed.has("absent_key"));
}

TEST(ObsManifest, SetReplacesAndSanitizesNewlines)
{
    obs::run_manifest m;
    m.set("key", "first");
    m.set("key", "second");
    ASSERT_EQ(m.fields.size(), 1u);
    EXPECT_EQ(m.get("key"), "second");
    m.set("multi", "line one\nline two");
    EXPECT_EQ(m.get("multi"), "line one line two");
}

TEST(ObsManifest, ParseRejectsBadHeaderAndMalformedLines)
{
    {
        std::stringstream in("campaign = no_header\n");
        EXPECT_THROW(obs::parse_manifest(in, "ctx"), std::runtime_error);
    }
    {
        std::stringstream in("# dlb run manifest v999\nk = v\n");
        EXPECT_THROW(obs::parse_manifest(in, "ctx"), std::runtime_error);
    }
    {
        std::stringstream in("# dlb run manifest v1\nnot a key value line\n");
        EXPECT_THROW(obs::parse_manifest(in, "ctx"), std::runtime_error);
    }
}

TEST(ObsManifest, MergeEmbedsShardsWhenConsistent)
{
    const std::vector<obs::run_manifest> shards = {shard_manifest(0),
                                                   shard_manifest(1)};
    const obs::run_manifest merged = obs::merge_manifests(shards, kMustMatch);
    EXPECT_EQ(merged.get("spec_hash"), "9f86d081884c7d65");
    EXPECT_EQ(merged.get("shard_count"), "2");
    ASSERT_EQ(merged.shards.size(), 2u);
    EXPECT_EQ(merged.shards[0].get("shard_index"), "0");
    EXPECT_EQ(merged.shards[1].get("shard_index"), "1");
    // Per-shard fields (host) stay out of the merged top level.
    EXPECT_FALSE(merged.has("host"));
}

TEST(ObsManifest, MixedMergeRejectedNamingTheDifferingField)
{
    std::vector<obs::run_manifest> shards = {shard_manifest(0),
                                             shard_manifest(1)};
    shards[1].set("spec_hash", "deadbeefdeadbeef");
    try {
        obs::merge_manifests(shards, kMustMatch);
        FAIL() << "merge accepted shards from different campaigns";
    } catch (const std::runtime_error& rejected) {
        const std::string what = rejected.what();
        EXPECT_NE(what.find("spec_hash"), std::string::npos) << what;
        EXPECT_NE(what.find("9f86d081884c7d65"), std::string::npos) << what;
        EXPECT_NE(what.find("deadbeefdeadbeef"), std::string::npos) << what;
    }
}

} // namespace
} // namespace dlb
