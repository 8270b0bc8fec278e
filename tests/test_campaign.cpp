// Tests for the campaign subsystem: spec expansion, the scenario registry,
// spec-file parsing, and thread-count-independent campaign reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

#include "campaign/campaign_executor.hpp"
#include "campaign/registry.hpp"
#include "campaign/report.hpp"
#include "campaign/spec.hpp"
#include "core/alpha.hpp"
#include "core/diffusion_matrix.hpp"
#include "core/speeds.hpp"
#include "graph/algorithms.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/spectra.hpp"
#include "obs/obs.hpp"

namespace dlb {
namespace {

using namespace dlb::campaign;

TEST(CampaignSpec, FieldRoundTripForEveryField)
{
    scenario_spec spec;
    for (const auto& field : field_names()) {
        const std::string before = get_field(spec, field);
        set_field(spec, field, before);
        EXPECT_EQ(get_field(spec, field), before) << field;
    }
    set_field(spec, "topology", "hypercube");
    EXPECT_EQ(spec.topology, "hypercube");
    set_field(spec, "nodes", "4096");
    EXPECT_EQ(spec.nodes, 4096);
    set_field(spec, "beta", "1.5");
    EXPECT_DOUBLE_EQ(spec.beta, 1.5);
    set_field(spec, "seed", "18446744073709551615"); // UINT64_MAX survives
    EXPECT_EQ(spec.seed, 18446744073709551615ULL);
    EXPECT_THROW(set_field(spec, "no_such_field", "x"), std::invalid_argument);
    EXPECT_THROW(set_field(spec, "nodes", "not-a-number"), std::invalid_argument);
    EXPECT_THROW(get_field(spec, "no_such_field"), std::invalid_argument);
}

TEST(CampaignSpec, ExpansionCountIsAxisProduct)
{
    campaign_spec spec;
    EXPECT_EQ(spec.expected_count(), 1);
    EXPECT_EQ(expand(spec).size(), 1u);

    spec.axes["topology"] = {"torus", "hypercube", "cycle"};
    spec.axes["scheme"] = {"fos", "sos"};
    spec.axes["seed"] = {"1", "2"};
    EXPECT_EQ(spec.expected_count(), 12);
    const auto scenarios = expand(spec);
    ASSERT_EQ(scenarios.size(), 12u);

    // Axes iterate key-sorted (scheme, seed, topology), last key fastest.
    EXPECT_EQ(scenarios[0].scheme, "fos");
    EXPECT_EQ(scenarios[0].seed, 1u);
    EXPECT_EQ(scenarios[0].topology, "torus");
    EXPECT_EQ(scenarios[1].topology, "hypercube");
    EXPECT_EQ(scenarios[2].topology, "cycle");
    EXPECT_EQ(scenarios[3].seed, 2u);
    EXPECT_EQ(scenarios[6].scheme, "sos");
}

TEST(CampaignSpec, ExpansionRejectsBadAxes)
{
    campaign_spec spec;
    spec.axes["scheme"] = {};
    EXPECT_THROW(expand(spec), std::invalid_argument);

    spec.axes.clear();
    spec.axes["no_such_field"] = {"x"};
    EXPECT_THROW(expand(spec), std::invalid_argument);

    spec.axes.clear();
    spec.axes["seed"] = std::vector<std::string>(1001, "1");
    spec.axes["rounds"] = std::vector<std::string>(1001, "10");
    EXPECT_THROW(expand(spec), std::invalid_argument); // > 1e6 scenarios
}

TEST(CampaignSpec, SplitListTrims)
{
    const auto items = split_list(" torus , hypercube ,cycle,, ");
    ASSERT_EQ(items.size(), 3u);
    EXPECT_EQ(items[0], "torus");
    EXPECT_EQ(items[1], "hypercube");
    EXPECT_EQ(items[2], "cycle");
}

TEST(CampaignSpec, ParseCampaignFileFormat)
{
    std::istringstream in(
        "# demo campaign\n"
        "name = demo\n"
        "nodes = 144\n"
        "rounds = 50   # trailing comment\n"
        "seed = 9\n"
        "sweep.scheme = fos, sos\n"
        "seeds = 3\n"
        "\n");
    const campaign_spec spec = parse_campaign(in);
    EXPECT_EQ(spec.name, "demo");
    EXPECT_EQ(spec.base.nodes, 144);
    EXPECT_EQ(spec.base.rounds, 50);
    ASSERT_EQ(spec.axes.count("scheme"), 1u);
    ASSERT_EQ(spec.axes.count("seed"), 1u);
    const auto& seeds = spec.axes.at("seed");
    ASSERT_EQ(seeds.size(), 3u);
    EXPECT_EQ(seeds[0], "9");
    EXPECT_EQ(seeds[2], "11");
    EXPECT_EQ(spec.expected_count(), 6);

    std::istringstream bad("nodes 144\n");
    EXPECT_THROW(parse_campaign(bad), std::invalid_argument);
}

TEST(CampaignSpec, SeedsShorthandHonorsLaterSeedLine)
{
    // The "seeds" axis is built after the whole file parses, so a later
    // "seed = N" line still anchors it.
    std::istringstream in(
        "seeds = 3\n"
        "seed = 100\n");
    const campaign_spec spec = parse_campaign(in);
    const auto& seeds = spec.axes.at("seed");
    ASSERT_EQ(seeds.size(), 3u);
    EXPECT_EQ(seeds[0], "100");
    EXPECT_EQ(seeds[2], "102");
}

// -- spec validation ----------------------------------------------------------
//
// The C++ loader is the only spec validator: set_field checks every value
// as it is set, parse_campaign the file grammar, and expand() the sweep
// axes. The ctest entry spec_lint_selftest runs the SpecValidation cases.

// Parses `text` as a campaign file and expands it: the path every spec file,
// --dry-run and campaign run take.
std::vector<scenario_spec> load_and_expand(const std::string& text)
{
    std::istringstream in(text);
    return expand(parse_campaign(in));
}

std::string rejection_message(const std::string& text)
{
    try {
        load_and_expand(text);
    } catch (const std::invalid_argument& rejected) {
        return rejected.what();
    }
    return "(accepted)";
}

// One rejected spec: a finding the loader must report, the campaign file
// that has it, and the field, key or line the message must name.
struct spec_rejection {
    const char* finding;
    const char* text;
    const char* named;
};

class SpecValidationRejects
    : public ::testing::TestWithParam<spec_rejection> {};

TEST_P(SpecValidationRejects, NamingTheCulprit)
{
    const spec_rejection& c = GetParam();
    const std::string message = rejection_message(c.text);
    EXPECT_NE(message.find(c.named), std::string::npos)
        << c.finding << ": " << message;
}

INSTANTIATE_TEST_SUITE_P(
    Findings, SpecValidationRejects,
    ::testing::Values(
        // Sweep expansion beyond the 1e6 scenario cap.
        spec_rejection{"expansion_over_cap",
                       "nodes = 256\nsweep.scheme = fos, sos\n"
                       "seeds = 1048576\n",
                       "sweep axis 'seed' takes the expansion past 1e6"},
        // Values below a field's minimum.
        spec_rejection{"nodes_zero", "nodes = 0\n", "nodes must be >= 1"},
        spec_rejection{"rounds_negative", "rounds = -5\n",
                       "rounds must be >= 0"},
        spec_rejection{"tokens_negative", "tokens_per_node = -1\n",
                       "tokens_per_node must be >= 0"},
        spec_rejection{"workload_amount_negative", "workload_amount = -3\n",
                       "workload_amount must be >= 0"},
        spec_rejection{"workload_rate_negative", "workload_rate = -0.5\n",
                       "workload_rate must be >= 0"},
        spec_rejection{"seeds_zero", "seeds = 0\n", "seeds must be >= 1"},
        // File shape.
        spec_rejection{"malformed_line", "nodes = 64\njust some words\n",
                       "line 2: expected key = value"},
        spec_rejection{"empty_key", "= torus\n", "line 1: empty key"},
        spec_rejection{"empty_name", "name =\n",
                       "line 1: empty campaign name"},
        spec_rejection{"repeated_name", "name = a\nname = b\n",
                       "line 2: 'name' already set on line 1"},
        spec_rejection{"repeated_key", "nodes = 64\nnodes = 128\n",
                       "line 2: 'nodes' already set on line 1"},
        // Sweeps.
        spec_rejection{"empty_sweep_list", "sweep.rounding =\n",
                       "empty sweep list for 'sweep.rounding'"},
        spec_rejection{"repeated_sweep_value", "sweep.scheme = fos, fos\n",
                       "sweep axis 'scheme' repeats 'fos'"},
        spec_rejection{"repeated_canonical_value", "sweep.beta = 1.5, 1.50\n",
                       "sweep axis 'beta' repeats '1.5'"},
        spec_rejection{"repeated_axis",
                       "sweep.rounding = floor\n"
                       "sweep.rounding = floor, nearest\n",
                       "line 2: 'sweep.rounding' already set on line 1"},
        spec_rejection{"seeds_and_seed_axis", "sweep.seed = 1, 2\nseeds = 3\n",
                       "line 2: 'seeds' and 'sweep.seed' (line 1) both"},
        spec_rejection{"unknown_sweep_value", "sweep.rounding = floor, blarg\n",
                       "unknown rounding 'blarg'"},
        spec_rejection{"sweep_over_name", "sweep.name = a, b\n",
                       "unknown field 'name'"},
        // Unknown keys.
        spec_rejection{"unknown_key", "topo = torus\n",
                       "unknown field 'topo'"},
        spec_rejection{"unknown_sweep_key", "sweep.sheme = fos\n",
                       "unknown field 'sheme'"},
        // Bad values.
        spec_rejection{"unknown_topology", "topology = moebius\n",
                       "unknown topology 'moebius'"},
        spec_rejection{"non_numeric", "nodes = sixty-four\n",
                       "bad integer for nodes"},
        // The retired stream-format field (one per-round stream is left).
        spec_rejection{"rng_version_retired", "rng_version = 2\n",
                       "unknown field 'rng_version'"},
        spec_rejection{"topology_param_inf", "topology_param = inf\n",
                       "topology_param must be finite"},
        spec_rejection{"unknown_rounding", "rounding = stochastic\n",
                       "unknown rounding 'stochastic'"}),
    [](const ::testing::TestParamInfo<spec_rejection>& info) {
        return std::string(info.param.finding);
    });

TEST(SpecValidation, CleanSpecsExpand)
{
    // The smallest useful spec, and one that sets every scalar field once.
    EXPECT_EQ(load_and_expand("name = minimal\n"
                              "topology = torus\n"
                              "nodes = 256\n"
                              "rounds = 100\n"
                              "tokens_per_node = 10\n"
                              "load = point\n"
                              "\n"
                              "sweep.scheme = fos, sos\n"
                              "sweep.rounding = randomized, floor\n"
                              "seeds = 2\n")
                  .size(),
              8u);
    EXPECT_EQ(load_and_expand("name = full-surface\n"
                              "topology = erdos_renyi\n"
                              "topology_param = 0.05\n"
                              "nodes = 128\n"
                              "rounds = 50\n"
                              "tokens_per_node = 8\n"
                              "load = bimodal\n"
                              "alpha = uniform_gamma_d\n"
                              "alpha_gamma = 0.5\n"
                              "speeds = zipf\n"
                              "speed_value = 2.0\n"
                              "speed_shape = 1.2\n"
                              "scheme = sos\n"
                              "beta = 0.75\n"
                              "process = continuous\n"
                              "rounding = bernoulli_edge\n"
                              "policy = prevent\n"
                              "switch = at_round\n"
                              "switch_value = 25\n"
                              "workload = poisson\n"
                              "workload_rate = 0.25\n"
                              "workload_amount = 3\n"
                              "workload_period = 5\n"
                              "seed = 42\n")
                  .size(),
              1u);
}

TEST(SpecValidation, WorkloadPeriodZeroLoadsAndBurstRejectsItWhenResolved)
{
    // 0 is the field's default, so it must load (set_field round-trips
    // every default); only the burst model needs a period, and it says so
    // when the scenario resolves.
    const auto scenarios = load_and_expand("name = burst\n"
                                           "nodes = 16\n"
                                           "rounds = 4\n"
                                           "workload = burst\n"
                                           "workload_period = 0\n");
    ASSERT_EQ(scenarios.size(), 1u);
    const auto result = run_scenario(scenarios.front(), 0, 1);
    EXPECT_NE(result.error.find("period must be >= 1"), std::string::npos)
        << result.error;
}

// The base scenario the one-list test varies one field of: tiny, zero
// rounds, FOS so no family needs a lambda.
scenario_spec zero_round_spec()
{
    scenario_spec spec;
    spec.topology = "torus";
    spec.nodes = 16;
    spec.rounds = 0;
    spec.tokens_per_node = 4;
    spec.scheme = "fos";
    return spec;
}

TEST(SpecValidation, EveryListedNameLoadsAndResolves)
{
    std::size_t enumerated = 0;
    for (const std::string& field : field_names()) {
        const std::vector<std::string>* choices = field_choices(field);
        if (choices == nullptr) continue;
        ++enumerated;
        ASSERT_FALSE(choices->empty()) << field;
        for (const std::string& name : *choices) {
            scenario_spec spec = zero_round_spec();
            ASSERT_NO_THROW(set_field(spec, field, name))
                << field << " = " << name;
            // Companion values a name needs to resolve.
            if (name == "burst") spec.workload_period = 1;
            const auto result = run_scenario(spec, 0, 1);
            EXPECT_TRUE(result.error.empty())
                << field << " = " << name << ": " << result.error;
        }
    }
    EXPECT_EQ(enumerated, 10u); // topology, load, workload + seven tables
    // The scheme list carries chebyshev, which the executor runs.
    const auto* schemes = field_choices("scheme");
    ASSERT_NE(schemes, nullptr);
    EXPECT_NE(std::find(schemes->begin(), schemes->end(), "chebyshev"),
              schemes->end());
}

std::string set_field_message(const std::string& field,
                              const std::string& value)
{
    scenario_spec spec = zero_round_spec();
    try {
        set_field(spec, field, value);
    } catch (const std::invalid_argument& rejected) {
        return rejected.what();
    }
    return "(accepted)";
}

TEST(SpecValidation, NearMissNamesAreRejectedWithTheList)
{
    std::vector<std::pair<std::string, std::string>> near_misses = {
        {"topology", "Torus"}, {"scheme", "sos2"}, {"topology", "toruss"}};
    for (const std::string& field : field_names())
        if (const auto* choices = field_choices(field))
            near_misses.emplace_back(field, choices->front() + "_");
    for (const auto& [field, value] : near_misses) {
        // set_field names the field and lists every accepted name.
        const std::string message = set_field_message(field, value);
        EXPECT_NE(message.find("unknown " + field + " '" + value + "'"),
                  std::string::npos)
            << message;
        for (const std::string& name : *field_choices(field))
            EXPECT_NE(message.find(name), std::string::npos)
                << field << ": " << message;
    }

    // A spec built in code skips set_field; run_scenario reports the same
    // message as an error row instead of throwing.
    scenario_spec torus = zero_round_spec();
    torus.topology = "Torus";
    EXPECT_EQ(run_scenario(torus, 0, 1).error,
              set_field_message("topology", "Torus"));
    scenario_spec sos2 = zero_round_spec();
    sos2.scheme = "sos2";
    EXPECT_EQ(run_scenario(sos2, 0, 1).error,
              set_field_message("scheme", "sos2"));
}

TEST(SpecValidation, BenchmarkWorkloadSweepsExpandClean)
{
    // The three end-to-end benchmark workloads' specs, as spec files.
    EXPECT_EQ(load_and_expand("name = sos_torus64k_lambda\n"
                              "topology = torus\nnodes = 65536\n"
                              "scheme = sos\nrounding = randomized\n"
                              "load = point\ntokens_per_node = 1000\n"
                              "rounds = 1000\n"
                              "sweep.speeds = uniform, zipf\n")
                  .size(),
              2u);
    EXPECT_EQ(load_and_expand("name = sos_torus1m_serial\n"
                              "topology = torus\nnodes = 1048576\n"
                              "scheme = sos\nbeta = 1.992268632705741\n"
                              "rounding = randomized\nload = random\n"
                              "tokens_per_node = 100\nrounds = 100\n")
                  .size(),
              1u);
    EXPECT_EQ(load_and_expand("name = sweep_4k_fanout\n"
                              "nodes = 4096\ntopology_param = 12\n"
                              "tokens_per_node = 100\nworkload_rate = 64\n"
                              "rounds = 200\n"
                              "sweep.topology = hypercube, random_regular\n"
                              "sweep.speeds = uniform, zipf\n"
                              "sweep.scheme = fos, sos, chebyshev\n"
                              "sweep.rounding = randomized, floor, nearest, "
                              "bernoulli_edge\n"
                              "sweep.workload = static, poisson\n")
                  .size(),
              96u);
}

TEST(CampaignRegistry, EveryTopologyBuilds)
{
    for (const auto& family : topology_names()) {
        const graph g = build_topology(family, 64, 0.0, 77);
        EXPECT_GT(g.num_nodes(), 0) << family;
        EXPECT_GT(g.num_edges(), 0) << family;
        EXPECT_TRUE(is_connected(g)) << family;
    }
    EXPECT_THROW(build_topology("no_such_family", 64, 0.0, 1),
                 std::invalid_argument);
}

TEST(CampaignRegistry, TopologySizesResolve)
{
    EXPECT_EQ(build_topology("torus", 64, 0.0, 1).num_nodes(), 64);     // 8x8
    EXPECT_EQ(build_topology("grid", 100, 0.0, 1).num_nodes(), 100);    // 10x10
    EXPECT_EQ(build_topology("hypercube", 64, 0.0, 1).num_nodes(), 64); // 2^6
    EXPECT_EQ(build_topology("cycle", 64, 0.0, 1).num_nodes(), 64);
    EXPECT_EQ(build_topology("path", 64, 0.0, 1).num_nodes(), 64);
    EXPECT_EQ(build_topology("complete", 16, 0.0, 1).num_nodes(), 16);
    EXPECT_EQ(build_topology("star", 64, 0.0, 1).num_nodes(), 64);
    // random_regular honors an explicit degree via topology_param.
    const graph r = build_topology("random_regular", 64, 4.0, 1);
    EXPECT_LE(r.max_degree(), 4);
}

TEST(CampaignRegistry, ClosedFormLambdaMatchesTheSolver)
{
    // Requested sizes that each builder rounds: 50 -> 7x7 torus,
    // 100 -> 2^7 hypercube; the hook must size the graph the same way.
    const std::pair<const char*, std::int64_t> hooked[] = {
        {"torus", 50}, {"hypercube", 100}, {"cycle", 37}, {"complete", 13}};
    for (const auto& [family, nodes] : hooked) {
        const auto exact = closed_form_lambda(family, nodes);
        ASSERT_TRUE(exact.has_value()) << family;
        const graph g = build_topology(family, nodes, 0.0, 1);
        const double solved = compute_lambda(
            g, make_alpha(g, alpha_policy::max_degree_plus_one),
            speed_profile::uniform(g.num_nodes()));
        EXPECT_NEAR(*exact, solved, kLanczosTolerance) << family;
    }
    for (const char* family : {"grid", "path", "star", "random_regular",
                               "erdos_renyi", "rgg"})
        EXPECT_FALSE(closed_form_lambda(family, 64).has_value()) << family;
    EXPECT_THROW(closed_form_lambda("no_such_family", 64),
                 std::invalid_argument);
}

TEST(CampaignRegistry, EveryLoadPatternConservesTotal)
{
    const node_id n = 50;
    const std::int64_t per_node = 10;
    for (const auto& pattern : load_pattern_names()) {
        const auto load = build_initial_load(pattern, n, per_node, 123);
        ASSERT_EQ(load.size(), static_cast<std::size_t>(n)) << pattern;
        EXPECT_EQ(std::accumulate(load.begin(), load.end(), std::int64_t{0}),
                  per_node * n)
            << pattern;
        for (const auto value : load) EXPECT_GE(value, 0) << pattern;
    }
    EXPECT_THROW(build_initial_load("no_such_pattern", n, per_node, 1),
                 std::invalid_argument);
}

TEST(CampaignRegistry, PatternShapes)
{
    const auto point = build_initial_load("point", 10, 5, 1);
    EXPECT_EQ(point[0], 50);
    EXPECT_EQ(point[5], 0);

    const auto balanced = build_initial_load("balanced", 10, 5, 1);
    for (const auto v : balanced) EXPECT_EQ(v, 5);

    const auto wave = build_initial_load("wavefront", 10, 5, 1);
    EXPECT_GT(wave[0], wave[9]);
    EXPECT_EQ(wave[9], 0);

    const auto corner = build_initial_load("adversarial_corner", 100, 5, 1);
    for (node_id v = 10; v < 100; ++v) EXPECT_EQ(corner[v], 0);

    // Patterns with randomness are deterministic in the seed.
    EXPECT_EQ(build_initial_load("bimodal", 40, 7, 9),
              build_initial_load("bimodal", 40, 7, 9));
    EXPECT_EQ(build_initial_load("random", 40, 7, 9),
              build_initial_load("random", 40, 7, 9));
}

TEST(CampaignExecutor, ScenarioErrorIsCapturedNotThrown)
{
    scenario_spec spec;
    spec.topology = "no_such_family";
    const auto result = run_scenario(spec, 0, 1);
    EXPECT_FALSE(result.error.empty());
}

TEST(CampaignExecutor, SingleScenarioSummaries)
{
    scenario_spec spec;
    spec.topology = "torus";
    spec.nodes = 36;
    spec.scheme = "sos";
    spec.rounds = 400;
    spec.tokens_per_node = 100;
    const auto result = run_scenario(spec, 3, 1);
    ASSERT_TRUE(result.error.empty()) << result.error;
    EXPECT_EQ(result.index, 3);
    EXPECT_EQ(result.nodes, 36);
    EXPECT_GT(result.beta, 1.0);
    EXPECT_EQ(result.lambda, torus_2d_lambda(6, 6)); // the closed form, exactly
    EXPECT_EQ(result.initial_total, 3600);
    EXPECT_TRUE(result.conservation_ok);
    EXPECT_TRUE(result.imbalance_converged);
    EXPECT_GE(result.rounds_to_plateau, 0);
    EXPECT_LT(result.final_max_minus_average,
              static_cast<double>(result.initial_total));
}

TEST(CampaignExecutor, LambdaTelemetryCountsClosedFormsAndSolves)
{
    // The uniform torus takes the closed form; the zipf one, one solve.
    campaign_spec spec;
    spec.name = "lambda-telemetry";
    spec.base.topology = "torus";
    spec.base.nodes = 64;
    spec.base.rounds = 0;
    spec.base.scheme = "sos";
    spec.axes["speeds"] = {"uniform", "zipf"};
    std::vector<obs::metric_value> metrics;
    {
        obs::session_options options;
        options.collect_metrics = true;
        const obs::session session(options);
        const auto result = run_campaign(spec, {});
        for (const auto& r : result.scenarios) EXPECT_TRUE(r.error.empty());
        metrics = obs::snapshot_metrics();
    }
    const auto find = [&](const std::string& name) {
        for (const auto& m : metrics)
            if (m.name == name) return m;
        ADD_FAILURE() << "no metric " << name;
        return obs::metric_value{};
    };
    EXPECT_EQ(find("linalg.lambda_closed_form").value, 1);
    const obs::metric_value steps = find("linalg.lanczos_steps");
    EXPECT_EQ(steps.value, 1); // one solve...
    EXPECT_GT(steps.sum, 0);   // ...of this many steps
}

campaign_spec determinism_spec()
{
    campaign_spec spec;
    spec.name = "determinism";
    spec.base.nodes = 36;
    spec.base.rounds = 80;
    spec.base.tokens_per_node = 50;
    spec.axes["topology"] = {"torus", "hypercube", "cycle"};
    spec.axes["scheme"] = {"fos", "sos"};
    spec.axes["workload"] = {"static", "poisson"};
    spec.base.workload_rate = 5.0;
    spec.axes["seed"] = {"1", "2"};
    return spec;
}

TEST(CampaignExecutor, ReportsAreThreadCountIndependent)
{
    const campaign_spec spec = determinism_spec();

    campaign_options serial;
    serial.threads = 1;
    campaign_options parallel;
    parallel.threads = 4;

    const auto a = run_campaign(spec, serial);
    const auto b = run_campaign(spec, parallel);
    ASSERT_EQ(a.scenarios.size(), 24u);
    ASSERT_EQ(b.scenarios.size(), 24u);

    std::ostringstream json_a, json_b, csv_a, csv_b;
    write_json(json_a, a);
    write_json(json_b, b);
    write_csv(csv_a, a);
    write_csv(csv_b, b);
    EXPECT_EQ(json_a.str(), json_b.str());
    EXPECT_EQ(csv_a.str(), csv_b.str());
}

TEST(CampaignExecutor, EngineThreadsKeepReportsByteIdentical)
{
    // In-engine parallelism (one kernel pool shared by serially executed
    // scenarios) must not change a single byte of the reports.
    const campaign_spec spec = determinism_spec();

    campaign_options serial;
    serial.threads = 1;
    campaign_options engine_parallel;
    engine_parallel.threads = 4; // forced back to 1 by engine_threads != 1
    engine_parallel.engine_threads = 3;

    const auto a = run_campaign(spec, serial);
    const auto b = run_campaign(spec, engine_parallel);
    ASSERT_EQ(a.scenarios.size(), b.scenarios.size());

    std::ostringstream json_a, json_b;
    write_json(json_a, a);
    write_json(json_b, b);
    EXPECT_EQ(json_a.str(), json_b.str());
}

TEST(CampaignExecutor, ConservationHoldsAcrossTheSweep)
{
    const auto result = run_campaign(determinism_spec(), {});
    for (const auto& r : result.scenarios) {
        ASSERT_TRUE(r.error.empty()) << r.label << ": " << r.error;
        EXPECT_TRUE(r.conservation_ok) << r.label;
    }
}

TEST(CampaignExecutor, SeriesDirWritesPerRoundCurves)
{
    campaign_spec spec;
    spec.base.nodes = 16;
    spec.base.rounds = 30;
    spec.base.scheme = "fos";
    spec.axes["rounding"] = {"randomized", "floor"};

    campaign_options options;
    options.record_every = 1;
    options.series_dir = ::testing::TempDir() + "dlb_campaign_series";
    const auto result = run_campaign(spec, options);

    for (const auto& r : result.scenarios) {
        ASSERT_TRUE(r.error.empty()) << r.error;
        const std::string path = options.series_dir + "/" +
                                 std::to_string(r.index) + "_" + r.label +
                                 ".csv";
        std::ifstream in(path);
        ASSERT_TRUE(in.good()) << path;
        std::string line;
        std::size_t lines = 0;
        while (std::getline(in, line)) ++lines;
        EXPECT_EQ(lines, 1u + 31u); // header + rounds 0..30
        std::filesystem::remove(path);
    }
    std::filesystem::remove(options.series_dir);
}

TEST(CampaignReport, CsvShapeMatchesHeader)
{
    const auto result = run_campaign(determinism_spec(), {});
    std::ostringstream out;
    write_csv(out, result);
    std::istringstream in(out.str());
    std::string line;
    std::size_t lines = 0;
    const auto columns = csv_header().size();
    while (std::getline(in, line)) {
        ++lines;
        // Column count by comma counting; no cell in this campaign embeds
        // commas (labels and enum names are comma-free by construction).
        const auto commas =
            static_cast<std::size_t>(std::count(line.begin(), line.end(), ','));
        EXPECT_EQ(commas + 1, columns);
    }
    EXPECT_EQ(lines, 1 + result.scenarios.size());
}

TEST(CampaignReport, JsonMentionsAggregateAndScenarios)
{
    campaign_spec spec;
    spec.name = "tiny";
    spec.base.nodes = 16;
    spec.base.rounds = 20;
    spec.base.scheme = "fos";
    const auto result = run_campaign(spec, {});
    std::ostringstream out;
    write_json(out, result);
    const std::string text = out.str();
    EXPECT_NE(text.find("\"name\": \"tiny\""), std::string::npos);
    EXPECT_NE(text.find("\"aggregate\""), std::string::npos);
    EXPECT_NE(text.find("\"scenarios\""), std::string::npos);
    EXPECT_NE(text.find("\"conservation_ok\": true"), std::string::npos);
}

} // namespace
} // namespace dlb
