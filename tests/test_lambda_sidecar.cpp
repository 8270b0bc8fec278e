// The persistent lambda sidecar: a warm second invocation must produce
// byte-identical reports with zero lambda recomputes, shards sharing one
// sidecar must each start warm, and a missing/corrupt/truncated sidecar
// must degrade to recompute — never to an error, and never to a wrong
// lambda.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign_executor.hpp"
#include "campaign/graph_cache.hpp"
#include "campaign/report.hpp"
#include "campaign/spec.hpp"

namespace dlb {
namespace {

using namespace dlb::campaign;

// Every scenario computes lambda (sos with beta <= 0), across two
// topologies and a seed axis — two distinct lambda keys (torus is
// seed-independent; the hypercube rounds 60 -> 64 nodes).
campaign_spec lambda_spec()
{
    campaign_spec spec;
    spec.name = "sidecar";
    spec.base.nodes = 36;
    spec.base.rounds = 40;
    spec.base.tokens_per_node = 50;
    spec.base.scheme = "sos";
    spec.axes["topology"] = {"torus", "hypercube"};
    spec.axes["seed"] = {"1", "2", "3"};
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

std::string read_file(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

class LambdaSidecarTest : public ::testing::Test {
protected:
    std::string path_ = ::testing::TempDir() + "dlb_lambda_sidecar_test.cache";
    void SetUp() override { std::remove(path_.c_str()); }
    void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(LambdaSidecarTest, WarmRunIsByteIdenticalWithZeroMisses)
{
    const campaign_spec spec = lambda_spec();
    campaign_options options;
    options.lambda_cache_path = path_;

    const auto cold = run_campaign(spec, options);
    EXPECT_EQ(cold.lambda_sidecar_loaded, 0); // file did not exist yet
    EXPECT_GT(cold.cache.lambda_misses, 0);   // every key paid Lanczos once

    const auto warm = run_campaign(spec, options);
    EXPECT_EQ(warm.lambda_sidecar_loaded, cold.cache.lambda_misses);
    EXPECT_EQ(warm.cache.lambda_misses, 0); // zero Lanczos on the warm run
    EXPECT_GT(warm.cache.lambda_hits, 0);
    EXPECT_EQ(csv_of(cold), csv_of(warm));
    EXPECT_EQ(json_of(cold), json_of(warm));
}

TEST_F(LambdaSidecarTest, PrePopulatedSidecarWarmsEveryShard)
{
    const campaign_spec spec = lambda_spec();
    campaign_options seed_options;
    seed_options.lambda_cache_path = path_;
    const auto full = run_campaign(spec, seed_options);

    for (std::int64_t s = 0; s < 2; ++s) {
        campaign_options options;
        options.lambda_cache_path = path_;
        options.shard_index = s;
        options.shard_count = 2;
        const auto shard = run_campaign(spec, options);
        EXPECT_EQ(shard.cache.lambda_misses, 0)
            << "shard " << s << " should start warm from the sidecar";
        EXPECT_GT(shard.lambda_sidecar_loaded, 0);
    }
    // The shards' saves kept the sidecar intact for yet another warm run.
    campaign_options options;
    options.lambda_cache_path = path_;
    const auto again = run_campaign(spec, options);
    EXPECT_EQ(again.cache.lambda_misses, 0);
    EXPECT_EQ(csv_of(full), csv_of(again));
}

TEST_F(LambdaSidecarTest, CorruptSidecarDegradesToRecompute)
{
    const campaign_spec spec = lambda_spec();
    const auto reference = run_campaign(spec, {});

    const std::vector<std::string> corruptions = {
        "not a sidecar at all\n",
        "# dlb lambda sidecar v2\ngarbage without a tab\n",
        "# dlb lambda sidecar v2\nkey\tnot-a-number\n",
        "# dlb lambda sidecar v2\nkey\t1e308\n",   // not an eigenvalue
        "# dlb lambda sidecar v2\nkey\tnan\n",     // never a valid lambda
        "# dlb lambda sidecar v2\nkey\t0.5trail\n", // trailing garbage
        "# dlb lambda sidecar v2\ntorus|36|0|-|max_degree_plus_one|unifor",
        std::string("\0\x7f\x01 binary junk", 14),
    };
    for (const auto& corruption : corruptions) {
        {
            std::ofstream out(path_, std::ios::trunc | std::ios::binary);
            out << corruption;
        }
        campaign_options options;
        options.lambda_cache_path = path_;
        const auto result = run_campaign(spec, options);
        EXPECT_EQ(result.lambda_sidecar_loaded, 0)
            << "corrupt entries must be skipped, not loaded: " << corruption;
        EXPECT_GT(result.cache.lambda_misses, 0);
        EXPECT_EQ(csv_of(reference), csv_of(result))
            << "corruption changed report bytes: " << corruption;
        // And the save repaired the file: the next run starts warm.
        campaign_options warm_options;
        warm_options.lambda_cache_path = path_;
        const auto warm = run_campaign(spec, warm_options);
        EXPECT_EQ(warm.cache.lambda_misses, 0);
    }
}

TEST_F(LambdaSidecarTest, VersionOneSidecarIsDroppedAndRecomputed)
{
    // A v1 file holds values of an older solver that stopped at a step cap
    // without a residual check: none may be served. Build a well-formed one
    // from a real run's keys, each value moved by 1.5e-7 (that solver's
    // error on the 256^2 torus).
    const campaign_spec spec = lambda_spec();
    const auto cold = run_campaign(spec, {});
    campaign_options options;
    options.lambda_cache_path = path_;
    run_campaign(spec, options);

    std::istringstream saved(read_file(path_));
    std::string line;
    std::getline(saved, line);
    std::ostringstream body;
    std::size_t entries = 0;
    while (std::getline(saved, line)) {
        const auto tab = line.rfind('\t');
        ASSERT_NE(tab, std::string::npos) << line;
        body << line.substr(0, tab) << '\t' << std::setprecision(17)
             << std::stod(line.substr(tab + 1)) - 1.5e-7 << '\n';
        ++entries;
    }
    ASSERT_GT(entries, 0u);
    const auto write = [&](const std::string& header) {
        std::ofstream out(path_, std::ios::trunc);
        out << header << '\n' << body.str();
    };

    write("# dlb lambda sidecar v2"); // the same body is well formed
    EXPECT_EQ(graph_cache().load_lambda_sidecar(path_), entries);

    write("# dlb lambda sidecar v1");
    const auto result = run_campaign(spec, options);
    EXPECT_EQ(result.lambda_sidecar_loaded, 0);
    EXPECT_EQ(result.cache.lambda_misses, cold.cache.lambda_misses);
    EXPECT_EQ(csv_of(result), csv_of(cold));
    EXPECT_EQ(json_of(result), json_of(cold));
    EXPECT_EQ(read_file(path_).rfind("# dlb lambda sidecar v2\n", 0), 0u)
        << "the save must rewrite the file as v2";
}

TEST_F(LambdaSidecarTest, SaveMergesWithConcurrentlyWrittenEntries)
{
    // Two caches with disjoint keys saving to the same path must accumulate
    // (the second save merges with the first's file) — the shard-process
    // write pattern.
    graph_cache first;
    first.lambda("key-a", [] { return 0.25; });
    EXPECT_EQ(first.save_lambda_sidecar(path_), 1u);

    graph_cache second;
    second.lambda("key-b", [] { return 0.75; });
    EXPECT_EQ(second.save_lambda_sidecar(path_), 2u);

    graph_cache reader;
    EXPECT_EQ(reader.load_lambda_sidecar(path_), 2u);
    int computes = 0;
    const auto compute = [&] {
        ++computes;
        return -1.0;
    };
    EXPECT_DOUBLE_EQ(reader.lambda("key-a", compute), 0.25);
    EXPECT_DOUBLE_EQ(reader.lambda("key-b", compute), 0.75);
    EXPECT_EQ(computes, 0);
    EXPECT_EQ(reader.stats().lambda_hits, 2);
    EXPECT_EQ(reader.stats().lambda_misses, 0);
}

TEST_F(LambdaSidecarTest, LoadedEntriesNeverOverrideComputedOnes)
{
    graph_cache cache;
    cache.lambda("key", [] { return 0.5; });
    {
        std::ofstream out(path_, std::ios::trunc);
        out << "# dlb lambda sidecar v2\nkey\t0.9\n";
    }
    EXPECT_EQ(cache.load_lambda_sidecar(path_), 0u); // already present
    EXPECT_DOUBLE_EQ(cache.lambda("key", [] { return -1.0; }), 0.5);
}

TEST_F(LambdaSidecarTest, SidecarFileRoundTripsExactly)
{
    graph_cache cache;
    const double lambda = 0.9903113817461709; // a real torus lambda shape
    cache.lambda("torus|1024|0|-|max_degree_plus_one|uniform",
                 [=] { return lambda; });
    cache.save_lambda_sidecar(path_);

    const std::string contents = read_file(path_);
    EXPECT_EQ(contents.rfind("# dlb lambda sidecar v2\n", 0), 0u)
        << "sidecar must start with its format header";

    graph_cache reloaded;
    EXPECT_EQ(reloaded.load_lambda_sidecar(path_), 1u);
    EXPECT_EQ(reloaded.lambda("torus|1024|0|-|max_degree_plus_one|uniform",
                              [] { return -1.0; }),
              lambda)
        << "persisted lambdas must round-trip bit-exactly";

    // Saving again (merge path) leaves the bytes stable.
    reloaded.save_lambda_sidecar(path_);
    EXPECT_EQ(read_file(path_), contents);
}

TEST_F(LambdaSidecarTest, UnwritableSidecarReportsErrorWithoutFailingTheRun)
{
    campaign_options options;
    options.lambda_cache_path = "/nonexistent-dir/deeper/lam.cache";
    const auto result = run_campaign(lambda_spec(), options);
    EXPECT_FALSE(result.lambda_sidecar_error.empty())
        << "a failed save must be reported, not swallowed";
    for (const auto& r : result.scenarios)
        EXPECT_TRUE(r.error.empty()) << r.error; // the run itself is intact
}

// A rename that fails at the end of the save (here: the destination is an
// existing directory; in the field: a directory gone read-only mid-run)
// must surface as an error naming the path — a silently swallowed rename
// would quietly degrade the warm cache back to recompute — and must not
// leave its temp file behind.
TEST_F(LambdaSidecarTest, FailedRenameThrowsNamingThePathAndCleansItsTemp)
{
    const std::string blocked = path_ + ".as-dir";
    std::filesystem::create_directories(blocked);
    graph_cache cache;
    cache.lambda("key", [] { return 0.5; });
    try {
        cache.save_lambda_sidecar(blocked);
        FAIL() << "saving onto a directory must throw";
    } catch (const std::runtime_error& failure) {
        EXPECT_NE(std::string(failure.what()).find(blocked),
                  std::string::npos)
            << failure.what();
    }
    // The failed save's temp was removed; only the directory remains.
    std::size_t leftovers = 0;
    const auto parent = std::filesystem::path(blocked).parent_path();
    for (const auto& entry : std::filesystem::directory_iterator(parent))
        if (entry.path().filename().string().rfind(
                std::filesystem::path(blocked).filename().string() + ".tmp.",
                0) == 0)
            ++leftovers;
    EXPECT_EQ(leftovers, 0u);
    std::filesystem::remove_all(blocked);
}

// A process killed between a save's write and rename leaves
// `<sidecar>.tmp.<pid>.<n>` behind. The orphan can never shadow the real
// sidecar (reads go to the real name only), and the next load sweeps it —
// but only when its writer is provably dead: a live pid's temp is an
// in-flight save and must survive.
TEST_F(LambdaSidecarTest, CrashOrphanedTempIsSweptAndNeverShadowsTheSidecar)
{
    // A pid that provably no longer exists: fork a child that exits
    // immediately and reap it.
    const pid_t dead = ::fork();
    ASSERT_GE(dead, 0);
    if (dead == 0) ::_exit(0);
    int status = 0;
    ASSERT_EQ(::waitpid(dead, &status, 0), dead);

    {
        std::ofstream out(path_, std::ios::trunc);
        out << "# dlb lambda sidecar v2\nkey\t0.25\n";
    }
    const std::string orphan =
        path_ + ".tmp." + std::to_string(static_cast<long>(dead)) + ".0";
    const std::string in_flight =
        path_ + ".tmp." + std::to_string(static_cast<long>(::getpid())) +
        ".999999";
    { std::ofstream out(orphan); out << "garbage from a killed save\n"; }
    { std::ofstream out(in_flight); out << "live writer's half-save\n"; }

    graph_cache cache;
    // The load reads the real sidecar, not the orphan...
    EXPECT_EQ(cache.load_lambda_sidecar(path_), 1u);
    EXPECT_DOUBLE_EQ(cache.lambda("key", [] { return -1.0; }), 0.25);
    // ...sweeps the dead writer's temp, and spares the live one's.
    EXPECT_FALSE(std::filesystem::exists(orphan));
    EXPECT_TRUE(std::filesystem::exists(in_flight));

    // A later save is unaffected by ever having had orphans around.
    cache.lambda("key2", [] { return 0.5; });
    cache.save_lambda_sidecar(path_);
    graph_cache reloaded;
    EXPECT_EQ(reloaded.load_lambda_sidecar(path_), 2u);
    std::remove(in_flight.c_str());
}

TEST_F(LambdaSidecarTest, MissingFileLoadsNothing)
{
    graph_cache cache;
    EXPECT_EQ(cache.load_lambda_sidecar(path_ + ".does-not-exist"), 0u);
}

TEST(GraphCacheKey, NormalizesParamZeroAndRejectsNonFinite)
{
    graph_cache cache;
    // -0.0 and 0.0 must share one entry (and one build).
    const auto a = cache.get("torus", 36, 0.0, 1);
    const auto b = cache.get("torus", 36, -0.0, 1);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(cache.stats().graph_misses, 1);
    EXPECT_EQ(cache.stats().graph_hits, 1);

    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(cache.get("torus", 36, nan, 1), std::invalid_argument);
    EXPECT_THROW(
        cache.get("torus", 36, std::numeric_limits<double>::infinity(), 1),
        std::invalid_argument);
}

TEST(SpecValidation, RejectsNonFiniteTopologyParam)
{
    scenario_spec spec;
    for (const char* bad : {"nan", "inf", "-inf"}) {
        try {
            set_field(spec, "topology_param", bad);
            FAIL() << "set_field accepted topology_param = " << bad;
        } catch (const std::invalid_argument& rejected) {
            EXPECT_NE(std::string(rejected.what()).find("topology_param"),
                      std::string::npos)
                << "error should name the field: " << rejected.what();
        }
    }
    set_field(spec, "topology_param", "4"); // finite values still parse
    EXPECT_DOUBLE_EQ(spec.topology_param, 4.0);
}

} // namespace
} // namespace dlb
