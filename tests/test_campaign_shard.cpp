// Sharded campaign execution and resource reuse: shard + merge reports must
// be byte-identical to the unsharded run, and graph-cache / scratch-pool
// runs byte-identical to cold-build runs — the contracts behind splitting a
// 2^20-node discrepancy sweep across machines (specs/) and reassembling one
// canonical report.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "campaign/campaign_executor.hpp"
#include "campaign/cost_model.hpp"
#include "campaign/graph_cache.hpp"
#include "campaign/report.hpp"
#include "campaign/spec.hpp"
#include "core/scratch.hpp"

namespace dlb {
namespace {

using namespace dlb::campaign;

// A sweep that crosses every sharing boundary: deterministic and
// seed-dependent topologies, lambda-computing and lambda-free schemes, a
// dynamic workload, several seeds.
campaign_spec shard_spec()
{
    campaign_spec spec;
    spec.name = "shard-determinism";
    spec.base.nodes = 36;
    spec.base.rounds = 60;
    spec.base.tokens_per_node = 50;
    spec.base.workload_rate = 4.0;
    spec.axes["topology"] = {"torus", "random_regular"};
    spec.axes["scheme"] = {"fos", "sos"};
    spec.axes["workload"] = {"static", "poisson"};
    spec.axes["seed"] = {"1", "2"};
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

// Runs the campaign split shard_count ways, writes each shard's CSV to a
// temp file, merges, and returns the merged result.
campaign_result shard_and_merge(const campaign_spec& spec,
                                std::int64_t shard_count,
                                std::vector<std::string>& paths)
{
    for (std::int64_t s = 0; s < shard_count; ++s) {
        campaign_options options;
        options.threads = 2;
        options.shard_index = s;
        options.shard_count = shard_count;
        const auto shard = run_campaign(spec, options);
        const std::string path = ::testing::TempDir() + "dlb_shard_" +
                                 std::to_string(shard_count) + "_" +
                                 std::to_string(s) + ".csv";
        std::ofstream out(path);
        write_csv(out, shard);
        paths.push_back(path);
    }
    return merge_shard_csv(spec, paths);
}

class ShardMergeTest : public ::testing::Test {
protected:
    std::vector<std::string> paths_;
    void TearDown() override
    {
        for (const auto& path : paths_) std::remove(path.c_str());
    }
};

TEST_F(ShardMergeTest, TwoWayMergeIsByteIdenticalToUnsharded)
{
    const campaign_spec spec = shard_spec();
    const auto full = run_campaign(spec, {});
    const auto merged = shard_and_merge(spec, 2, paths_);
    EXPECT_EQ(csv_of(full), csv_of(merged));
    EXPECT_EQ(json_of(full), json_of(merged));
}

TEST_F(ShardMergeTest, FourWayMergeIsByteIdenticalToUnsharded)
{
    const campaign_spec spec = shard_spec();
    const auto full = run_campaign(spec, {});
    const auto merged = shard_and_merge(spec, 4, paths_);
    EXPECT_EQ(csv_of(full), csv_of(merged));
    EXPECT_EQ(json_of(full), json_of(merged));
}

TEST_F(ShardMergeTest, CostSkewedTwoWayMergeIsByteIdenticalToUnsharded)
{
    // Across a sweep heterogeneous in nodes and rounds the LPT shards own
    // index sets far from round-robin, but global indices ride along in
    // the rows, so the merge reassembles the same canonical bytes.
    campaign_spec spec = shard_spec();
    spec.axes["nodes"] = {"25", "100", "256"};
    spec.axes.erase("workload"); // keep the expansion size reasonable
    const auto full = run_campaign(spec, {});
    const auto merged = shard_and_merge(spec, 2, paths_);
    EXPECT_EQ(csv_of(full), csv_of(merged));
    EXPECT_EQ(json_of(full), json_of(merged));
}

TEST_F(ShardMergeTest, CostSkewedFourWayMergeIsByteIdenticalToUnsharded)
{
    campaign_spec spec = shard_spec();
    spec.axes["nodes"] = {"25", "100", "256"};
    spec.axes.erase("workload");
    const auto full = run_campaign(spec, {});
    const auto merged = shard_and_merge(spec, 4, paths_);
    EXPECT_EQ(csv_of(full), csv_of(merged));
    EXPECT_EQ(json_of(full), json_of(merged));
}

TEST_F(ShardMergeTest, ShardsPartitionTheExpansion)
{
    const campaign_spec spec = shard_spec();
    const auto count = spec.expected_count();
    const auto partition = partition_scenarios(expand(spec), 3);
    std::vector<bool> covered(static_cast<std::size_t>(count), false);
    for (std::int64_t s = 0; s < 3; ++s) {
        campaign_options options;
        options.shard_index = s;
        options.shard_count = 3;
        const auto shard = run_campaign(spec, options);
        const auto& assigned = partition[static_cast<std::size_t>(s)];
        ASSERT_EQ(shard.scenarios.size(), assigned.size());
        for (std::size_t k = 0; k < assigned.size(); ++k) {
            const auto& r = shard.scenarios[k];
            EXPECT_EQ(r.index, assigned[k]);
            EXPECT_FALSE(covered[static_cast<std::size_t>(r.index)]);
            covered[static_cast<std::size_t>(r.index)] = true;
        }
    }
    for (const bool c : covered) EXPECT_TRUE(c);
}

TEST_F(ShardMergeTest, MergeRejectsMismatchedRecordEvery)
{
    // The sampling stride shapes the report (rounds_to_plateau is read off
    // the recorded series); a shard run with a different --record-every
    // must be rejected, not silently merged into diverging bytes.
    const campaign_spec spec = shard_spec();
    for (std::int64_t s = 0; s < 2; ++s) {
        campaign_options options;
        options.shard_index = s;
        options.shard_count = 2;
        if (s == 1) options.record_every = 7; // shard 0 uses the default
        const auto shard = run_campaign(spec, options);
        const std::string path =
            ::testing::TempDir() + "dlb_shard_stride_" + std::to_string(s) +
            ".csv";
        std::ofstream out(path);
        write_csv(out, shard);
        paths_.push_back(path);
    }
    EXPECT_THROW(merge_shard_csv(spec, paths_), std::runtime_error);
    EXPECT_THROW(merge_shard_csv(spec, paths_, 7), std::runtime_error);
}

TEST_F(ShardMergeTest, MergeHonorsExplicitRecordEvery)
{
    const campaign_spec spec = shard_spec();
    campaign_options options;
    options.record_every = 7;
    const auto full = run_campaign(spec, options);

    for (std::int64_t s = 0; s < 2; ++s) {
        campaign_options shard_options;
        shard_options.record_every = 7;
        shard_options.shard_index = s;
        shard_options.shard_count = 2;
        const auto shard = run_campaign(spec, shard_options);
        const std::string path = ::testing::TempDir() +
                                 "dlb_shard_re7_" + std::to_string(s) + ".csv";
        std::ofstream out(path);
        write_csv(out, shard);
        paths_.push_back(path);
    }
    const auto merged = merge_shard_csv(spec, paths_, 7);
    EXPECT_EQ(csv_of(full), csv_of(merged));
    EXPECT_EQ(json_of(full), json_of(merged));
    // And the default-stride merge rejects these shards.
    EXPECT_THROW(merge_shard_csv(spec, paths_), std::runtime_error);
}

TEST_F(ShardMergeTest, MergeRejectsDuplicateAndMissingScenarios)
{
    const campaign_spec spec = shard_spec();
    (void)shard_and_merge(spec, 2, paths_); // merge of both halves is fine

    // The same shard twice: every scenario of that shard is a duplicate.
    EXPECT_THROW(merge_shard_csv(spec, {paths_[0], paths_[0]}),
                 std::runtime_error);
    // One shard only: the other half is missing.
    EXPECT_THROW(merge_shard_csv(spec, {paths_[0]}), std::runtime_error);
    // A shard of a different campaign: spec columns mismatch.
    campaign_spec other = shard_spec();
    other.base.rounds = 61;
    EXPECT_THROW(merge_shard_csv(other, paths_), std::runtime_error);
}

TEST_F(ShardMergeTest, InvalidShardOptionsThrow)
{
    campaign_options options;
    options.shard_count = 0;
    EXPECT_THROW(run_campaign(shard_spec(), options), std::invalid_argument);
    options.shard_count = 2;
    options.shard_index = 2;
    EXPECT_THROW(run_campaign(shard_spec(), options), std::invalid_argument);
}

TEST(ShardSpec, ParseShardNotation)
{
    const auto shard = parse_shard("2/8");
    EXPECT_EQ(shard.index, 2);
    EXPECT_EQ(shard.count, 8);
    EXPECT_EQ(parse_shard("0/1").count, 1);
    EXPECT_THROW(parse_shard("3/2"), std::invalid_argument);
    EXPECT_THROW(parse_shard("-1/2"), std::invalid_argument);
    EXPECT_THROW(parse_shard("1"), std::invalid_argument);
    EXPECT_THROW(parse_shard("1/"), std::invalid_argument);
    EXPECT_THROW(parse_shard("/2"), std::invalid_argument);
    EXPECT_THROW(parse_shard("a/b"), std::invalid_argument);
}

// A bad shard token in a long launch script must point at the flag to fix
// (the PR 5 full-token parsing contract), for every failure class: missing
// slash, zero count, index at/past count, negative tokens, trailing junk.
TEST(ShardSpec, ParseShardFailuresNameTheFlag)
{
    const auto message_of = [](const std::string& text) {
        try {
            parse_shard(text);
        } catch (const std::invalid_argument& failure) {
            return std::string(failure.what());
        }
        return std::string();
    };
    for (const std::string text :
         {"0/0", "9/4", "4/4", "-1/2", "2/-4", "x/2", "1/y", "1/2/3", "1",
          "1/", "/2", " ", "0x1/2", "1/2 extra"}) {
        const std::string message = message_of(text);
        EXPECT_FALSE(message.empty()) << "'" << text << "' was accepted";
        EXPECT_NE(message.find("--shard"), std::string::npos)
            << "'" << text << "' failed without naming the flag: " << message;
    }
    // Inner whitespace is trimmed (launch scripts line-wrap around the
    // slash), full-token parsing still rejects embedded garbage.
    EXPECT_EQ(parse_shard("1 / 4").index, 1);
    EXPECT_EQ(parse_shard("1 / 4").count, 4);
}

TEST(ResourceReuse, WarmRunsAreByteIdenticalToColdRuns)
{
    const campaign_spec spec = shard_spec();

    campaign_options cold;
    cold.reuse_graphs = false;
    cold.pool_scratch = false;
    campaign_options warm; // both reuses on by default
    warm.threads = 4;      // and across the thread axis for good measure

    const auto a = run_campaign(spec, cold);
    const auto b = run_campaign(spec, warm);
    EXPECT_EQ(csv_of(a), csv_of(b));
    EXPECT_EQ(json_of(a), json_of(b));
}

TEST(GraphCache, SharesAcrossSeedsOnlyWhenSeedIndependent)
{
    graph_cache cache;
    // Deterministic family: one instance for the whole seed axis.
    const auto t1 = cache.get("torus", 64, 0.0, 1);
    const auto t2 = cache.get("torus", 64, 0.0, 2);
    EXPECT_EQ(t1.get(), t2.get());
    // Seed-dependent family: distinct instances per seed, shared per seed.
    const auto r1 = cache.get("random_regular", 64, 4.0, 1);
    const auto r2 = cache.get("random_regular", 64, 4.0, 2);
    const auto r1b = cache.get("random_regular", 64, 4.0, 1);
    EXPECT_NE(r1.get(), r2.get());
    EXPECT_EQ(r1.get(), r1b.get());

    const auto stats = cache.stats();
    EXPECT_EQ(stats.graph_misses, 3); // torus, rr seed 1, rr seed 2
    EXPECT_EQ(stats.graph_hits, 2);   // torus seed 2, rr seed 1 again
}

TEST(GraphCache, LambdaComputedOncePerKey)
{
    graph_cache cache;
    int calls = 0;
    const auto compute = [&] {
        ++calls;
        return 0.5;
    };
    EXPECT_DOUBLE_EQ(cache.lambda("k1", compute), 0.5);
    EXPECT_DOUBLE_EQ(cache.lambda("k1", compute), 0.5);
    EXPECT_DOUBLE_EQ(cache.lambda("k2", compute), 0.5);
    EXPECT_EQ(calls, 2);
}

TEST(EngineScratch, ReusesReleasedCapacityZeroed)
{
    engine_scratch scratch;
    auto buffer = scratch.acquire_int(100);
    ASSERT_EQ(buffer.size(), 100u);
    buffer.assign(100, 7);
    const auto* data = buffer.data();
    scratch.release(std::move(buffer));
    EXPECT_EQ(scratch.pooled_count(), 1u);

    // Same allocation comes back, zero-filled, without allocator traffic.
    auto reused = scratch.acquire_int(80);
    EXPECT_EQ(reused.data(), data);
    EXPECT_EQ(reused.size(), 80u);
    for (const auto v : reused) EXPECT_EQ(v, 0);
    EXPECT_EQ(scratch.pooled_count(), 0u);

    // 64-byte alignment for vector loads.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(reused.data()) % 64, 0u);
    auto real = scratch.acquire_real(33);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(real.data()) % 64, 0u);
}

} // namespace
} // namespace dlb
