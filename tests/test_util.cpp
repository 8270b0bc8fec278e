// Tests for CSV writer, CLI parser, the monotonic timer, and the
// atomic-save temp-file helpers.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/tempfile.hpp"
#include "util/timer.hpp"

namespace dlb {
namespace {

std::string read_file(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

class CsvTest : public ::testing::Test {
protected:
    std::string path_ = ::testing::TempDir() + "dlb_csv_test.csv";
    void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, WritesHeaderAndRows)
{
    {
        csv_writer csv(path_, {"round", "value"});
        csv.row({"0", "1.5"});
        csv.row({"1", "2.5"});
        EXPECT_EQ(csv.rows_written(), 2);
    }
    EXPECT_EQ(read_file(path_), "round,value\n0,1.5\n1,2.5\n");
}

TEST_F(CsvTest, RowWidthMismatchThrows)
{
    csv_writer csv(path_, {"a", "b"});
    EXPECT_THROW(csv.row({"only-one"}), std::invalid_argument);
}

TEST_F(CsvTest, EmptyHeaderThrows)
{
    EXPECT_THROW(csv_writer(path_, {}), std::invalid_argument);
}

TEST_F(CsvTest, NumericRows)
{
    {
        csv_writer csv(path_, {"x", "y"});
        csv.row_numeric({1.0, 0.25});
    }
    EXPECT_EQ(read_file(path_), "x,y\n1,0.25\n");
}

TEST(CsvEscape, QuotesSpecialCharacters)
{
    EXPECT_EQ(csv_writer::escape("plain"), "plain");
    EXPECT_EQ(csv_writer::escape("with,comma"), "\"with,comma\"");
    EXPECT_EQ(csv_writer::escape("with\"quote"), "\"with\"\"quote\"");
    EXPECT_EQ(csv_writer::escape("with\nnewline"), "\"with\nnewline\"");
}

TEST(FormatDouble, RoundTrips)
{
    for (const double v : {0.0, 1.0, -2.5, 0.1, 1e300, 1e-300, 3.141592653589793}) {
        EXPECT_EQ(std::stod(format_double(v)), v);
    }
}

TEST(ParseCsvLine, SplitsAndUnquotes)
{
    const auto plain = parse_csv_line("a,b,c");
    ASSERT_EQ(plain.size(), 3u);
    EXPECT_EQ(plain[0], "a");
    EXPECT_EQ(plain[2], "c");

    const auto empties = parse_csv_line("a,,c,");
    ASSERT_EQ(empties.size(), 4u);
    EXPECT_EQ(empties[1], "");
    EXPECT_EQ(empties[3], "");

    const auto quoted = parse_csv_line("\"with,comma\",\"with\"\"quote\",plain");
    ASSERT_EQ(quoted.size(), 3u);
    EXPECT_EQ(quoted[0], "with,comma");
    EXPECT_EQ(quoted[1], "with\"quote");
    EXPECT_EQ(quoted[2], "plain");

    ASSERT_EQ(parse_csv_line("").size(), 1u); // one empty cell
}

TEST(ParseCsvLine, InvertsEscapeExactly)
{
    const std::vector<std::string> cells = {"plain", "with,comma",
                                            "with\"quote", "", "1.5"};
    std::string line;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i > 0) line += ",";
        line += csv_writer::escape(cells[i]);
    }
    EXPECT_EQ(parse_csv_line(line), cells);
}

TEST(ParseCsvLine, RejectsMalformedQuoting)
{
    EXPECT_THROW(parse_csv_line("\"unterminated"), std::invalid_argument);
    EXPECT_THROW(parse_csv_line("\"closed\"trailing"), std::invalid_argument);
}

cli_args make_args(std::initializer_list<const char*> argv)
{
    std::vector<const char*> args(argv);
    return cli_args(static_cast<int>(args.size()), args.data());
}

TEST(Cli, ParsesFlagsAndValues)
{
    const auto args =
        make_args({"prog", "--full", "--rounds", "500", "--scale=0.5", "pos1"});
    EXPECT_TRUE(args.has("full"));
    EXPECT_FALSE(args.has("missing"));
    EXPECT_EQ(args.get_int("rounds", 0), 500);
    EXPECT_DOUBLE_EQ(args.get_double("scale", 1.0), 0.5);
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "pos1");
    EXPECT_EQ(args.program(), "prog");
}

TEST(Cli, Defaults)
{
    const auto args = make_args({"prog"});
    EXPECT_EQ(args.get_int("rounds", 123), 123);
    EXPECT_EQ(args.get_string("name", "fallback"), "fallback");
    EXPECT_TRUE(args.get_bool("verbose", true));
}

TEST(Cli, BoolForms)
{
    const auto args = make_args({"prog", "--a", "true", "--b=false", "--c", "--d=1"});
    EXPECT_TRUE(args.get_bool("a", false));
    EXPECT_FALSE(args.get_bool("b", true));
    EXPECT_TRUE(args.get_bool("c", false)); // bare flag
    EXPECT_TRUE(args.get_bool("d", false));
}

TEST(Cli, BadBoolThrows)
{
    const auto args = make_args({"prog", "--flag", "maybe"});
    EXPECT_THROW(args.get_bool("flag", false), std::invalid_argument);
}

// A repeated option is refused in every spelling: keeping the last value
// (or the first) would run a command line that says two things.
TEST(Cli, RepeatedOptionThrowsNamingIt)
{
    const auto message_of = [](std::initializer_list<const char*> argv) {
        try {
            make_args(argv);
        } catch (const std::invalid_argument& rejected) {
            return std::string(rejected.what());
        }
        return std::string("(accepted)");
    };
    EXPECT_NE(message_of({"prog", "--nodes", "10", "--nodes", "20"})
                  .find("--nodes"),
              std::string::npos);
    EXPECT_NE(message_of({"prog", "--sweep.nodes=16,32", "--sweep.nodes", "64"})
                  .find("--sweep.nodes"),
              std::string::npos);
    EXPECT_NE(message_of({"prog", "--quiet", "--quiet"}).find("--quiet"),
              std::string::npos);
}

TEST(Cli, EqualsFormBindsTightly)
{
    const auto args = make_args({"prog", "--key=a=b"});
    EXPECT_EQ(args.get_string("key", ""), "a=b");
}

// Numeric getters must consume the full token: `--rounds 100x` is a typo
// to report (naming the flag), never a silent 100.
TEST(Cli, RejectsTrailingGarbageNamingTheFlag)
{
    const auto args = make_args(
        {"prog", "--rounds", "100x", "--alpha", "0.5abc", "--seed", "7seven"});
    try {
        args.get_int("rounds", 0);
        FAIL() << "get_int accepted '100x'";
    } catch (const std::invalid_argument& rejected) {
        EXPECT_NE(std::string(rejected.what()).find("--rounds"),
                  std::string::npos)
            << "error should name the flag: " << rejected.what();
        EXPECT_NE(std::string(rejected.what()).find("100x"), std::string::npos)
            << "error should echo the value: " << rejected.what();
    }
    try {
        args.get_double("alpha", 0.0);
        FAIL() << "get_double accepted '0.5abc'";
    } catch (const std::invalid_argument& rejected) {
        EXPECT_NE(std::string(rejected.what()).find("--alpha"),
                  std::string::npos)
            << rejected.what();
    }
    try {
        args.get_uint64("seed", 0);
        FAIL() << "get_uint64 accepted '7seven'";
    } catch (const std::invalid_argument& rejected) {
        EXPECT_NE(std::string(rejected.what()).find("--seed"),
                  std::string::npos)
            << rejected.what();
    }
}

TEST(Cli, RejectsUnparseableAndOutOfRangeNumbersNamingTheFlag)
{
    const auto args =
        make_args({"prog", "--rounds", "ten", "--scale", "x", "--seed", "-1",
                   "--big", "99999999999999999999999999"});
    EXPECT_THROW(args.get_int("rounds", 0), std::invalid_argument);
    EXPECT_THROW(args.get_double("scale", 0.0), std::invalid_argument);
    // Negative for an unsigned and out-of-range both name the flag too.
    try {
        args.get_uint64("seed", 0);
        FAIL() << "get_uint64 accepted '-1'";
    } catch (const std::invalid_argument& rejected) {
        EXPECT_NE(std::string(rejected.what()).find("--seed"),
                  std::string::npos)
            << rejected.what();
    }
    // A leading space must not smuggle a sign past the unsigned guard
    // (std::stoull skips whitespace and would wrap ' -1' to 2^64-1).
    const auto padded = make_args({"prog", "--seed", " -1"});
    EXPECT_THROW(padded.get_uint64("seed", 0), std::invalid_argument);
    try {
        args.get_int("big", 0);
        FAIL() << "get_int accepted an out-of-range value";
    } catch (const std::invalid_argument& rejected) {
        EXPECT_NE(std::string(rejected.what()).find("--big"), std::string::npos)
            << rejected.what();
    }
}

TEST(Cli, WellFormedNumbersStillParse)
{
    const auto args =
        make_args({"prog", "--rounds", "-42", "--scale", "2.5e-3", "--seed",
                   "18446744073709551615", "--hex-free", "007"});
    EXPECT_EQ(args.get_int("rounds", 0), -42);
    EXPECT_DOUBLE_EQ(args.get_double("scale", 0.0), 2.5e-3);
    EXPECT_EQ(args.get_uint64("seed", 0), 18446744073709551615ull);
    EXPECT_EQ(args.get_int("hex-free", 0), 7);
    // Bare flags (empty value) still fall back rather than throw.
    const auto bare = make_args({"prog", "--flag"});
    EXPECT_EQ(bare.get_int("flag", 5), 5);
    EXPECT_DOUBLE_EQ(bare.get_double("flag", 1.5), 1.5);
    EXPECT_EQ(bare.get_uint64("flag", 9), 9u);
}

// now_ns() is the single time source for stopwatch, obs trace spans and the
// progress heartbeats (util/timer.hpp). It must be monotone non-decreasing —
// a system_clock regression here would let NTP steps produce negative span
// durations and misfired heartbeats.
TEST(Timer, NowNsIsMonotoneNonDecreasing)
{
    std::int64_t previous = now_ns();
    for (int i = 0; i < 100000; ++i) {
        const std::int64_t current = now_ns();
        ASSERT_GE(current, previous) << "clock went backwards at sample " << i;
        previous = current;
    }
}

TEST(Timer, StopwatchElapsedIsNonNegativeAndIncreases)
{
    stopwatch watch;
    const double first = watch.seconds();
    EXPECT_GE(first, 0.0);
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
    const double second = watch.seconds();
    EXPECT_GE(second, first);
    // milliseconds() is defined as seconds() * 1e3; successive reads may
    // advance, so only bound it from below.
    EXPECT_GE(watch.milliseconds(), second * 1e3);
    watch.reset();
    EXPECT_LE(watch.seconds(), second + 1.0); // reset restarts from ~zero
}

// A pid guaranteed not to name a live process: fork a child that exits
// immediately, reap it, and return its now-recycled-but-free pid.
long provably_dead_pid()
{
    const pid_t child = ::fork();
    EXPECT_GE(child, 0);
    if (child == 0) ::_exit(0);
    int status = 0;
    EXPECT_EQ(::waitpid(child, &status, 0), child);
    return static_cast<long>(child);
}

class TempfileTest : public ::testing::Test {
protected:
    std::string dir_ = ::testing::TempDir() + "dlb_tempfile_test";
    void SetUp() override
    {
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }
    std::string touch(const std::string& name)
    {
        const std::string path = dir_ + "/" + name;
        std::ofstream(path) << "x\n";
        return path;
    }
};

TEST_F(TempfileTest, TempPathEmbedsOwnPidAndRoundTripsTheParser)
{
    const std::string temp = temp_path_for(dir_ + "/report.csv");
    // Next to the destination, and recognizably a temp of it.
    EXPECT_EQ(temp.rfind(dir_ + "/report.csv.tmp.", 0), 0u) << temp;
    long pid = 0;
    EXPECT_TRUE(is_temp_file_name(
        std::filesystem::path(temp).filename().string(), &pid));
    EXPECT_EQ(pid, static_cast<long>(::getpid()));
    // Successive temps for the same path never collide (distinct serials).
    EXPECT_NE(temp, temp_path_for(dir_ + "/report.csv"));
}

TEST_F(TempfileTest, MalformedNamesAreNotTemps)
{
    EXPECT_FALSE(is_temp_file_name("report.csv"));
    EXPECT_FALSE(is_temp_file_name("report.csv.tmp.12"));   // no serial
    EXPECT_FALSE(is_temp_file_name("report.csv.tmp..3"));   // empty pid
    EXPECT_FALSE(is_temp_file_name("report.csv.tmp.a.b"));  // non-numeric
    EXPECT_FALSE(is_temp_file_name(".tmp.12.3"));           // empty base
    EXPECT_TRUE(is_temp_file_name("report.csv.tmp.12.3"));
}

TEST_F(TempfileTest, SweepRemovesDeadPidTempsOnly)
{
    const long dead = provably_dead_pid();
    const std::string orphan =
        touch("a.csv.tmp." + std::to_string(dead) + ".0");
    const std::string live = touch(
        "a.csv.tmp." + std::to_string(static_cast<long>(::getpid())) + ".7");
    const std::string real = touch("a.csv");
    const std::string unrelated = touch("notes.txt");

    EXPECT_EQ(sweep_stale_temp_files(dir_), 1u);
    EXPECT_FALSE(std::filesystem::exists(orphan)); // dead writer: swept
    EXPECT_TRUE(std::filesystem::exists(live));    // in-flight save: kept
    EXPECT_TRUE(std::filesystem::exists(real));    // destination: kept
    EXPECT_TRUE(std::filesystem::exists(unrelated));
    EXPECT_EQ(sweep_stale_temp_files(dir_), 0u); // idempotent
}

TEST_F(TempfileTest, SweepPrefixFilterScopesToOneDestination)
{
    const long dead = provably_dead_pid();
    const std::string mine =
        touch("a.csv.tmp." + std::to_string(dead) + ".1");
    const std::string other =
        touch("b.csv.tmp." + std::to_string(dead) + ".2");

    EXPECT_EQ(sweep_stale_temp_files(dir_, "a.csv"), 1u);
    EXPECT_FALSE(std::filesystem::exists(mine));
    EXPECT_TRUE(std::filesystem::exists(other)); // outside the prefix: kept
}

TEST_F(TempfileTest, SweepOfMissingDirectoryRemovesNothing)
{
    EXPECT_EQ(sweep_stale_temp_files(dir_ + "/does-not-exist"), 0u);
}

TEST_F(TempfileTest, AtomicWriteReplacesTheDestinationAndLeavesNoTemp)
{
    const std::string path = touch("report.csv");
    write_text_atomic(path, "new bytes\n", "report");
    EXPECT_EQ(read_file(path), "new bytes\n");
    for (const auto& entry : std::filesystem::directory_iterator(dir_))
        EXPECT_FALSE(is_temp_file_name(entry.path().filename().string()))
            << entry.path();
}

TEST_F(TempfileTest, FailedAtomicWriteThrowsNamingThePathAndLeavesNoTemp)
{
    // A directory at the destination: the temp next to it writes fine, the
    // rename over it fails, and the temp must not outlive the error.
    const std::string path = dir_ + "/report.csv";
    std::filesystem::create_directory(path);
    try {
        write_text_atomic(path, "bytes", "queue report");
        ADD_FAILURE() << "saving onto a directory did not throw";
    } catch (const std::runtime_error& error) {
        const std::string message = error.what();
        EXPECT_EQ(message.rfind("queue report: ", 0), 0u) << message;
        EXPECT_NE(message.find(path), std::string::npos) << message;
    }
    for (const auto& entry : std::filesystem::directory_iterator(dir_))
        EXPECT_FALSE(is_temp_file_name(entry.path().filename().string()))
            << entry.path();
}

} // namespace
} // namespace dlb
