// dlb_campaign: declarative scenario sweeps from the command line.
//
// A campaign is a base scenario plus Cartesian sweep axes. Every scenario
// field can be set as --<field> <value> and swept as --sweep.<field> a,b,c;
// the same vocabulary works in a key=value spec file loaded with --spec.
// Full reference: docs/campaign-specs.md.
//
//   # 24 scenarios: 3 topologies x 2 schemes x 2 roundings x 2 seeds
//   # (one shell command; join the continuation lines)
//   dlb_campaign --nodes 1024 --rounds 400
//     --sweep.topology torus,hypercube,random_regular
//     --sweep.scheme fos,sos --sweep.rounding randomized,floor --seeds 2
//     --threads 8 --json campaign.json --csv campaign.csv
//
//   # the same campaign split across two processes/machines (cost-balanced,
//   # sharing one lambda sidecar), then merged
//   dlb_campaign --spec big.spec --shard 0/2 --lambda-cache lam.cache
//     --csv s0.csv
//   dlb_campaign --spec big.spec --shard 1/2 --lambda-cache lam.cache
//     --csv s1.csv
//   dlb_campaign --spec big.spec --merge s0.csv,s1.csv
//     --csv full.csv --json full.json
//
// Reports are byte-identical for any --threads value and with or without
// --shard + --merge; add --timing to include (nondeterministic) wall-clock
// fields.
#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <utility>

#include <unistd.h> // gethostname

#include "dlb.hpp"

using namespace dlb;

namespace {

// The modes an invocation runs in. --queue, --merge and --measure-windows
// each select one (at most one of them per invocation); without them it
// runs the campaign, or this invocation's --shard of it.
constexpr unsigned kRun = 1;
constexpr unsigned kQueue = 2;
constexpr unsigned kMerge = 4;
constexpr unsigned kWindows = 8;
constexpr unsigned kAll = kRun | kQueue | kMerge | kWindows;
// Not a mode: the flag is a campaign key, read like a spec file line.
constexpr unsigned kSpecKey = 16;

struct mode_row {
    unsigned mode;
    const char* name;
    const char* flag; // the flag that selects it; nullptr: the default
};
constexpr mode_row kModes[] = {{kRun, "run", nullptr},
                               {kQueue, "queue", "queue"},
                               {kMerge, "merge", "merge"},
                               {kWindows, "windows", "measure-windows"}};

// One row per flag: its value (nullptr for a bare flag; `optional` values
// are spelled --flag=VALUE), the modes it applies in and its help line.
// --help prints this table and the one check in check_flags() reads it, so
// a flag cannot be accepted without being documented.
struct flag_row {
    const char* name; // "<field>": every scenario field
    const char* value;
    bool optional;
    unsigned modes;
    const char* help;
};

constexpr flag_row kFlags[] = {
    {"spec", "FILE", false, kAll,
     "load a key=value campaign file (the only way to pass one; positional "
     "arguments are rejected); the flags below override its keys one by one"},
    {"name", "NAME", false, kAll | kSpecKey, "campaign name for the reports"},
    {"<field>", "VALUE", false, kAll | kSpecKey, "set a base scenario field"},
    {"sweep.<field>", "A,B,C", false, kAll | kSpecKey,
     "sweep a field over a value list"},
    {"seeds", "N", false, kAll | kSpecKey, "sweep seed over base..base+N-1"},
    {"shard", "I/N", false, kRun,
     "run only this invocation's share of the scenarios, split by greedy LPT "
     "over the per-scenario cost model (rows keep global indices; --merge "
     "reassembles the full report)"},
    {"lambda-cache", "FILE", false, kRun | kQueue | kWindows,
     "persistent lambda sidecar shared across invocations and shard "
     "processes: loaded before the run or the windows, rewritten atomically "
     "after it; a missing or corrupt file degrades to recompute"},
    {"queue", "DIR", false, kQueue,
     "become one lease-queue worker on the shared directory DIR: workers on "
     "any machines lease scenarios heaviest-first, take over dead holders' "
     "leases (resuming from their snapshots under a shared --checkpoint-dir) "
     "and each writes the full merged report"},
    {"lease-expiry", "SECS", false, kQueue,
     "treat a cross-host worker whose heartbeat is older than SECS as dead "
     "(same-host death is detected by pid). Default 30"},
    {"merge", "A.csv,B.csv", false, kMerge,
     "merge shard CSV reports of the same campaign; runs nothing and writes "
     "--csv/--json byte-identical to an unsharded run"},
    {"checkpoint-every", "N", false, kRun | kQueue,
     "snapshot each scenario every N rounds to <dir>/<index>_<label>.ckpt "
     "(pure output: reports stay byte-identical)"},
    {"checkpoint-dir", "DIR", false, kRun | kQueue,
     "where --checkpoint-every writes (created if missing)"},
    {"resume", "FILE", false, kRun | kWindows,
     "resume one scenario from a snapshot of this campaign (spec hash and "
     "stride must match); the reports come out byte-identical to an "
     "uninterrupted run"},
    {"measure-windows", "K", false, kWindows,
     "run K re-seeded windows of --window-rounds W rounds from the --resume "
     "snapshot (window 0 keeps the seed) and report the sampled "
     "discrepancy's mean/stddev/95% CI; --csv/--json write that report"},
    {"window-rounds", "W", false, kWindows,
     "rounds per measured window (>= 1)"},
    {"threads", "N", false, kRun, "scenario fan-out workers (0: hardware)"},
    {"engine-threads", "N", false, kRun | kQueue,
     "in-engine round-kernel workers per scenario (0: hardware, 1: serial); "
     "any value != 1 runs scenarios one at a time. Use it for a few large "
     "scenarios, --threads for many small ones"},
    {"record-every", "N", false, kRun | kQueue | kMerge,
     "series sampling stride (0: rounds/256)"},
    {"json", "PATH", false, kAll, "write the aggregated JSON report"},
    {"csv", "PATH", false, kAll, "write the per-scenario CSV report"},
    {"series-dir", "DIR", false, kRun | kQueue,
     "write each scenario's per-round series CSV"},
    {"timing", nullptr, false, kRun | kQueue,
     "include wall-clock fields in the reports (breaks byte-determinism) and "
     "print the cache counters"},
    {"trace", "FILE", false, kAll,
     "write a Chrome/Perfetto trace-event JSON of the run's phases, one "
     "track per worker thread (open it in ui.perfetto.dev)"},
    {"metrics", "FILE", false, kAll,
     "write aggregated counters/histograms as JSONL (and a metrics object "
     "in the --timing JSON report)"},
    {"progress", "SECS", true, kRun | kQueue,
     "heartbeat lines on stderr every SECS (default 10): scenarios done, "
     "elapsed, a cost-model ETA and its residual spread"},
    {"manifest", "FILE", false, kRun | kQueue | kMerge,
     "write a provenance manifest (spec hash, args, shard, build, host); "
     "with --merge, the merged manifest of the --manifests it validated"},
    {"manifests", "A,B", false, kMerge,
     "shard manifests --merge checks agree (spec hash, stride, shard count) "
     "before it trusts the rows"},
    {"quiet", nullptr, false, kAll,
     "suppress per-scenario progress on stderr"},
    {"dry-run", nullptr, false, kAll,
     "check every flag and value, list the expansion, run nothing"},
    {"list", nullptr, false, kAll,
     "print registered topologies, load patterns and workloads, then exit"},
    {"help", nullptr, false, kAll, "print this help, then exit"},
};

// The row of `--name`: a scenario field maps to "<field>", its sweep form
// to "sweep.<field>". nullptr for an unknown flag.
const flag_row* find_flag(const std::string& name)
{
    const auto& fields = campaign::field_names();
    const auto is_field = [&](const std::string& key) {
        return std::find(fields.begin(), fields.end(), key) != fields.end();
    };
    std::string key = name;
    if (is_field(name)) key = "<field>";
    else if (name.rfind("sweep.", 0) == 0 && is_field(name.substr(6)))
        key = "sweep.<field>";
    for (const flag_row& row : kFlags)
        if (key == row.name) return &row;
    return nullptr;
}

// The modes in `modes`, as their names or as the flags selecting them,
// joined by `separator`.
std::string join_modes(unsigned modes, bool as_flags, const char* separator)
{
    std::string joined;
    for (const mode_row& row : kModes) {
        if ((modes & row.mode) == 0 || (as_flags && row.flag == nullptr))
            continue;
        if (!joined.empty()) joined += separator;
        joined += as_flags ? "--" + std::string(row.flag) : row.name;
    }
    return joined;
}

void print_usage(std::ostream& out)
{
    constexpr std::size_t kHelpColumn = 25;
    constexpr std::size_t kWidth = 76;
    out << "usage: dlb_campaign [options]\n"
           "--queue, --merge and --measure-windows select the queue, merge "
           "and windows\nmodes (at most one); without them the campaign runs "
           "(run mode). A flag\nmarked [modes] applies only in those; "
           "elsewhere it exits 2.\n";
    for (const flag_row& row : kFlags) {
        std::string line = std::string("  --") + row.name;
        if (row.value != nullptr)
            line += row.optional ? std::string("[=") + row.value + "]"
                                 : std::string(" ") + row.value;
        std::string help = row.help;
        if ((row.modes & kAll) != kAll)
            help += " [" + join_modes(row.modes, false, ", ") + "]";
        std::istringstream words(help);
        for (std::string word; words >> word;) {
            if (line.size() < kHelpColumn)
                line.resize(kHelpColumn, ' ');
            else if (line.size() + 1 + word.size() <= kWidth)
                line += ' ';
            else {
                out << line << "\n";
                line.assign(kHelpColumn, ' ');
            }
            line += word;
        }
        out << line << "\n";
    }
    out << "Every value is checked as it is loaded: an unknown name, a value\n"
           "below its field's minimum, a key or axis given twice, or a value\n"
           "repeated within one sweep exits 2 before any scenario runs.\n"
           "fields:";
    for (const auto& field : campaign::field_names()) out << " " << field;
    out << "\naccepted values:\n";
    for (const auto& field : campaign::field_names()) {
        const auto* choices = campaign::field_choices(field);
        if (choices == nullptr) continue;
        out << "  " << field << ":";
        for (const auto& name : *choices) out << " " << name;
        out << "\n";
    }
    out << "see docs/campaign-specs.md for the full reference\n";
}

// The one check of what an invocation accepts, made before anything runs
// (--dry-run included): every flag is known, has its value, and applies
// in the selected mode. Returns the mode.
unsigned check_flags(const cli_args& args)
{
    std::string mode_flag;
    unsigned mode = kRun;
    for (const auto& name : args.option_names()) {
        const flag_row* row = find_flag(name);
        if (row == nullptr)
            throw std::invalid_argument("unknown option --" + name +
                                        " (see --help)");
        if (row->value != nullptr && !row->optional &&
            args.get_string(name, "").empty())
            throw std::invalid_argument("--" + name + " needs a value (--" +
                                        name + " " + row->value + ")");
        for (const mode_row& selects : kModes) {
            if (selects.flag == nullptr || name != selects.flag) continue;
            if (!mode_flag.empty())
                throw std::invalid_argument("--" + mode_flag + " and --" +
                                            name + " are exclusive");
            mode_flag = name;
            mode = selects.mode;
        }
    }
    for (const auto& name : args.option_names()) {
        const unsigned modes = find_flag(name)->modes;
        if ((modes & mode) != 0) continue;
        if (!mode_flag.empty())
            throw std::invalid_argument("--" + mode_flag + " and --" + name +
                                        " are exclusive");
        throw std::invalid_argument("--" + name + " only applies to " +
                                    join_modes(modes, true, " or "));
    }
    return mode;
}

// Registry dump for scripts (and for keeping docs honest: the names printed
// here come from the same tables the executor resolves against).
void print_registry(std::ostream& out)
{
    out << "topologies:\n";
    for (const auto& name : campaign::topology_names())
        out << "  " << name << (campaign::topology_uses_seed(name)
                                    ? "  (seed-dependent)\n"
                                    : "\n");
    out << "load patterns:\n";
    for (const auto& name : campaign::load_pattern_names())
        out << "  " << name << "\n";
    out << "workloads:\n";
    for (const auto& name : campaign::workload_names()) out << "  " << name << "\n";
}

using emitter = std::function<void(std::ostream&)>;

// Writes the --json and --csv reports asked for, announcing each path.
// Queue-mode reports go through temp + rename: several workers often share
// the report paths, and a plain truncate-then-write would let a reader (or
// a crash) observe a partial file. Otherwise a plain ofstream, closed and
// checked, so a full disk or an unwritable device fails the run (exit 2)
// naming the path instead of announcing the report.
void write_reports(const cli_args& args, bool atomic, const emitter& json,
                   const emitter& csv)
{
    for (const auto& [flag, emit] : {std::pair{"json", &json},
                                     std::pair{"csv", &csv}}) {
        if (!args.has(flag)) continue;
        const std::string path = args.get_string(flag, "");
        if (atomic) {
            std::ostringstream bytes;
            (*emit)(bytes);
            write_text_atomic(path, bytes.str(), "queue report");
        } else {
            std::ofstream out(path);
            if (!out) throw std::runtime_error("cannot open " + path);
            (*emit)(out);
            out.close();
            if (!out) throw std::runtime_error("cannot write " + path);
        }
        std::cout << flag << " -> " << path << "\n";
    }
}

// The provenance record one invocation (shard or whole campaign) writes via
// --manifest. The leading fields are the ones every shard of a campaign
// must agree on — the merged manifest checks exactly those — followed by
// the per-shard fields (assignment, argv, build, host) that may differ.
obs::run_manifest build_manifest(const campaign::campaign_spec& spec,
                                 std::int64_t record_every,
                                 std::int64_t shard_index,
                                 std::int64_t shard_count, int argc,
                                 char** argv)
{
    obs::run_manifest manifest;
    manifest.set("campaign", spec.name);
    manifest.set("spec_hash", campaign::hex64(campaign::spec_hash(spec)));
    manifest.set("scenario_count", std::to_string(spec.expected_count()));
    manifest.set("record_every", std::to_string(record_every));
    manifest.set("shard_count", std::to_string(shard_count));

    manifest.set("shard_index", std::to_string(shard_index));
    std::string command = "dlb_campaign";
    for (int i = 1; i < argc; ++i) command += std::string(" ") + argv[i];
    manifest.set("args", command);
#ifdef __VERSION__
    manifest.set("build", __VERSION__);
#else
    manifest.set("build", "unknown");
#endif
    char host[256] = {};
    if (::gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0')
        manifest.set("host", host);
    return manifest;
}

// The fields that define a merge-compatible shard set. shard_index is
// deliberately absent (it must differ — coverage is checked separately).
const std::vector<std::string> kManifestMustMatch = {
    "campaign", "spec_hash", "scenario_count", "record_every", "shard_count"};

// Proves the shard manifests belong to one campaign before --merge trusts
// the shard rows: every must-match field agrees, the set covers shard
// indices 0..N-1 exactly once, and the spec the merge itself was given
// hashes to the same campaign the shards ran.
obs::run_manifest merge_and_validate_manifests(
    const campaign::campaign_spec& spec, std::int64_t record_every,
    const std::vector<std::string>& paths)
{
    std::vector<obs::run_manifest> shards;
    shards.reserve(paths.size());
    for (const auto& path : paths)
        shards.push_back(obs::parse_manifest_file(path));

    obs::run_manifest merged =
        obs::merge_manifests(shards, kManifestMustMatch);

    const std::string local_hash = campaign::hex64(campaign::spec_hash(spec));
    if (merged.get("spec_hash") != local_hash)
        throw std::runtime_error(
            "manifest: shard manifests were produced by campaign spec_hash " +
            merged.get("spec_hash") + " but this merge invocation's spec "
            "hashes to " + local_hash +
            "; merge with the same campaign definition the shards ran");
    const std::string local_stride = std::to_string(record_every);
    if (merged.get("record_every") != local_stride)
        throw std::runtime_error(
            "manifest: shards ran with record_every = " +
            merged.get("record_every") + " but this merge resolves to " +
            local_stride + "; pass the same --record-every");

    const std::int64_t count = std::stoll(merged.get("shard_count"));
    if (static_cast<std::int64_t>(shards.size()) != count)
        throw std::runtime_error(
            "manifest: " + std::to_string(shards.size()) +
            " shard manifests given but the shards ran with shard_count = " +
            std::to_string(count));
    std::vector<bool> seen(static_cast<std::size_t>(count), false);
    for (std::size_t s = 0; s < shards.size(); ++s) {
        const std::string field = shards[s].get("shard_index");
        std::int64_t index = -1;
        try {
            index = std::stoll(field);
        } catch (const std::exception&) {
        }
        if (index < 0 || index >= count)
            throw std::runtime_error("manifest: " + paths[s] +
                                     ": shard_index '" + field +
                                     "' outside 0.." + std::to_string(count - 1));
        if (seen[static_cast<std::size_t>(index)])
            throw std::runtime_error("manifest: shard_index " + field +
                                     " appears twice (duplicate manifest for " +
                                     paths[s] + ")");
        seen[static_cast<std::size_t>(index)] = true;
    }
    return merged;
}

} // namespace

int main(int argc, char** argv)
{
    try {
        const cli_args args(argc, argv);
        if (args.has("help")) {
            print_usage(std::cout);
            return 0;
        }
        if (args.has("list")) {
            print_registry(std::cout);
            return 0;
        }

        // A spec file passed without --spec would otherwise be dropped and
        // the default campaign run in its place.
        if (!args.positional().empty())
            throw std::invalid_argument(
                "unexpected argument '" + args.positional().front() +
                "' (pass a spec file with --spec FILE)");
        const unsigned mode = check_flags(args);
        // The values no library call checks.
        if (args.get_int("threads", 0) < 0 ||
            args.get_int("engine-threads", 1) < 0)
            throw std::invalid_argument("thread counts must be >= 0");
        if (args.get_double("progress", 10.0) <= 0.0)
            throw std::invalid_argument(
                "--progress period must be positive seconds");
        if (mode == kWindows && !args.has("resume"))
            throw std::invalid_argument(
                "--measure-windows needs --resume FILE (the snapshot to "
                "sample from)");
        if (mode == kWindows && !args.has("window-rounds"))
            throw std::invalid_argument(
                "--measure-windows needs --window-rounds W");

        // Campaign keys follow the spec file grammar and override the
        // --spec file key by key.
        std::vector<campaign::campaign_key> keys;
        for (const auto& name : args.option_names())
            if ((find_flag(name)->modes & kSpecKey) != 0)
                keys.push_back({name, args.get_string(name, ""), "--" + name});
        const campaign::campaign_spec spec = campaign::read_campaign_keys(
            args.has("spec")
                ? campaign::parse_campaign_file(args.get_string("spec", ""))
                : campaign::campaign_spec{},
            keys);

        if (args.get_bool("dry-run", false)) {
            const auto scenarios = campaign::expand(spec);
            std::cout << "campaign '" << spec.name << "': " << scenarios.size()
                      << " scenarios\n";
            for (std::size_t i = 0; i < scenarios.size(); ++i)
                std::cout << "  [" << i << "] "
                          << campaign::scenario_label(scenarios[i]) << "\n";
            return 0;
        }

        const bool timing = args.get_bool("timing", false);

        // Observability session: binds --trace / --metrics output for the
        // whole run (campaign, report writes, merge). Out-of-band by
        // construction — with or without it the CSV/JSON reports are
        // byte-identical, which the golden determinism suite asserts.
        std::optional<obs::session> session;
        if (args.has("trace") || args.has("metrics")) {
            obs::session_options obs_options;
            obs_options.trace_path = args.get_string("trace", "");
            obs_options.metrics_path = args.get_string("metrics", "");
            obs_options.collect_metrics = args.has("metrics");
            session.emplace(obs_options);
        }

        // Windowed sampling runs measured windows from one snapshot and
        // writes the windows report, never the campaign one.
        if (mode == kWindows) {
            campaign::measure_windows_options windows_options;
            windows_options.windows = args.get_int("measure-windows", 8);
            windows_options.window_rounds = args.get_int("window-rounds", 0);
            windows_options.lambda_cache_path =
                args.get_string("lambda-cache", "");
            const engine_checkpoint snapshot =
                read_checkpoint_file(args.get_string("resume", ""));
            const campaign::measure_windows_result windows =
                campaign::measure_windows(spec, snapshot, windows_options);
            if (!windows.lambda_sidecar_error.empty())
                std::cerr << "dlb_campaign: warning: lambda sidecar not saved: "
                          << windows.lambda_sidecar_error << "\n";

            std::cout << "windows '" << windows.label << "': "
                      << windows.samples.size() << " x "
                      << windows.window_rounds << " rounds from round "
                      << windows.start_round << "\n"
                      << "  discrepancy mean=" << windows.mean
                      << " stddev=" << windows.stddev << " ci95=+/-"
                      << windows.ci95_half_width << "\n";
            write_reports(
                args, false,
                [&](std::ostream& out) {
                    campaign::write_windows_json(out, windows);
                },
                [&](std::ostream& out) {
                    campaign::write_windows_csv(out, windows);
                });
            return 0;
        }

        campaign::shard_part shard;
        if (args.has("shard"))
            shard = campaign::parse_shard(args.get_string("shard", ""));
        const std::int64_t record_every = args.get_int("record-every", 0);
        campaign::campaign_result result;
        std::optional<obs::run_manifest> merged_manifest;
        if (mode == kMerge) {
            // Shard manifests are checked before any row is trusted: a
            // mixed set (different spec, stride or shard count) fails here
            // naming the differing field.
            if (args.has("manifests"))
                merged_manifest = merge_and_validate_manifests(
                    spec, campaign::resolved_record_every(spec, record_every),
                    campaign::split_list(args.get_string("manifests", "")));
            result = campaign::merge_shard_csv(
                spec, campaign::split_list(args.get_string("merge", "")),
                record_every);
        } else {
            campaign::campaign_options options;
            options.threads =
                static_cast<unsigned>(args.get_int("threads", 0));
            options.engine_threads =
                static_cast<unsigned>(args.get_int("engine-threads", 1));
            options.record_every = record_every;
            options.series_dir = args.get_string("series-dir", "");
            options.lambda_cache_path = args.get_string("lambda-cache", "");
            options.checkpoint_every = args.get_int("checkpoint-every", 0);
            options.checkpoint_dir = args.get_string("checkpoint-dir", "");
            options.resume_path = args.get_string("resume", "");
            options.queue_dir = args.get_string("queue", "");
            options.lease_expiry_seconds =
                args.get_double("lease-expiry", 30.0);
            options.shard_index = shard.index;
            options.shard_count = shard.count;
            if (!args.get_bool("quiet", false)) options.progress = &std::cerr;
            if (args.has("progress")) {
                // Bare --progress keeps the 10 s default; --progress=SECS
                // (or --progress SECS) overrides it.
                options.heartbeat = &std::cerr;
                options.heartbeat_seconds = args.get_double("progress", 10.0);
            }
            result = campaign::run_campaign(spec, options);
        }

        // A failed sidecar save degrades later runs to recompute; say so
        // even under --quiet (which only suppresses per-scenario progress).
        if (!result.lambda_sidecar_error.empty())
            std::cerr << "dlb_campaign: warning: lambda sidecar not saved: "
                      << result.lambda_sidecar_error << "\n";

        campaign::print_campaign_summary(std::cout, result);
        if (result.queue.queue_mode)
            std::cout << "queue: completed=" << result.queue.completed
                      << " leased=" << result.queue.leased
                      << " re-leased=" << result.queue.re_leased
                      << " resumed=" << result.queue.resumed
                      << " stolen=" << result.queue.stolen << "\n";
        if (timing)
            std::cout << "cache: graph hits=" << result.cache.graph_hits
                      << " misses=" << result.cache.graph_misses
                      << " | lambda hits=" << result.cache.lambda_hits
                      << " misses=" << result.cache.lambda_misses
                      << " sidecar_loaded=" << result.lambda_sidecar_loaded
                      << "\n";

        write_reports(
            args, result.queue.queue_mode,
            [&](std::ostream& out) {
                campaign::write_json(out, result, timing);
            },
            [&](std::ostream& out) {
                campaign::write_csv(out, result, timing);
            });

        // Provenance record, written to its own file — never into the
        // CSV/JSON reports, which must stay byte-identical with or without
        // it. On --merge with --manifests this is the validated merged
        // manifest with every shard's record embedded; otherwise it
        // describes this invocation.
        if (args.has("manifest")) {
            const std::string path = args.get_string("manifest", "");
            obs::run_manifest manifest;
            if (merged_manifest) {
                manifest = *merged_manifest;
            } else {
                manifest = build_manifest(
                    spec, campaign::resolved_record_every(spec, record_every),
                    shard.index, shard.count, argc, argv);
                if (mode != kMerge)
                    manifest.set("scenarios_run",
                                 std::to_string(result.scenarios.size()));
                // Lease-mode provenance: the queue directory identifies
                // the fleet (its meta file pins spec_hash/count/stride for
                // every joining worker — the same invariants shard
                // manifests are checked for at --merge), and the lease
                // counters record what this worker actually did.
                if (mode == kQueue) {
                    manifest.set("mode", "queue");
                    manifest.set("queue_dir", args.get_string("queue", ""));
                    manifest.set("queue_completed",
                                 std::to_string(result.queue.completed));
                    manifest.set("queue_re_leased",
                                 std::to_string(result.queue.re_leased));
                    manifest.set("queue_resumed",
                                 std::to_string(result.queue.resumed));
                    manifest.set("queue_stolen",
                                 std::to_string(result.queue.stolen));
                }
            }
            obs::write_manifest_file(path, manifest);
            std::cout << "manifest -> " << path << "\n";
        }

        for (const auto& r : result.scenarios)
            if (!r.error.empty()) return 1;
        return 0;
    } catch (const std::exception& failure) {
        std::cerr << "dlb_campaign: " << failure.what() << "\n";
        return 2;
    }
}
