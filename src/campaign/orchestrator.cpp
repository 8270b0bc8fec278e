#include "campaign/orchestrator.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <fcntl.h>    // open, for the queue lock fd
#include <signal.h>   // kill(pid, 0) liveness probe
#include <sys/file.h> // flock
#include <unistd.h>   // close, gethostname, getpid

#include "campaign/cost_model.hpp"
#include "campaign/report.hpp"
#include "campaign/run_context.hpp"
#include "core/checkpoint.hpp"
#include "obs/obs.hpp"
#include "util/sync.hpp"
#include "util/tempfile.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace dlb::campaign {

namespace {

constexpr const char* kMetaHeader = "# dlb queue meta v1";
constexpr const char* kLeasesHeader = "# dlb queue leases v1";
constexpr const char* kNoHolder = "-";

/// Exclusive advisory lock on the queue's lock file, held for the object's
/// lifetime. flock conflicts between *open file descriptions*, and every
/// acquisition opens its own descriptor, so the same primitive serializes
/// worker processes on one machine, workers across NFS-style shared mounts
/// that honor flock, and worker threads inside one process (the in-process
/// orchestrator tests run under TSan on exactly this path).
class queue_lock {
public:
    explicit queue_lock(const std::string& path)
        // dlb-analyzer: allow(atomic-write) flock identity file; the lock is the fd, the content is never read
        : fd_(::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644))
    {
        if (fd_ < 0)
            throw std::runtime_error("queue: cannot open lock file " + path);
        if (::flock(fd_, LOCK_EX) != 0) {
            ::close(fd_);
            throw std::runtime_error("queue: cannot lock " + path);
        }
    }
    ~queue_lock()
    {
        ::flock(fd_, LOCK_UN);
        ::close(fd_);
    }
    queue_lock(const queue_lock&) = delete;
    queue_lock& operator=(const queue_lock&) = delete;

private:
    int fd_;
};

/// This worker's queue identity: `host:pid:serial`. The pid lets same-host
/// peers prove death with a signal-0 probe; the process-wide serial keeps
/// multiple workers inside one process (in-process tests, embedded use)
/// distinct.
std::string make_holder_id()
{
    char host[256] = {};
    if (::gethostname(host, sizeof(host) - 1) != 0) host[0] = '\0';
    static std::atomic<std::uint64_t> worker_serial{0};
    return std::string(host[0] != '\0' ? host : "unknown") + ":" +
           std::to_string(static_cast<long>(::getpid())) + ":" +
           std::to_string(worker_serial.fetch_add(1,
                                                  std::memory_order_relaxed));
}

std::string host_of(const std::string& holder)
{
    return holder.substr(0, holder.find(':'));
}

/// The pid embedded in a holder id, or 0 when unparseable.
long pid_of(const std::string& holder)
{
    const auto first = holder.find(':');
    if (first == std::string::npos) return 0;
    const auto second = holder.find(':', first + 1);
    const auto end = second == std::string::npos ? holder.size() : second;
    long pid = 0;
    const char* begin = holder.data() + first + 1;
    const char* last = holder.data() + end;
    const auto [parsed, ec] = std::from_chars(begin, last, pid);
    if (ec != std::errc{} || parsed != last) return 0;
    return pid;
}

/// Updates (or creates) a heartbeat file; its mtime is the beat.
void touch_heartbeat(const std::string& path)
{
    // dlb-analyzer: allow(atomic-write) heartbeat beacon; only the mtime is read, a torn payload is harmless
    std::ofstream out(path, std::ios::trunc);
    out << "beat\n";
}

/// Background heartbeat: touches `path` every `period_seconds` until
/// destroyed, so peers watching the file's mtime can tell a slow worker
/// from a dead one.
class heartbeat_thread {
public:
    heartbeat_thread(std::string path, double period_seconds)
        : path_(std::move(path)), period_seconds_(period_seconds)
    {
        touch_heartbeat(path_);
        ticker_ = std::thread([this] { loop(); });
    }
    ~heartbeat_thread()
    {
        {
            const scoped_lock lock(mutex_);
            stopping_ = true;
        }
        stop_cv_.notify_all();
        ticker_.join();
    }
    heartbeat_thread(const heartbeat_thread&) = delete;
    heartbeat_thread& operator=(const heartbeat_thread&) = delete;

private:
    void loop()
    {
        // Predicate loop in the locked scope (see obs/progress.cpp) so the
        // thread-safety analysis sees every stopping_ read under mutex_.
        unique_lock lock(mutex_);
        while (!stopping_) {
            const auto period =
                std::chrono::duration<double>(period_seconds_);
            if (stop_cv_.wait_for(lock, period) == std::cv_status::timeout &&
                !stopping_)
                touch_heartbeat(path_);
        }
    }

    std::string path_;
    double period_seconds_;
    mutex mutex_;
    condition_variable stop_cv_;
    bool stopping_ DLB_GUARDED_BY(mutex_) = false;
    std::thread ticker_;
};

/// True when `holder` is provably dead or expired. Same-host holders are
/// probed with kill(pid, 0): ESRCH is proof of death (immediate kill-9
/// recovery), any other answer proves a live pid — which still expires if
/// its heartbeat goes stale, covering pid reuse and wedged processes.
/// Cross-host holders only have the heartbeat: dead when their hb file's
/// mtime trails `own_beat` (this worker's just-touched beat, same
/// filesystem, hence the only shared clock) by more than expiry_seconds,
/// or when the hb file is missing entirely (a holder beats before its
/// first lease, so a leased entry with no hb file lost its worker).
bool holder_is_dead(const std::string& holder, const std::string& own_host,
                    const std::filesystem::path& queue,
                    std::filesystem::file_time_type own_beat,
                    double expiry_seconds)
{
    const long pid = pid_of(holder);
    if (pid > 0 && host_of(holder) == own_host) {
        errno = 0;
        if (::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH)
            return true;
    }
    std::error_code ec;
    const auto beat =
        std::filesystem::last_write_time(queue / ("hb." + holder), ec);
    if (ec) return true;
    const std::chrono::duration<double> age = own_beat - beat;
    return age.count() > expiry_seconds;
}

// ---- queue files ---------------------------------------------------------

/// One scenario's lease record. A scenario is *done* exactly when its row
/// file exists — the leases file only tracks who is (and was) working on
/// it, so there is no crash window between finishing and marking done.
struct lease_entry {
    std::int64_t index = 0;
    std::int64_t leases = 0; // times leased (0: still pending, untouched)
    std::string first_holder = kNoHolder;
    std::string current_holder = kNoHolder;
};

void write_leases(const std::string& path,
                  const std::vector<lease_entry>& entries)
{
    std::ostringstream out;
    out << kLeasesHeader << "\n";
    for (const lease_entry& entry : entries)
        out << entry.index << "\t" << entry.leases << "\t"
            << entry.first_holder << "\t" << entry.current_holder << "\n";
    write_text_atomic(path, out.str(), "queue leases");
}

std::vector<std::string> split_tabs(const std::string& line)
{
    std::vector<std::string> fields;
    std::string::size_type begin = 0;
    while (true) {
        const auto tab = line.find('\t', begin);
        fields.push_back(line.substr(begin, tab - begin));
        if (tab == std::string::npos) break;
        begin = tab + 1;
    }
    return fields;
}

std::int64_t parse_queue_int(const std::string& text, const std::string& path)
{
    std::int64_t value = 0;
    const char* first = text.data();
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || end != last)
        throw std::runtime_error("queue: corrupt integer '" + text + "' in " +
                                 path);
    return value;
}

/// Parses the leases file. Written atomically under the queue lock, so a
/// malformed file is genuine corruption — throw rather than guess.
std::vector<lease_entry> read_leases(const std::string& path)
{
    std::ifstream in(path);
    if (!in) throw std::runtime_error("queue: cannot read " + path);
    std::string line;
    if (!std::getline(in, line) || line != kLeasesHeader)
        throw std::runtime_error("queue: " + path +
                                 " is not a queue leases file");
    std::vector<lease_entry> entries;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        const auto fields = split_tabs(line);
        if (fields.size() != 4 || fields[2].empty() || fields[3].empty())
            throw std::runtime_error("queue: corrupt lease record '" + line +
                                     "' in " + path);
        lease_entry entry;
        entry.index = parse_queue_int(fields[0], path);
        entry.leases = parse_queue_int(fields[1], path);
        entry.first_holder = fields[2];
        entry.current_holder = fields[3];
        entries.push_back(std::move(entry));
    }
    return entries;
}

/// Campaign identity stamped into the queue directory on first contact and
/// validated by every joining worker — two campaigns can never interleave
/// through one queue, and every worker provably agrees on the expansion
/// and the sampling stride (the merge re-validates both per row anyway;
/// failing here is just earlier and clearer).
void ensure_meta(const std::string& path, std::uint64_t hash,
                 std::int64_t scenario_count, std::int64_t record_every)
{
    std::ifstream in(path);
    if (!in) {
        std::ostringstream out;
        out << kMetaHeader << "\n"
            << "spec_hash\t" << hex64(hash) << "\n"
            << "scenario_count\t" << scenario_count << "\n"
            << "record_every\t" << record_every << "\n";
        write_text_atomic(path, out.str(), "queue meta");
        return;
    }
    std::string line;
    if (!std::getline(in, line) || line != kMetaHeader)
        throw std::runtime_error("--queue: " + path +
                                 " is not a queue meta file");
    std::string got_hash;
    std::int64_t got_count = -1;
    std::int64_t got_stride = -1;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        const auto fields = split_tabs(line);
        if (fields.size() != 2) continue;
        if (fields[0] == "spec_hash") got_hash = fields[1];
        else if (fields[0] == "scenario_count")
            got_count = parse_queue_int(fields[1], path);
        else if (fields[0] == "record_every")
            got_stride = parse_queue_int(fields[1], path);
    }
    if (got_hash != hex64(hash))
        throw std::runtime_error(
            "--queue: spec_hash mismatch: the queue was created for "
            "campaign spec_hash " +
            got_hash + " but this invocation's spec hashes to " +
            hex64(hash) + "; point --queue at a fresh directory or "
            "rerun with the original campaign definition");
    if (got_count != scenario_count)
        throw std::runtime_error(
            "--queue: scenario_count mismatch: the queue holds " +
            std::to_string(got_count) + " scenarios but this spec expands "
            "to " + std::to_string(scenario_count));
    if (got_stride != record_every)
        throw std::runtime_error(
            "--queue: record_every mismatch: the queue was created with " +
            std::to_string(got_stride) + " but this invocation resolves " +
            std::to_string(record_every) + " (rerun with --record-every " +
            std::to_string(got_stride) + ")");
}

std::string row_path(const std::filesystem::path& queue, std::int64_t index)
{
    return (queue / "rows" / (std::to_string(index) + ".csv")).string();
}

/// One completed scenario, durably: a one-row write_csv report (the same
/// bytes a one-scenario shard would emit), written atomically. Scenarios
/// are pure functions of their spec, so two workers racing a re-leased
/// scenario write byte-identical files and the rename race is harmless.
void write_row_file(const std::string& path, const campaign_spec& spec,
                    const scenario_result& row)
{
    campaign_result one;
    one.spec = spec;
    one.scenarios.push_back(row);
    std::ostringstream bytes;
    write_csv(bytes, one, /*include_timing=*/false);
    write_text_atomic(path, bytes.str(), "queue row");
}

/// The newest snapshot of scenario `index` in `dir` if it passes the
/// campaign's snapshot gate (check_snapshot against `owner`), or nullopt
/// to run from scratch: a damaged or mismatched snapshot means recompute,
/// never an error row.
std::optional<engine_checkpoint> try_load_checkpoint(
    const std::string& dir, std::int64_t index, const std::string& label,
    const snapshot_owner& owner)
{
    if (dir.empty()) return std::nullopt;
    const std::string path =
        dir + "/" + std::to_string(index) + "_" + label + ".ckpt";
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) || ec) return std::nullopt;
    try {
        engine_checkpoint snapshot = read_checkpoint_file(path);
        check_snapshot(snapshot, owner, "queue");
        return snapshot;
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

/// What one locked look at the queue decided.
struct queue_pick {
    enum class kind { lease, wait, all_done };
    kind decision = kind::wait;
    std::int64_t index = -1;
    bool re_lease = false;       // taken over from a dead/expired holder
    std::string prior_first;     // first_holder before this lease
    std::int64_t done = 0;       // row files present across all workers
    std::int64_t leased_out = 0; // incomplete entries currently held
};

/// Under the queue lock: lease the heaviest pending scenario; failing
/// that, steal the tail-most lease whose holder is dead; failing that,
/// report wait (live peers hold the rest) or all_done.
queue_pick pick_next(const std::filesystem::path& queue,
                     const std::string& leases_path,
                     const std::string& holder, const std::string& own_host,
                     double expiry_seconds)
{
    // Fresh beat first: the expiry comparison below measures peers against
    // the moment this worker provably acted.
    touch_heartbeat((queue / ("hb." + holder)).string());
    std::error_code beat_ec;
    const auto own_beat =
        std::filesystem::last_write_time(queue / ("hb." + holder), beat_ec);

    const queue_lock lock((queue / "lock").string());
    std::vector<lease_entry> entries = read_leases(leases_path);

    queue_pick pick;
    std::vector<char> is_done(entries.size(), 0);
    for (std::size_t i = 0; i < entries.size(); ++i) {
        std::error_code ec;
        is_done[i] = std::filesystem::exists(
                         row_path(queue, entries[i].index), ec) &&
                     !ec;
        if (is_done[i]) ++pick.done;
        else if (entries[i].current_holder != kNoHolder) ++pick.leased_out;
    }
    if (pick.done == static_cast<std::int64_t>(entries.size())) {
        pick.decision = queue_pick::kind::all_done;
        return pick;
    }

    auto take = [&](std::size_t i, bool re_lease) {
        lease_entry& entry = entries[i];
        pick.decision = queue_pick::kind::lease;
        pick.index = entry.index;
        pick.re_lease = re_lease;
        pick.prior_first = entry.first_holder;
        ++entry.leases;
        if (entry.first_holder == kNoHolder) entry.first_holder = holder;
        entry.current_holder = holder;
        ++pick.leased_out;
        write_leases(leases_path, entries);
    };

    // Head first: the heaviest never-leased scenario.
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (is_done[i] || entries[i].current_holder != kNoHolder) continue;
        take(i, /*re_lease=*/false);
        return pick;
    }
    // Nothing pending: steal from the tail, but only from the provably
    // dead. A failed beat_ec means we cannot read our own clock — treat
    // everyone as alive rather than double-run on a guess.
    if (!beat_ec) {
        for (std::size_t i = entries.size(); i-- > 0;) {
            if (is_done[i]) continue;
            const std::string& current = entries[i].current_holder;
            if (current == kNoHolder || current == holder) continue;
            if (!holder_is_dead(current, own_host, queue, own_beat,
                                expiry_seconds))
                continue;
            take(i, /*re_lease=*/true);
            return pick;
        }
    }
    pick.decision = queue_pick::kind::wait;
    return pick;
}

} // namespace

campaign_result run_queue_campaign(const campaign_spec& spec,
                                   const campaign_options& options,
                                   const orchestrator_hooks& hooks)
{
    check_campaign_options(options, /*for_queue=*/true);

    const std::vector<scenario_spec> scenarios = expand(spec);
    const std::int64_t record_every =
        resolved_record_every(spec, options.record_every);
    const std::uint64_t campaign_hash = spec_hash(spec);
    const auto total = static_cast<std::int64_t>(scenarios.size());

    campaign_result result;
    result.spec = spec;
    result.queue.queue_mode = true;
    if (scenarios.empty()) return result;

    // A previously killed worker leaves `*.tmp.<pid>.<n>` orphans beside
    // the leases file and the row files (run_context sweeps the checkpoint
    // directory); none can shadow a real file (reads go to the real names
    // only), but sweep the provably dead ones so crash loops don't
    // accumulate them.
    const std::filesystem::path queue(options.queue_dir);
    std::filesystem::create_directories(queue / "rows");
    sweep_stale_temp_files(queue.string());
    sweep_stale_temp_files((queue / "rows").string());

    const std::string holder = make_holder_id();
    const std::string own_host = host_of(holder);
    const std::string leases_path = (queue / "leases").string();
    const std::string hb_path = (queue / ("hb." + holder)).string();

    {
        const queue_lock lock((queue / "lock").string());
        ensure_meta((queue / "meta").string(), campaign_hash, total,
                    record_every);
        std::error_code ec;
        if (!std::filesystem::exists(leases_path, ec) || ec) {
            std::vector<lease_entry> entries;
            // LPT order: fresh leases come from the head, the heaviest
            // pending scenario (the "cheapest fit" for whichever worker is
            // free now), and steals scan from the tail, where a dead
            // holder's lost work is cheapest to redo.
            for (const std::int64_t index : lpt_order(scenarios)) {
                lease_entry entry;
                entry.index = index;
                entries.push_back(std::move(entry));
            }
            write_leases(leases_path, entries);
        } else if (read_leases(leases_path).size() !=
                   scenarios.size()) {
            throw std::runtime_error(
                "--queue: " + leases_path + " does not match this "
                "campaign's expansion (corrupt queue directory?)");
        }
    }

    const obs::trace_span run_span("campaign", "queue.run");
    const stopwatch watch;

    // Peers distinguish slow from dead by this file's mtime.
    std::optional<heartbeat_thread> beats;
    beats.emplace(hb_path, options.lease_heartbeat_seconds);

    // Shared λ resolution with a live sidecar tier: loaded on every lease
    // (merge-on-lease-renewal — peers' computations arrive mid-run, and
    // loads never override locally computed entries) and saved, merged,
    // after every completion. Default location is inside the queue so the
    // whole fleet shares one file; --lambda-cache overrides.
    const std::string sidecar_path = !options.lambda_cache_path.empty()
                                         ? options.lambda_cache_path
                                         : (queue / "lambda.sidecar").string();
    // Every scenario counts toward this worker's heartbeat ETA. A worker
    // runs its leases one at a time (the fan-out is across worker
    // processes), so the context's engine pool is its only in-process
    // parallelism.
    std::vector<std::int64_t> every_index(scenarios.size());
    std::iota(every_index.begin(), every_index.end(), std::int64_t{0});
    run_context context(scenarios, every_index, options, campaign_hash,
                        record_every, sidecar_path, result);
    engine_scratch scratch;

    while (true) {
        const queue_pick pick =
            pick_next(queue, leases_path, holder, own_host,
                      options.lease_expiry_seconds);
        if (context.meter)
            context.meter->set_queue_view(pick.done, pick.leased_out,
                                          result.queue.stolen,
                                          result.queue.re_leased);
        if (pick.decision == queue_pick::kind::all_done) break;
        if (pick.decision == queue_pick::kind::wait) {
            // Live peers hold everything that is left; idle one heartbeat
            // and look again (a peer finishing or dying changes the answer).
            std::this_thread::sleep_for(
                std::chrono::duration<double>(
                    options.lease_heartbeat_seconds));
            continue;
        }

        const std::int64_t index = pick.index;
        ++result.queue.leased;
        if (pick.re_lease) ++result.queue.re_leased;

        context.cache.load_lambda_sidecar(sidecar_path);

        std::function<void(std::int64_t)> after_checkpoint;
        if (hooks.after_checkpoint)
            after_checkpoint = [&hooks, index](std::int64_t round) {
                hooks.after_checkpoint(index, round);
            };

        // A prior holder's newest valid snapshot turns a re-run into a
        // tail-run; the resumed series is byte-identical to the
        // uninterrupted one, so the row file cannot tell the difference.
        const std::optional<engine_checkpoint> snapshot = try_load_checkpoint(
            options.checkpoint_dir, index,
            scenario_label(scenarios[static_cast<std::size_t>(index)]),
            {campaign_hash, index, index + 1, record_every});
        if (snapshot) ++result.queue.resumed;

        scenario_result row = context.run(
            index, scratch, snapshot ? &*snapshot : nullptr, after_checkpoint);
        if (!row.error.empty() && snapshot) {
            // A snapshot that passed the gate but failed deeper validation
            // (or a half-written file that parsed) must cost a recompute,
            // never an error row the unsharded run would not have.
            row = context.run(index, scratch, nullptr, after_checkpoint);
        }

        write_row_file(row_path(queue, index), spec, row);
        ++result.queue.completed;
        if (pick.re_lease && pick.prior_first != kNoHolder &&
            pick.prior_first != holder)
            ++result.queue.stolen;

        context.save_sidecar(result);
        if (context.meter)
            context.meter->scenario_done(row.predicted_cost, row.wall_seconds,
                                         !row.error.empty());
        if (options.progress != nullptr)
            *options.progress << "[queue " << holder << "] " << row.label
                              << (pick.re_lease ? "  (re-leased)" : "")
                              << (snapshot ? "  (resumed)" : "")
                              << (row.error.empty()
                                      ? ""
                                      : "  ERROR: " + row.error)
                              << "\n";
    }

    context.meter.reset(); // final heartbeat summary before teardown
    beats.reset();
    std::error_code hb_ec;
    std::filesystem::remove(hb_path, hb_ec); // a clean exit leaves no ghost

    // Every worker assembles the same full report from the row files — the
    // validated shard-merge machinery, so the result (and any CSV/JSON
    // written from it) is byte-identical to an unsharded run's.
    std::vector<std::string> paths;
    paths.reserve(static_cast<std::size_t>(total));
    for (std::int64_t index = 0; index < total; ++index)
        paths.push_back(row_path(queue, index));
    campaign_result merged =
        merge_shard_csv(spec, paths, options.record_every);
    merged.queue = result.queue;
    merged.cache = context.cache.stats();
    merged.lambda_sidecar_loaded = result.lambda_sidecar_loaded;
    merged.lambda_sidecar_error = result.lambda_sidecar_error;
    merged.wall_seconds = watch.seconds();
    return merged;
}

} // namespace dlb::campaign
