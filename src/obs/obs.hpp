// Campaign observability: phase tracing and a metrics registry.
//
// The layer is off by default and provably out-of-band: nothing here reads
// or writes engine state, RNG streams, or report buffers, so CSV/JSON
// reports are byte-identical with observability on or off (the golden
// determinism suite asserts this). When no obs::session is active every
// instrumentation point reduces to one relaxed atomic load — cheap enough
// to leave in the per-round hot path.
//
// Three pieces:
//
//  * trace spans — RAII `trace_span` emits Chrome/Perfetto trace-event
//    JSON ("ph":"X" complete events) to the session's --trace file, one
//    track per thread (thread_pool workers register names). Spans nest by
//    construction order, which the trace viewers render as flame graphs.
//    A span may carry one numeric "args" object (set_args), which the
//    viewers show beside the event.
//
//  * metrics registry — process-wide named counters (striped relaxed
//    atomics: per-worker lock-free increments, summed at read) and
//    fixed-bucket power-of-two histograms. Aggregation is deterministic:
//    values are summed over stripes/buckets (integer addition, order
//    independent) and dumped sorted by metric name, so two runs that do
//    the same work produce identical metric values for any thread count.
//
//  * the session — binds tracing/metrics to output files for the duration
//    of one campaign. Construction resets the registry and enables the
//    instrumentation points; destruction finalizes the trace JSON and
//    writes the metrics JSONL. One session at a time (nesting throws).
//
// Layering: obs depends only on util/ (the shared monotonic clock in
// util/timer.hpp); every other layer may depend on obs.
#ifndef DLB_OBS_OBS_HPP
#define DLB_OBS_OBS_HPP

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/timer.hpp"

namespace dlb::obs {

// -- enablement ---------------------------------------------------------------

namespace detail {
extern std::atomic<bool> trace_on;
extern std::atomic<bool> metrics_on;
} // namespace detail

/// True while a session with a trace file is active. One relaxed load —
/// the entire disabled-path cost of a trace_span.
inline bool tracing() noexcept
{
    return detail::trace_on.load(std::memory_order_relaxed);
}

/// True while a session with metrics output is active.
inline bool metrics_enabled() noexcept
{
    return detail::metrics_on.load(std::memory_order_relaxed);
}

// -- metrics registry ---------------------------------------------------------

/// Stable small integer id for the calling thread (also the trace track
/// id). Assigned on first use, never reused within a process.
int thread_id() noexcept;

/// Names the calling thread's trace track (e.g. "worker-3"); emitted as
/// trace metadata when the session finalizes. Safe to call with or without
/// an active session.
void set_thread_name(const std::string& name);

/// Monotonically-summed counter. Increments go to one of 64 stripes chosen
/// by thread id — lock-free and contention-free for the pool's worker
/// counts — and value() sums the stripes. Acquire instances through
/// registry_counter(); they live for the process lifetime.
class counter {
public:
    explicit counter(std::string name) : name_(std::move(name)) {}

    void add(std::int64_t n) noexcept
    {
        if (!metrics_enabled()) return;
        stripes_[static_cast<std::size_t>(thread_id()) & (kStripes - 1)]
            .value.fetch_add(n, std::memory_order_relaxed);
    }

    std::int64_t value() const noexcept
    {
        std::int64_t total = 0;
        for (const auto& stripe : stripes_)
            total += stripe.value.load(std::memory_order_relaxed);
        return total;
    }

    const std::string& name() const noexcept { return name_; }
    void reset() noexcept
    {
        for (auto& stripe : stripes_)
            stripe.value.store(0, std::memory_order_relaxed);
    }

private:
    static constexpr std::size_t kStripes = 64;
    struct alignas(64) stripe { // one cache line per stripe: no false sharing
        std::atomic<std::int64_t> value{0};
    };
    std::string name_;
    std::array<stripe, kStripes> stripes_;
};

/// Fixed-bucket histogram over non-negative values: bucket b counts values
/// with bit_width b (0 -> bucket 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3, ...), so
/// merging and aggregation are deterministic by construction — the bucket
/// edges never depend on the data or the thread count.
class histogram {
public:
    static constexpr std::size_t kBuckets = 64;

    explicit histogram(std::string name) : name_(std::move(name)) {}

    void record(std::int64_t value) noexcept
    {
        if (!metrics_enabled()) return;
        const auto v = static_cast<std::uint64_t>(value < 0 ? 0 : value);
        const int bucket = 64 - std::countl_zero(v); // bit_width
        buckets_[static_cast<std::size_t>(bucket)].fetch_add(
            1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(static_cast<std::int64_t>(v),
                       std::memory_order_relaxed);
    }

    std::int64_t count() const noexcept
    {
        return count_.load(std::memory_order_relaxed);
    }
    std::int64_t sum() const noexcept
    {
        return sum_.load(std::memory_order_relaxed);
    }
    std::int64_t bucket(std::size_t b) const noexcept
    {
        return buckets_[b].load(std::memory_order_relaxed);
    }

    const std::string& name() const noexcept { return name_; }
    void reset() noexcept
    {
        for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
        count_.store(0, std::memory_order_relaxed);
        sum_.store(0, std::memory_order_relaxed);
    }

private:
    std::string name_;
    std::array<std::atomic<std::int64_t>, kBuckets + 1> buckets_{};
    std::atomic<std::int64_t> count_{0};
    std::atomic<std::int64_t> sum_{0};
};

/// Process-wide metric lookup by name; the first call for a name creates
/// the metric, later calls return the same instance. Instrumentation sites
/// cache the reference in a function-local static, so the registry mutex
/// is paid once per site, not per increment.
counter& registry_counter(const std::string& name);
histogram& registry_histogram(const std::string& name);

/// One aggregated metric value, for embedding in reports.
struct metric_value {
    std::string name;
    bool is_histogram = false;
    std::int64_t value = 0; // counter value, or histogram count
    std::int64_t sum = 0;   // histogram only
    std::vector<std::pair<int, std::int64_t>> buckets; // nonzero (idx, count)
};

/// Every registered metric, sorted by name (the deterministic aggregation
/// order used by the JSONL dump and the --timing report's metrics object).
std::vector<metric_value> snapshot_metrics();

/// Zeroes every registered metric (session start does this).
void reset_metrics();

// -- tracing ------------------------------------------------------------------

/// One numeric member of a trace event's "args" object.
struct trace_arg {
    const char* key;
    double value;
};

namespace detail {
void emit_complete_event(const char* category, const char* name,
                         std::int64_t start_ns, std::int64_t duration_ns);
/// The same event with an "args" object (none when `args` is empty).
void emit_complete_event(const char* category, const char* name,
                         std::int64_t start_ns, std::int64_t duration_ns,
                         std::span<const trace_arg> args);
} // namespace detail

/// RAII phase span: records the monotonic start time on construction and
/// emits one Chrome trace-event "complete" event on destruction. When no
/// trace session is active both ends are a single relaxed load (the
/// dynamic-name overload also skips its string copy).
class trace_span {
public:
    trace_span(const char* category, const char* name) noexcept
        : start_(tracing() ? now_ns() : -1), category_(category), name_(name)
    {
    }

    trace_span(const char* category, const std::string& name)
        : start_(-1), category_(category), name_(nullptr)
    {
        if (!tracing()) return;
        owned_ = name;
        name_ = owned_.c_str();
        start_ = now_ns();
    }

    ~trace_span()
    {
        if (start_ < 0 || !tracing()) return;
        detail::emit_complete_event(category_, name_, start_,
                                    now_ns() - start_, args_);
    }

    /// Sets the event's "args" object, written when the span ends: one
    /// member per entry, in order, a non-finite value as null. Keys must
    /// outlive the span. A later call replaces the earlier args; without a
    /// trace session this does nothing.
    void set_args(std::initializer_list<trace_arg> args)
    {
        if (start_ < 0) return;
        args_.assign(args.begin(), args.end());
    }

    trace_span(const trace_span&) = delete;
    trace_span& operator=(const trace_span&) = delete;

private:
    std::int64_t start_;
    const char* category_;
    const char* name_;
    std::string owned_; // backs name_ for the dynamic-name overload
    std::vector<trace_arg> args_;
};

/// Span + duration histogram in one RAII object: the per-round engine
/// phases use this so one now_ns() pair feeds both the trace event and the
/// metrics distribution. `hist` may be null (span only).
class phase_scope {
public:
    phase_scope(const char* category, const char* name,
                histogram* hist) noexcept
        : start_(tracing() || metrics_enabled() ? now_ns() : -1),
          category_(category),
          name_(name),
          hist_(hist)
    {
    }

    ~phase_scope()
    {
        if (start_ < 0) return;
        const std::int64_t duration = now_ns() - start_;
        if (hist_ != nullptr && metrics_enabled()) hist_->record(duration);
        if (tracing())
            detail::emit_complete_event(category_, name_, start_, duration);
    }

    phase_scope(const phase_scope&) = delete;
    phase_scope& operator=(const phase_scope&) = delete;

private:
    std::int64_t start_;
    const char* category_;
    const char* name_;
    histogram* hist_;
};

/// Emits an instant event (a vertical marker in the viewers) when tracing.
void trace_instant(const char* category, const char* name);

// -- session ------------------------------------------------------------------

struct session_options {
    std::string trace_path;   // empty: tracing off
    std::string metrics_path; // empty: no metrics JSONL (metrics still
                              // collected when `collect_metrics` is set, for
                              // the --timing report's metrics object)
    bool collect_metrics = false;
};

/// Binds the process-wide observability state to output files for the
/// duration of one campaign run. Constructing resets the metrics registry
/// and enables the instrumentation points; destroying disables them,
/// closes the trace JSON (making it a valid document) and writes the
/// metrics JSONL sorted by name. Throws std::runtime_error when an output
/// file cannot be opened and std::logic_error on nested sessions.
class session {
public:
    explicit session(session_options options);
    ~session();

    session(const session&) = delete;
    session& operator=(const session&) = delete;

private:
    session_options options_;
    bool metrics_active_ = false;
};

} // namespace dlb::obs

#endif // DLB_OBS_OBS_HPP
