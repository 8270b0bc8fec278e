#include "obs/obs.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace dlb::obs {

namespace detail {
std::atomic<bool> trace_on{false};
std::atomic<bool> metrics_on{false};
} // namespace detail

namespace {

// -- thread identity ----------------------------------------------------------

std::atomic<int> next_thread_id{0};

int assign_thread_id() noexcept
{
    return next_thread_id.fetch_add(1, std::memory_order_relaxed);
}

// Thread names live outside the session so a pool constructed before the
// session still gets named tracks: the session writes the metadata events
// at finalize time from whatever this map holds.
mutex thread_name_mutex;
std::map<int, std::string>& thread_names() DLB_REQUIRES(thread_name_mutex)
{
    static std::map<int, std::string> names;
    return names;
}

// -- metric registry storage --------------------------------------------------

// Metrics are created once and never destroyed (instrumentation sites keep
// references in function-local statics), so the registry stores stable
// pointers and the process teardown never races a worker's last add().
mutex registry_mutex;

std::map<std::string, std::unique_ptr<counter>>& counters()
    DLB_REQUIRES(registry_mutex)
{
    static std::map<std::string, std::unique_ptr<counter>> map;
    return map;
}

std::map<std::string, std::unique_ptr<histogram>>& histograms()
    DLB_REQUIRES(registry_mutex)
{
    static std::map<std::string, std::unique_ptr<histogram>> map;
    return map;
}

// -- trace writer -------------------------------------------------------------

// All trace output goes through one mutex-guarded stream. Span emission is
// per engine phase / scenario / campaign stage — a few events per round at
// most — so a straight write under the mutex beats the complexity of
// per-thread buffers.
mutex trace_mutex;

struct trace_writer {
    std::ofstream out;
    std::int64_t base_ns = 0; // session start; event ts are relative to it
    bool first = true;

    void open(const std::string& path) DLB_REQUIRES(trace_mutex)
    {
        // dlb-analyzer: allow(atomic-write) streaming trace sink; a partial trace after a crash is the point
        out.open(path);
        if (!out)
            throw std::runtime_error("obs: cannot open trace file " + path);
        base_ns = now_ns();
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        first = true;
    }

    void event_prefix() DLB_REQUIRES(trace_mutex)
    {
        if (!first) out << ",";
        first = false;
        out << "\n";
    }

    void close_document() DLB_REQUIRES(trace_mutex)
    {
        // Metadata events name the per-thread tracks.
        {
            const scoped_lock names_lock(thread_name_mutex);
            for (const auto& [tid, name] : thread_names()) {
                event_prefix();
                out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
                    << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
                    << json_writer::escape(name) << "\"}}";
            }
        }
        out << "\n]}\n";
        out.close();
    }
};

trace_writer& tracer() DLB_REQUIRES(trace_mutex)
{
    static trace_writer writer;
    return writer;
}

mutex session_mutex;
bool session_active DLB_GUARDED_BY(session_mutex) = false;

} // namespace

int thread_id() noexcept
{
    thread_local const int id = assign_thread_id();
    return id;
}

void set_thread_name(const std::string& name)
{
    const int id = thread_id();
    const scoped_lock lock(thread_name_mutex);
    thread_names()[id] = name;
}

counter& registry_counter(const std::string& name)
{
    const scoped_lock lock(registry_mutex);
    auto& slot = counters()[name];
    if (slot == nullptr) slot = std::make_unique<counter>(name);
    return *slot;
}

histogram& registry_histogram(const std::string& name)
{
    const scoped_lock lock(registry_mutex);
    auto& slot = histograms()[name];
    if (slot == nullptr) slot = std::make_unique<histogram>(name);
    return *slot;
}

std::vector<metric_value> snapshot_metrics()
{
    const scoped_lock lock(registry_mutex);
    std::vector<metric_value> out;
    // std::map iterates in key order, and counter/histogram names never
    // collide in the output because both maps are emitted into one
    // name-sorted list below.
    for (const auto& [name, c] : counters()) {
        metric_value v;
        v.name = name;
        v.value = c->value();
        out.push_back(std::move(v));
    }
    for (const auto& [name, h] : histograms()) {
        metric_value v;
        v.name = name;
        v.is_histogram = true;
        v.value = h->count();
        v.sum = h->sum();
        for (std::size_t b = 0; b <= histogram::kBuckets; ++b) {
            const std::int64_t n = h->bucket(b);
            if (n != 0) v.buckets.emplace_back(static_cast<int>(b), n);
        }
        out.push_back(std::move(v));
    }
    std::sort(out.begin(), out.end(),
              [](const metric_value& a, const metric_value& b) {
                  return a.name < b.name;
              });
    return out;
}

void reset_metrics()
{
    const scoped_lock lock(registry_mutex);
    for (const auto& [name, c] : counters()) c->reset();
    for (const auto& [name, h] : histograms()) h->reset();
}

namespace {

// ts/dur are microseconds in the trace-event format. Emit them as exact
// integer-microsecond text with a three-digit nanosecond fraction — the
// default ostream double formatting would round large timestamps to six
// significant digits and collapse sub-microsecond kernel phases.
void write_us(std::ostream& out, std::int64_t ns)
{
    if (ns < 0) ns = 0;
    out << ns / 1000;
    const int frac = static_cast<int>(ns % 1000);
    out << '.' << static_cast<char>('0' + frac / 100)
        << static_cast<char>('0' + (frac / 10) % 10)
        << static_cast<char>('0' + frac % 10);
}

} // namespace

namespace detail {

void emit_complete_event(const char* category, const char* name,
                         std::int64_t start_ns, std::int64_t duration_ns)
{
    emit_complete_event(category, name, start_ns, duration_ns, {});
}

void emit_complete_event(const char* category, const char* name,
                         std::int64_t start_ns, std::int64_t duration_ns,
                         std::span<const trace_arg> args)
{
    const int tid = thread_id();
    const scoped_lock lock(trace_mutex);
    trace_writer& w = tracer();
    if (!w.out.is_open()) return; // session ended between check and emit
    w.event_prefix();
    w.out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ",\"cat\":\""
          << category << "\",\"name\":\"" << json_writer::escape(name)
          << "\",\"ts\":";
    write_us(w.out, start_ns - w.base_ns);
    w.out << ",\"dur\":";
    write_us(w.out, duration_ns);
    if (!args.empty()) {
        w.out << ",\"args\":{";
        for (std::size_t i = 0; i < args.size(); ++i) {
            if (i > 0) w.out << ",";
            w.out << "\"" << json_writer::escape(args[i].key) << "\":";
            // JSON has no Inf/NaN literals; write them as null.
            if (std::isfinite(args[i].value))
                w.out << format_double(args[i].value);
            else
                w.out << "null";
        }
        w.out << "}";
    }
    w.out << "}";
}

} // namespace detail

void trace_instant(const char* category, const char* name)
{
    if (!tracing()) return;
    const std::int64_t ts = now_ns();
    const int tid = thread_id();
    const scoped_lock lock(trace_mutex);
    trace_writer& w = tracer();
    if (!w.out.is_open()) return;
    w.event_prefix();
    w.out << "{\"ph\":\"i\",\"pid\":1,\"tid\":" << tid << ",\"cat\":\""
          << category << "\",\"name\":\"" << json_writer::escape(name)
          << "\",\"ts\":";
    write_us(w.out, ts - w.base_ns);
    w.out << ",\"s\":\"t\"}";
}

session::session(session_options options) : options_(std::move(options))
{
    {
        const scoped_lock lock(session_mutex);
        if (session_active)
            throw std::logic_error("obs: a session is already active");
        session_active = true;
    }
    try {
        if (!options_.trace_path.empty()) {
            const scoped_lock lock(trace_mutex);
            tracer().open(options_.trace_path);
        }
        metrics_active_ =
            options_.collect_metrics || !options_.metrics_path.empty();
        if (metrics_active_) {
            // Fail before the run, not after it, when the metrics file is
            // unwritable; the real dump happens in the destructor.
            if (!options_.metrics_path.empty()) {
                // dlb-analyzer: allow(atomic-write) writability probe; the dtor dump rewrites it, nothing reads mid-run
                std::ofstream probe(options_.metrics_path);
                if (!probe)
                    throw std::runtime_error("obs: cannot open metrics file " +
                                             options_.metrics_path);
            }
            reset_metrics();
        }
    } catch (...) {
        const scoped_lock lock(session_mutex);
        session_active = false;
        throw;
    }
    detail::trace_on.store(!options_.trace_path.empty(),
                           std::memory_order_relaxed);
    detail::metrics_on.store(metrics_active_, std::memory_order_relaxed);
}

session::~session()
{
    detail::trace_on.store(false, std::memory_order_relaxed);
    detail::metrics_on.store(false, std::memory_order_relaxed);

    if (!options_.trace_path.empty()) {
        const scoped_lock lock(trace_mutex);
        if (tracer().out.is_open()) tracer().close_document();
    }

    if (!options_.metrics_path.empty()) {
        // dlb-analyzer: allow(atomic-write) best-effort dump from a nonthrowing dtor; metrics are re-creatable
        std::ofstream out(options_.metrics_path);
        if (out) {
            for (const metric_value& m : snapshot_metrics()) {
                out << "{\"name\":\"" << json_writer::escape(m.name) << "\"";
                if (m.is_histogram) {
                    out << ",\"type\":\"histogram\",\"count\":" << m.value
                        << ",\"sum\":" << m.sum << ",\"buckets\":[";
                    for (std::size_t i = 0; i < m.buckets.size(); ++i) {
                        if (i > 0) out << ",";
                        out << "[" << m.buckets[i].first << ","
                            << m.buckets[i].second << "]";
                    }
                    out << "]";
                } else {
                    out << ",\"type\":\"counter\",\"value\":" << m.value;
                }
                out << "}\n";
            }
        }
    }

    const scoped_lock lock(session_mutex);
    session_active = false;
}

} // namespace dlb::obs
