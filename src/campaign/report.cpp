#include "campaign/report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"

namespace dlb::campaign {

namespace {

struct aggregate {
    std::int64_t failed = 0;
    std::int64_t converged = 0;
    std::int64_t conservation_failures = 0;
    double worst_final_discrepancy = 0.0;
    std::int64_t total_injected = 0;
    std::int64_t total_drained = 0;
};

aggregate aggregate_of(const campaign_result& result)
{
    aggregate agg;
    for (const auto& r : result.scenarios) {
        if (!r.error.empty()) {
            ++agg.failed;
            continue;
        }
        if (r.imbalance_converged) ++agg.converged;
        if (!r.conservation_ok) ++agg.conservation_failures;
        agg.worst_final_discrepancy =
            std::max(agg.worst_final_discrepancy, r.final_max_minus_average);
        agg.total_injected += r.total_injected;
        agg.total_drained += r.total_drained;
    }
    return agg;
}

// Cell parsers for merge_shard_csv. Integers and doubles were written with
// to_string / format_double (shortest round-trip), so parse + re-format
// reproduces the original bytes exactly.
std::int64_t merge_int(const std::string& context, const std::string& cell)
{
    std::int64_t value = 0;
    const auto [end, ec] =
        std::from_chars(cell.data(), cell.data() + cell.size(), value);
    if (ec != std::errc{} || end != cell.data() + cell.size())
        throw std::runtime_error("merge: bad integer for " + context + ": '" +
                                 cell + "'");
    return value;
}

double merge_real(const std::string& context, const std::string& cell)
{
    // from_chars is the exact inverse of the format_double/to_chars writer:
    // no locale dependence, and subnormals parse instead of throwing.
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(cell.data(), cell.data() + cell.size(), value);
    if (ec != std::errc{} || end != cell.data() + cell.size())
        throw std::runtime_error("merge: bad number for " + context + ": '" +
                                 cell + "'");
    return value;
}

bool merge_bool(const std::string& context, const std::string& cell)
{
    if (cell == "1") return true;
    if (cell == "0") return false;
    throw std::runtime_error("merge: bad flag for " + context + ": '" + cell +
                             "'");
}

// The metric columns of the per-scenario CSV rows, in emission order — the
// single table behind csv_header, write_csv AND merge_row, so the header,
// the emitted cells and the merge parser cannot drift apart. The trailing
// "error" column is handled separately (error rows blank every metric).
struct metric_column {
    const char* name;
    std::string (*emit)(const scenario_result&);
    void (*absorb)(scenario_result&, const std::string& cell,
                   const std::string& context);
};

const metric_column kMetricColumns[] = {
    {"resolved_nodes",
     [](const scenario_result& r) { return std::to_string(r.nodes); },
     [](scenario_result& r, const std::string& c, const std::string& ctx) {
         r.nodes = merge_int(ctx + " resolved_nodes", c);
     }},
    {"resolved_edges",
     [](const scenario_result& r) { return std::to_string(r.edges); },
     [](scenario_result& r, const std::string& c, const std::string& ctx) {
         r.edges = merge_int(ctx + " resolved_edges", c);
     }},
    {"lambda", // empty cell: not needed/computed (the -1 sentinel)
     [](const scenario_result& r) {
         return r.lambda >= 0.0 ? format_double(r.lambda) : std::string{};
     },
     [](scenario_result& r, const std::string& c, const std::string& ctx) {
         r.lambda = c.empty() ? -1.0 : merge_real(ctx + " lambda", c);
     }},
    {"resolved_beta",
     [](const scenario_result& r) { return format_double(r.beta); },
     [](scenario_result& r, const std::string& c, const std::string& ctx) {
         r.beta = merge_real(ctx + " resolved_beta", c);
     }},
    {"initial_total",
     [](const scenario_result& r) { return std::to_string(r.initial_total); },
     [](scenario_result& r, const std::string& c, const std::string& ctx) {
         r.initial_total = merge_int(ctx + " initial_total", c);
     }},
    {"final_max_minus_average",
     [](const scenario_result& r) {
         return format_double(r.final_max_minus_average);
     },
     [](scenario_result& r, const std::string& c, const std::string& ctx) {
         r.final_max_minus_average =
             merge_real(ctx + " final_max_minus_average", c);
     }},
    {"final_max_local_difference",
     [](const scenario_result& r) {
         return format_double(r.final_max_local_difference);
     },
     [](scenario_result& r, const std::string& c, const std::string& ctx) {
         r.final_max_local_difference =
             merge_real(ctx + " final_max_local_difference", c);
     }},
    {"remaining_imbalance",
     [](const scenario_result& r) {
         return format_double(r.remaining_imbalance);
     },
     [](scenario_result& r, const std::string& c, const std::string& ctx) {
         r.remaining_imbalance = merge_real(ctx + " remaining_imbalance", c);
     }},
    {"imbalance_converged",
     [](const scenario_result& r) {
         return std::string(r.imbalance_converged ? "1" : "0");
     },
     [](scenario_result& r, const std::string& c, const std::string& ctx) {
         r.imbalance_converged = merge_bool(ctx + " imbalance_converged", c);
     }},
    {"rounds_to_plateau",
     [](const scenario_result& r) {
         return std::to_string(r.rounds_to_plateau);
     },
     [](scenario_result& r, const std::string& c, const std::string& ctx) {
         r.rounds_to_plateau = merge_int(ctx + " rounds_to_plateau", c);
     }},
    {"switch_round",
     [](const scenario_result& r) { return std::to_string(r.switch_round); },
     [](scenario_result& r, const std::string& c, const std::string& ctx) {
         r.switch_round = merge_int(ctx + " switch_round", c);
     }},
    {"min_load",
     [](const scenario_result& r) {
         return format_double(r.negative.min_end_of_round_load);
     },
     [](scenario_result& r, const std::string& c, const std::string& ctx) {
         r.negative.min_end_of_round_load = merge_real(ctx + " min_load", c);
     }},
    {"min_transient_load",
     [](const scenario_result& r) {
         return format_double(r.negative.min_transient_load);
     },
     [](scenario_result& r, const std::string& c, const std::string& ctx) {
         r.negative.min_transient_load =
             merge_real(ctx + " min_transient_load", c);
     }},
    {"negative_end_rounds",
     [](const scenario_result& r) {
         return std::to_string(r.negative.rounds_with_negative_end_load);
     },
     [](scenario_result& r, const std::string& c, const std::string& ctx) {
         r.negative.rounds_with_negative_end_load =
             merge_int(ctx + " negative_end_rounds", c);
     }},
    {"negative_transient_rounds",
     [](const scenario_result& r) {
         return std::to_string(r.negative.rounds_with_negative_transient);
     },
     [](scenario_result& r, const std::string& c, const std::string& ctx) {
         r.negative.rounds_with_negative_transient =
             merge_int(ctx + " negative_transient_rounds", c);
     }},
    {"total_injected",
     [](const scenario_result& r) { return std::to_string(r.total_injected); },
     [](scenario_result& r, const std::string& c, const std::string& ctx) {
         r.total_injected = merge_int(ctx + " total_injected", c);
     }},
    {"total_drained",
     [](const scenario_result& r) { return std::to_string(r.total_drained); },
     [](scenario_result& r, const std::string& c, const std::string& ctx) {
         r.total_drained = merge_int(ctx + " total_drained", c);
     }},
    {"conservation_ok",
     [](const scenario_result& r) {
         return std::string(r.conservation_ok ? "1" : "0");
     },
     [](scenario_result& r, const std::string& c, const std::string& ctx) {
         r.conservation_ok = merge_bool(ctx + " conservation_ok", c);
     }},
    {"record_every", // report-shaping stride; validated on merge
     [](const scenario_result& r) { return std::to_string(r.record_every); },
     [](scenario_result& r, const std::string& c, const std::string& ctx) {
         r.record_every = merge_int(ctx + " record_every", c);
     }},
};

constexpr std::size_t kMetricCount =
    sizeof(kMetricColumns) / sizeof(kMetricColumns[0]);

void write_scenario_json(json_writer& json, const scenario_result& r,
                         bool include_timing)
{
    json.begin_object();
    json.member("index", r.index);
    json.member("label", std::string_view(r.label));
    json.key("spec");
    json.begin_object();
    for (const auto& field : field_names())
        json.member(field, std::string_view(get_field(r.spec, field)));
    json.end_object();
    if (!r.error.empty()) {
        json.member("error", std::string_view(r.error));
        json.end_object();
        return;
    }
    json.member("nodes", r.nodes);
    json.member("edges", r.edges);
    if (r.lambda >= 0.0) json.member("lambda", r.lambda);
    json.member("beta", r.beta);
    json.member("initial_total", r.initial_total);
    json.member("final_max_minus_average", r.final_max_minus_average);
    json.member("final_max_local_difference", r.final_max_local_difference);
    json.member("remaining_imbalance", r.remaining_imbalance);
    json.member("imbalance_converged", r.imbalance_converged);
    json.member("rounds_to_plateau", r.rounds_to_plateau);
    json.member("switch_round", r.switch_round);
    json.member("min_load", r.negative.min_end_of_round_load);
    json.member("min_transient_load", r.negative.min_transient_load);
    json.member("negative_end_rounds", r.negative.rounds_with_negative_end_load);
    json.member("negative_transient_rounds",
                r.negative.rounds_with_negative_transient);
    json.member("total_injected", r.total_injected);
    json.member("total_drained", r.total_drained);
    json.member("conservation_ok", r.conservation_ok);
    json.member("record_every", r.record_every);
    if (include_timing) {
        // predicted_cost sits next to wall_seconds so cost-model
        // calibration is a two-column regression over the timing report.
        json.member("predicted_cost", r.predicted_cost);
        json.member("wall_seconds", r.wall_seconds);
    }
    json.end_object();
}

// The aggregated metrics registry, embedded in the --timing JSON when an
// obs session is collecting (--metrics / --trace): counters as plain
// values, histograms as count/sum plus their nonzero power-of-two buckets.
void write_metrics_json(json_writer& json)
{
    json.key("metrics");
    json.begin_object();
    for (const auto& metric : obs::snapshot_metrics()) {
        json.key(metric.name);
        if (!metric.is_histogram) {
            json.value(metric.value);
            continue;
        }
        json.begin_object();
        json.member("count", metric.value);
        json.member("sum", metric.sum);
        json.key("buckets");
        json.begin_array();
        for (const auto& [bucket, count] : metric.buckets) {
            json.begin_array();
            json.value(static_cast<std::int64_t>(bucket));
            json.value(count);
            json.end_array();
        }
        json.end_array();
        json.end_object();
    }
    json.end_object();
}

} // namespace

void write_json(std::ostream& out, const campaign_result& result,
                bool include_timing)
{
    const obs::trace_span span("report", "write_json");
    json_writer json(out);
    json.begin_object();
    json.member("name", std::string_view(result.spec.name));
    json.member("scenario_count",
                static_cast<std::int64_t>(result.scenarios.size()));

    json.key("base");
    json.begin_object();
    for (const auto& field : field_names())
        json.member(field, std::string_view(get_field(result.spec.base, field)));
    json.end_object();

    json.key("axes");
    json.begin_object();
    for (const auto& [field, values] : result.spec.axes) {
        json.key(field);
        json.begin_array();
        for (const auto& value : values) json.value(std::string_view(value));
        json.end_array();
    }
    json.end_object();

    const aggregate agg = aggregate_of(result);
    json.key("aggregate");
    json.begin_object();
    json.member("failed", agg.failed);
    json.member("converged", agg.converged);
    json.member("conservation_failures", agg.conservation_failures);
    json.member("worst_final_discrepancy", agg.worst_final_discrepancy);
    json.member("total_injected", agg.total_injected);
    json.member("total_drained", agg.total_drained);
    json.end_object();

    json.key("scenarios");
    json.begin_array();
    for (const auto& r : result.scenarios)
        write_scenario_json(json, r, include_timing);
    json.end_array();

    if (include_timing) {
        json.member("wall_seconds", result.wall_seconds);
        if (obs::metrics_enabled()) write_metrics_json(json);
    }
    json.end_object();
    out << "\n";
}

std::vector<std::string> csv_header(bool include_timing)
{
    std::vector<std::string> header = {"index", "label"};
    for (const auto& field : field_names()) header.push_back(field);
    for (const auto& column : kMetricColumns) header.push_back(column.name);
    header.push_back("error");
    if (include_timing) {
        header.push_back("predicted_cost");
        header.push_back("wall_seconds");
    }
    return header;
}

void write_csv(std::ostream& out, const campaign_result& result,
               bool include_timing)
{
    const obs::trace_span span("report", "write_csv");
    auto emit_row = [&out](const std::vector<std::string>& cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (i > 0) out << ",";
            out << csv_writer::escape(cells[i]);
        }
        out << "\n";
    };

    emit_row(csv_header(include_timing));
    for (const auto& r : result.scenarios) {
        std::vector<std::string> cells = {std::to_string(r.index), r.label};
        for (const auto& field : field_names())
            cells.push_back(get_field(r.spec, field));
        if (r.error.empty()) {
            for (const auto& column : kMetricColumns)
                cells.push_back(column.emit(r));
            cells.push_back("");
        } else {
            for (std::size_t i = 0; i < kMetricCount; ++i) cells.push_back("");
            cells.push_back(r.error);
        }
        if (include_timing) {
            cells.push_back(format_double(r.predicted_cost));
            cells.push_back(format_double(r.wall_seconds));
        }
        emit_row(cells);
    }
}

namespace {

// Rebuilds one scenario_result from its CSV cells. `expected` is the
// expansion's spec at the row's index; the row's spec columns must match it
// field for field (catching shards run with a different campaign
// definition).
scenario_result merge_row(const std::vector<std::string>& cells,
                          const scenario_spec& expected,
                          const std::string& context)
{
    scenario_result r;
    r.spec = expected;
    r.index = merge_int(context + " index", cells[0]);
    r.label = cells[1];

    // Field-by-field first, so a precise mismatch (e.g. a shard run with a
    // different seed) is named; the label check then catches report-format
    // drift the spec columns cannot.
    const auto& fields = field_names();
    for (std::size_t f = 0; f < fields.size(); ++f) {
        const std::string& cell = cells[2 + f];
        if (cell != get_field(expected, fields[f]))
            throw std::runtime_error(
                "merge: " + context + ": spec mismatch on '" + fields[f] +
                "' (report says '" + cell + "', campaign expands to '" +
                get_field(expected, fields[f]) +
                "'); every shard must run the same campaign definition");
    }
    if (r.label != scenario_label(expected))
        throw std::runtime_error("merge: " + context + ": label '" + r.label +
                                 "' does not match this campaign's '" +
                                 scenario_label(expected) +
                                 "'; the shard was written by a different "
                                 "campaign definition or report version");

    const std::size_t m = 2 + fields.size(); // first metric column
    const std::string& error = cells[m + kMetricCount];
    if (!error.empty()) {
        r.error = error;
        return r;
    }

    for (std::size_t c = 0; c < kMetricCount; ++c)
        kMetricColumns[c].absorb(r, cells[m + c], context);
    return r;
}

} // namespace

campaign_result merge_shard_csv(const campaign_spec& spec,
                                const std::vector<std::string>& paths,
                                std::int64_t record_every)
{
    if (paths.empty())
        throw std::runtime_error("merge: no shard reports given");

    const obs::trace_span span("campaign", "merge");
    const std::vector<scenario_spec> expanded = expand(spec);
    const std::int64_t expected_stride =
        resolved_record_every(spec, record_every);

    campaign_result result;
    result.spec = spec;
    result.scenarios.resize(expanded.size());
    std::vector<bool> seen(expanded.size(), false);

    // The exact header write_csv would emit (escape is the identity for
    // every header name; keep it anyway so the strings stay in lockstep).
    std::string expected_header;
    for (const auto& name : csv_header(false)) {
        if (!expected_header.empty()) expected_header += ",";
        expected_header += csv_writer::escape(name);
    }
    const std::size_t width = csv_header(false).size();

    for (const auto& path : paths) {
        std::ifstream in(path);
        if (!in) throw std::runtime_error("merge: cannot open " + path);

        std::string line;
        if (!std::getline(in, line) || line != expected_header)
            throw std::runtime_error(
                "merge: " + path +
                ": header does not match a timing-free campaign CSV report");

        std::int64_t line_number = 1;
        while (std::getline(in, line)) {
            ++line_number;
            const std::string context =
                path + ":" + std::to_string(line_number);
            const auto cells = parse_csv_line(line);
            if (cells.size() != width)
                throw std::runtime_error("merge: " + context + ": expected " +
                                         std::to_string(width) + " columns, got " +
                                         std::to_string(cells.size()));

            const std::int64_t index = merge_int(context + " index", cells[0]);
            if (index < 0 ||
                index >= static_cast<std::int64_t>(expanded.size()))
                throw std::runtime_error(
                    "merge: " + context + ": scenario index " +
                    std::to_string(index) + " outside the campaign's " +
                    std::to_string(expanded.size()) + " scenarios");
            if (seen[static_cast<std::size_t>(index)])
                throw std::runtime_error(
                    "merge: " + context + ": scenario " +
                    std::to_string(index) +
                    " appears in more than one shard (a shard file given "
                    "twice, or shards run with different --shard counts)");
            seen[static_cast<std::size_t>(index)] = true;
            scenario_result row =
                merge_row(cells, expanded[static_cast<std::size_t>(index)],
                          context);
            // The sampling stride shapes the report (rounds_to_plateau is
            // read off the recorded series), so shards run with a
            // different --record-every cannot merge into the byte-identical
            // unsharded report — reject them instead of silently diverging.
            if (row.error.empty() && row.record_every != expected_stride)
                throw std::runtime_error(
                    "merge: " + context + ": scenario ran with record_every " +
                    std::to_string(row.record_every) + " but this merge expects " +
                    std::to_string(expected_stride) +
                    "; run every shard and the merge with the same "
                    "--record-every");
            result.scenarios[static_cast<std::size_t>(index)] = std::move(row);
        }
    }

    std::int64_t missing = 0;
    for (const bool covered : seen)
        if (!covered) ++missing;
    if (missing > 0)
        throw std::runtime_error(
            "merge: " + std::to_string(missing) + " of " +
            std::to_string(expanded.size()) +
            " scenarios missing from the given shards (check the shard "
            "list covers 0/N .. N-1/N exactly once, all with the same N)");

    return result;
}

void print_campaign_summary(std::ostream& out, const campaign_result& result)
{
    out << "campaign '" << result.spec.name << "': "
        << result.scenarios.size() << " scenarios\n";
    for (const auto& r : result.scenarios) {
        out << "  [" << r.index << "] " << r.label;
        if (!r.error.empty()) {
            out << "  ERROR: " << r.error << "\n";
            continue;
        }
        out << "  final max-avg=" << r.final_max_minus_average
            << " plateau=" << r.remaining_imbalance
            << (r.imbalance_converged ? "" : " (not converged)");
        if (r.switch_round >= 0) out << " switch@" << r.switch_round;
        if (r.total_injected > 0 || r.total_drained > 0)
            out << " +" << r.total_injected << "/-" << r.total_drained;
        if (!r.conservation_ok) out << "  CONSERVATION VIOLATED";
        out << "\n";
    }
    const aggregate agg = aggregate_of(result);
    out << "aggregate: failed=" << agg.failed << " converged=" << agg.converged
        << " conservation_failures=" << agg.conservation_failures
        << " worst_final_discrepancy=" << agg.worst_final_discrepancy
        << " injected=" << agg.total_injected
        << " drained=" << agg.total_drained << "\n"
        << "wall time: " << result.wall_seconds << " s\n";
}

void write_windows_csv(std::ostream& out, const measure_windows_result& result)
{
    const obs::trace_span span("report", "write_windows_csv");
    out << "window,seed,start_round,window_rounds,discrepancy,mean,stddev,"
           "ci95_half_width\n";
    for (const window_sample& sample : result.samples) {
        out << sample.window << "," << sample.seed << "," << result.start_round
            << "," << result.window_rounds << ","
            << format_double(sample.discrepancy) << ","
            << format_double(result.mean) << "," << format_double(result.stddev)
            << ",";
        // One window has no interval: an empty cell (JSON writes null).
        if (!std::isnan(result.ci95_half_width))
            out << format_double(result.ci95_half_width);
        out << "\n";
    }
}

void write_windows_json(std::ostream& out, const measure_windows_result& result)
{
    const obs::trace_span span("report", "write_windows_json");
    json_writer json(out);
    json.begin_object();
    json.member("name", std::string_view(result.campaign.name));
    json.member("scenario_index", result.scenario_index);
    json.member("label", std::string_view(result.label));
    json.member("start_round", result.start_round);
    json.member("window_rounds", result.window_rounds);

    json.key("scenario");
    json.begin_object();
    for (const auto& field : field_names())
        json.member(field, std::string_view(get_field(result.spec, field)));
    json.end_object();

    json.key("windows");
    json.begin_array();
    for (const window_sample& sample : result.samples) {
        json.begin_object();
        json.member("window", sample.window);
        json.member("seed", sample.seed);
        json.member("discrepancy", sample.discrepancy);
        json.end_object();
    }
    json.end_array();

    json.key("aggregate");
    json.begin_object();
    json.member("samples", static_cast<std::int64_t>(result.samples.size()));
    json.member("mean", result.mean);
    json.member("stddev", result.stddev);
    json.member("ci95_half_width", result.ci95_half_width); // null at K = 1
    json.end_object();

    json.end_object();
    out << "\n";
}

} // namespace dlb::campaign
