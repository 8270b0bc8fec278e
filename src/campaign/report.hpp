// Campaign result reporters: aggregated JSON and CSV.
//
// Output is deterministic and byte-stable for a given campaign_result
// (modulo the wall-clock fields, which are only emitted when
// `include_timing` is set — leave it off when diffing runs or asserting
// thread-count independence).
#ifndef DLB_CAMPAIGN_REPORT_HPP
#define DLB_CAMPAIGN_REPORT_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/campaign_executor.hpp"

namespace dlb::campaign {

/// Full campaign report: spec echo, sweep axes, per-scenario summaries and
/// an aggregate block.
void write_json(std::ostream& out, const campaign_result& result,
                bool include_timing = false);

/// One row per scenario with a fixed header (see csv_header).
void write_csv(std::ostream& out, const campaign_result& result,
               bool include_timing = false);

/// The CSV column names, in emission order.
std::vector<std::string> csv_header(bool include_timing = false);

/// Short per-scenario console lines plus the aggregate tally.
void print_campaign_summary(std::ostream& out, const campaign_result& result);

/// Windowed-sampling report (measure_windows): one CSV row per window with
/// the aggregate (mean / stddev / 95% CI half-width) echoed on every row.
/// Deterministic and byte-stable like write_csv.
void write_windows_csv(std::ostream& out, const measure_windows_result& result);

/// JSON form of the windowed-sampling report: scenario echo, per-window
/// samples and the aggregate block.
void write_windows_json(std::ostream& out,
                        const measure_windows_result& result);

/// Reassembles a full campaign_result from shard CSV reports.
///
/// `spec` must be the same campaign definition every shard ran (same spec
/// file / flags); `paths` are the per-shard CSV reports written by
/// write_csv *without* timing. Every cell round-trips exactly (integers via
/// to_string/stoll, doubles via the shortest round-trip format), so feeding
/// the merged result back through write_csv / write_json produces output
/// byte-identical to a single unsharded run — the merge-determinism
/// contract CI enforces with cmp.
///
/// Validates per row that the spec columns match the expansion at that
/// index, that the row's sampling stride matches `record_every` resolved
/// against the spec (the stride shapes metrics like rounds_to_plateau, so
/// every shard and the merge must agree on it), that no index appears
/// twice, and at the end that every expanded scenario was covered by
/// exactly one shard. Coverage, not assignment, is what is checked, so the
/// merge does not depend on how the partitioner assigned scenarios. Throws
/// std::runtime_error (with file/line context) on any inconsistency,
/// including headers from a --timing report.
campaign_result merge_shard_csv(const campaign_spec& spec,
                                const std::vector<std::string>& paths,
                                std::int64_t record_every = 0);

} // namespace dlb::campaign

#endif // DLB_CAMPAIGN_REPORT_HPP
