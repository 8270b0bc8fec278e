// Run manifests: small provenance records for campaign runs.
//
// Every campaign invocation (and every shard of one) can write a manifest
// naming exactly what produced its report — the campaign spec hash, the
// CLI arguments, the shard assignment, build info and host. A merge then
// proves the shards belong together *before* trusting their rows: fields
// that define the result (campaign, spec hash, scenario count, stride,
// shard count) must agree across every shard manifest, while per-shard
// fields (shard index, host, arguments) may differ, and the merged manifest
// embeds each shard's record so the full provenance of a merged CSV stays
// auditable from one file.
//
// The format is the repo's line-based key=value idiom (the spec-file and
// lambda-sidecar family), with a version header and `[shard N]` section
// markers for embedded records:
//
//   # dlb run manifest v1
//   campaign = discrepancy_sweep
//   spec_hash = 9f86d081884c7d65
//   shard_index = 0
//   ...
//   [shard 0]
//   ...per-shard record...
//
// Manifests are provenance, not results: they never enter the CSV/JSON
// reports, which stay byte-identical with or without them.
#ifndef DLB_OBS_MANIFEST_HPP
#define DLB_OBS_MANIFEST_HPP

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace dlb::obs {

struct run_manifest {
    /// Ordered key/value pairs (emission order is insertion order).
    std::vector<std::pair<std::string, std::string>> fields;
    /// Embedded per-shard records (merged manifests only).
    std::vector<run_manifest> shards;

    /// Value for `key`, or the empty string when absent.
    std::string get(const std::string& key) const;
    bool has(const std::string& key) const;
    /// Replaces the existing value or appends a new field. Newlines in the
    /// value are replaced with spaces (the format is line-based).
    void set(const std::string& key, const std::string& value);
};

/// Writes the manifest (and its embedded shard records) in the versioned
/// key=value format above.
void write_manifest(std::ostream& out, const run_manifest& manifest);
void write_manifest_file(const std::string& path, const run_manifest& manifest);

/// Parses a manifest written by write_manifest. Throws std::runtime_error
/// (prefixed with `context`, e.g. the file path) on a missing/unknown
/// version header or a malformed line — a manifest is a consistency proof,
/// so unlike the lambda sidecar it must not silently skip damage.
run_manifest parse_manifest(std::istream& in, const std::string& context);
run_manifest parse_manifest_file(const std::string& path);

/// Validates that every key in `must_match` has one consistent value across
/// all `shards` and returns a merged manifest: the must-match fields (in
/// the first shard's order), plus every shard's full record embedded in
/// input order. Throws std::runtime_error naming the first differing field
/// and the two conflicting values (with their shard positions), so a
/// mixed-manifest merge fails with an actionable message instead of a
/// silent wrong merge.
run_manifest merge_manifests(const std::vector<run_manifest>& shards,
                             const std::vector<std::string>& must_match);

} // namespace dlb::obs

#endif // DLB_OBS_MANIFEST_HPP
