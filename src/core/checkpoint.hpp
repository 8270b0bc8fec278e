// Versioned binary engine snapshots with byte-identical resume.
//
// A checkpoint captures everything a run needs to continue from round t and
// finish with output byte-identical to the uninterrupted run: the engine's
// cross-round state (loads, previous flows, scheme + O(1) Chebyshev
// recurrence, conservation totals, negative-load stats), the runner's
// recorder state (partially recorded series, imbalance tracker, hybrid
// trigger, workload conservation baseline), and the RNG coordinates. The
// per-round draws are a stateless hash of (seed, node, round, index)
// (util/rng.hpp), so no generator words cross rounds and the RNG state
// reduces to (seed, round); a stored probe word (`rng_check`) pins the
// stream *implementation* so a drifted RNG is rejected instead of silently
// resuming a different trajectory.
//
// The header still carries the `rng_version` wire field of the original
// layout. This build writes 2, its counter-based stream; the parser still
// accepts 1, the retired per-(node, round) xoshiro stream, with that
// stream's probe word, so old files parse — but every resume path refuses
// them (require_current_rng_version) and the queue recomputes instead.
//
// File format (docs/campaign-specs.md "Checkpoint format"):
//
//   # dlb checkpoint v1\n        text header (magic + format version)
//   <payload>                    little-endian binary fields, fixed order
//   <u64 checksum>               FNV-1a over the payload bytes
//
// The payload's field order is stated once, by the visit() function of
// each struct below (checkpoint.cpp); the same visit drives serialization
// and parsing, and tests/test_checkpoint.cpp pins the resulting bytes.
//
// Readers are strict: wrong magic, truncation, flipped bytes (checksum),
// out-of-range enums, or internally inconsistent state all throw with a
// message naming what failed — a corrupt snapshot never resumes silently.
// Writers are atomic (write temp + rename, like the lambda sidecar), so
// the checkpoint path always holds a complete old or new snapshot.
//
// Layering: this is a src/core facility. The campaign layer's spec hash
// travels through it as an opaque token; core never depends on campaign.
#ifndef DLB_CORE_CHECKPOINT_HPP
#define DLB_CORE_CHECKPOINT_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/metrics.hpp"
#include "core/process.hpp"

namespace dlb {

/// Scheme state shared by the engines: the active scheme_params plus the
/// scheme_beta_state recurrence position (rounds_in_scheme next() calls,
/// last Chebyshev omega).
struct checkpoint_scheme_state {
    std::int32_t kind = 0; // scheme_kind wire value
    double beta = 1.0;
    double lambda = 0.0;
    std::int64_t rounds_in_scheme = 0;
    double omega = 1.0; // last Chebyshev omega (scheme_beta_state)
};

struct continuous_engine_state {
    std::vector<double> load;           // per node
    std::vector<double> previous_flows; // per half-edge
    std::int64_t round = 0;
    checkpoint_scheme_state scheme;
    double initial_total = 0.0;
    double external_total = 0.0;
    negative_load_stats negative;
};

struct discrete_engine_state {
    std::vector<std::int64_t> load;           // per node
    std::vector<std::int64_t> previous_flows; // per half-edge
    std::int64_t round = 0;
    checkpoint_scheme_state scheme;
    std::int64_t initial_total = 0;
    std::int64_t external_total = 0;
    std::int64_t clipped_tokens = 0;
    negative_load_stats negative;
};

struct cumulative_engine_state {
    continuous_engine_state twin; // the internal continuous process
    std::vector<std::int64_t> load;
    std::vector<double> cumulative_continuous;   // per half-edge
    std::vector<std::int64_t> cumulative_discrete; // per half-edge
    std::int64_t round = 0;
    std::int64_t initial_total = 0;
    std::int64_t external_total = 0;
    negative_load_stats negative;
};

/// The run loop's own state: the rows recorded so far, the hybrid trigger
/// and imbalance tracker, and the dynamic-workload conservation baseline.
/// Required for byte-identical resumed reports — engine state alone would
/// replay the physics but lose the already-recorded series.
struct runner_checkpoint_state {
    recorded_series series; // the runner's time_series carries the same
    bool hybrid_switched = false;
    std::int64_t hybrid_switch_round = -1;
    imbalance_tracker_state tracker;
    double baseline_total = 0.0; // conservation target incl. injections
    double ideal_basis = 0.0;    // total the current ideal vector came from
    bool ideal_stale = false;    // injections since the last ideal recompute
};

/// The rng_version wire value of the per-round stream this build draws.
inline constexpr std::int32_t kCurrentRngVersion = 2;

/// One complete snapshot. Exactly one engine section (named by `engine`)
/// is populated and serialized.
struct engine_checkpoint {
    /// Opaque compatibility token (the campaign layer stamps spec_hash;
    /// programmatic runs may leave 0). Resume rejects a mismatch.
    std::uint64_t spec_hash = 0;
    std::int64_t scenario_index = 0;
    std::int32_t rng_version = kCurrentRngVersion; // wire: 1 (retired) | 2
    std::uint64_t seed = 0;
    /// First word of the (seed, node 0, round) stream of `rng_version`,
    /// recomputed and compared on read: pins the RNG implementation.
    std::uint64_t rng_check = 0;
    process_kind engine = process_kind::discrete;
    std::int32_t rounding = 0; // rounding_kind wire value
    std::int32_t policy = 0;   // negative_load_policy wire value
    /// The round the snapshot was taken before: the resumed run re-executes
    /// this round first. Matches the engine section's own round.
    std::int64_t round = 0;
    std::int64_t record_every = 1;

    discrete_engine_state discrete;
    continuous_engine_state continuous;
    cumulative_engine_state cumulative;
    runner_checkpoint_state runner;
};

/// The text header line (without the trailing newline) every checkpoint
/// file starts with.
inline constexpr std::string_view kCheckpointHeader = "# dlb checkpoint v1";

/// The RNG probe word stored in (and validated against) a snapshot: the
/// first word of the (seed, node 0, round) stream of the given wire value.
/// Throws std::invalid_argument on an unknown rng_version wire value.
std::uint64_t checkpoint_rng_check(std::int32_t rng_version,
                                   std::uint64_t seed, std::int64_t round);

/// Throws std::invalid_argument, prefixed with `context` and naming
/// rng_version, unless `checkpoint` was taken under kCurrentRngVersion:
/// a snapshot of another stream cannot continue its trajectory here.
void require_current_rng_version(const engine_checkpoint& checkpoint,
                                 std::string_view context);

/// Serializes to the full file image (header + payload + checksum).
std::string serialize_checkpoint(const engine_checkpoint& checkpoint);

/// Strict inverse of serialize_checkpoint. Throws std::runtime_error with
/// a message naming the failure (header, truncation point, checksum,
/// out-of-range field, round inconsistency) on anything malformed.
engine_checkpoint parse_checkpoint(std::string_view bytes);

/// Atomic save: writes a temp file next to `path` and renames it over, so
/// the destination always holds a complete old or new snapshot. Throws
/// std::runtime_error on I/O failure.
void write_checkpoint_file(const std::string& path,
                           const engine_checkpoint& checkpoint);

/// Reads and parses `path`; errors are prefixed with the path.
engine_checkpoint read_checkpoint_file(const std::string& path);

} // namespace dlb

#endif // DLB_CORE_CHECKPOINT_HPP
