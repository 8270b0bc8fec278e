#include "core/checkpoint.hpp"

#include <bit>
#include <fstream>
#include <stdexcept>
#include <type_traits>

#include "core/cumulative_baseline.hpp"
#include "util/rng.hpp"
#include "util/tempfile.hpp"

namespace dlb {

namespace {

// ---- wire archives ----------------------------------------------------------
//
// Each snapshot struct has one visit(archive&, T&) below that names its
// fields once, in wire order: run with a wire_writer it serializes, run with
// a wire_reader it parses. Fields travel little-endian, so the format is
// identical on any host. Doubles travel as their IEEE-754 bit patterns
// (exact round-trip; NaN/inf payloads preserved — the negative-load minima
// start at +inf).
//
// Besides field(), visit uses three checked forms — bounded (enum wire
// values), at_least (counts) and column (a series column, as long as the
// rounds column) — which the writer treats as plain fields and the reader
// enforces. Checks spanning structs (round and rng_check consistency) run
// in parse_checkpoint once the whole payload is read.

class wire_writer {
public:
    /// Appends to `out`; with a null `out` it only counts the bytes it
    /// would append, which sizes the file image before it is written.
    explicit wire_writer(std::string* out) : out_(out) {}

    void field(std::uint64_t value, const char*) { put(value, 8); }
    void field(std::int64_t value, const char*)
    {
        put(static_cast<std::uint64_t>(value), 8);
    }
    void field(std::int32_t value, const char*)
    {
        put(static_cast<std::uint32_t>(value), 4);
    }
    void field(double value, const char*)
    {
        put(std::bit_cast<std::uint64_t>(value), 8);
    }
    void field(bool value, const char*) { put(value ? 1 : 0, 1); }

    template <class T>
    void field(const std::vector<T>& values, const char* name)
    {
        field(static_cast<std::uint64_t>(values.size()), name);
        if (out_ == nullptr) {
            // Each scalar field() above writes sizeof(T) bytes.
            size_ += values.size() * sizeof(T);
            return;
        }
        for (const T value : values) field(value, name);
    }

    template <class T>
    void bounded(T value, std::int64_t, std::int64_t, const char* name)
    {
        if constexpr (std::is_enum_v<T>)
            field(static_cast<std::underlying_type_t<T>>(value), name);
        else
            field(value, name);
    }

    void at_least(std::int64_t value, std::int64_t, const char* name)
    {
        field(value, name);
    }

    void column(const std::vector<double>& values, std::size_t,
                const char* name)
    {
        field(values, name);
    }

    /// Bytes appended (or counted) so far.
    std::size_t size() const noexcept { return size_; }

private:
    /// Appends the low `size` bytes of `bits`, least significant first, in
    /// one append: the shifts give the same bytes on any host.
    void put(std::uint64_t bits, std::size_t size)
    {
        size_ += size;
        if (out_ == nullptr) return;
        char bytes[8];
        for (std::size_t byte = 0; byte < 8; ++byte)
            bytes[byte] = static_cast<char>((bits >> (8 * byte)) & 0xff);
        out_->append(bytes, size);
    }

    std::string* out_;
    std::size_t size_ = 0;
};

// Strict: every error names the field it was reading.
class wire_reader {
public:
    explicit wire_reader(std::string_view data) : data_(data) {}

    void field(std::uint64_t& value, const char* name)
    {
        value = take(8, name);
    }
    void field(std::int64_t& value, const char* name)
    {
        value = static_cast<std::int64_t>(take(8, name));
    }
    void field(std::int32_t& value, const char* name)
    {
        value = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(take(4, name)));
    }
    void field(double& value, const char* name)
    {
        value = std::bit_cast<double>(take(8, name));
    }
    void field(bool& value, const char* name)
    {
        const std::uint64_t byte = take(1, name);
        if (byte > 1)
            throw std::runtime_error(std::string("checkpoint: field ") + name +
                                     " is not a boolean");
        value = byte == 1;
    }

    template <class T>
    void field(std::vector<T>& values, const char* name)
    {
        std::uint64_t count = 0;
        field(count, name);
        // The length must fit in the remaining payload before anything is
        // allocated, so a corrupt length fails fast instead of bad_alloc-ing.
        if (count > (data_.size() - pos_) / sizeof(T)) truncated(name);
        values.resize(count);
        for (T& value : values) field(value, name);
    }

    /// An integer (or an enum, as its underlying wire integer) that must
    /// lie in [lo, hi].
    template <class T>
    void bounded(T& value, std::int64_t lo, std::int64_t hi, const char* name)
    {
        if constexpr (std::is_enum_v<T>) {
            std::underlying_type_t<T> wire = 0;
            bounded(wire, lo, hi, name);
            value = static_cast<T>(wire);
        } else {
            field(value, name);
            if (value < lo || value > hi)
                throw std::runtime_error(
                    std::string("checkpoint: ") + name + " " +
                    std::to_string(value) + " outside the known range " +
                    std::to_string(lo) + ".." + std::to_string(hi));
        }
    }

    void at_least(std::int64_t& value, std::int64_t min, const char* name)
    {
        field(value, name);
        if (value < min)
            throw std::runtime_error(std::string("checkpoint: ") + name +
                                     " must be >= " + std::to_string(min) +
                                     ", got " + std::to_string(value));
    }

    /// A recorded-series column, which must have one entry per row.
    void column(std::vector<double>& values, std::size_t rows, const char* name)
    {
        field(values, name);
        if (values.size() != rows)
            throw std::runtime_error(
                std::string("checkpoint: recorded series columns have "
                            "mismatched lengths: ") +
                name + " has " + std::to_string(values.size()) +
                " entries for " + std::to_string(rows) + " rounds");
    }

    void expect_done() const
    {
        if (pos_ != data_.size())
            throw std::runtime_error(
                "checkpoint: trailing bytes after the last field");
    }

private:
    std::uint64_t take(std::size_t size, const char* name)
    {
        if (data_.size() - pos_ < size) truncated(name);
        std::uint64_t bits = 0;
        for (std::size_t byte = 0; byte < size; ++byte)
            bits |= std::uint64_t{static_cast<std::uint8_t>(data_[pos_++])}
                    << (8 * byte);
        return bits;
    }

    [[noreturn]] static void truncated(const char* name)
    {
        throw std::runtime_error(
            std::string("checkpoint: truncated while reading ") + name);
    }

    std::string_view data_;
    std::size_t pos_ = 0;
};

std::uint64_t fnv1a(std::string_view bytes)
{
    std::uint64_t hash = 1469598103934665603ULL;
    for (const char c : bytes) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

/// Calls `fn` on the engine section that `checkpoint.engine` names.
template <class Fn>
decltype(auto) with_section(engine_checkpoint& checkpoint, Fn&& fn)
{
    switch (checkpoint.engine) {
    case process_kind::discrete:
        return fn(checkpoint.discrete);
    case process_kind::continuous:
        return fn(checkpoint.continuous);
    case process_kind::cumulative:
        return fn(checkpoint.cumulative);
    }
    throw std::invalid_argument(
        "checkpoint: unknown engine kind " +
        std::to_string(static_cast<std::int32_t>(checkpoint.engine)));
}

// ---- the v1 field order -----------------------------------------------------
//
// One visit per struct, in the order the fields travel. Changing an order
// changes the format: tests/test_checkpoint.cpp pins the v1 bytes.

template <class Archive>
void visit(Archive& ar, negative_load_stats& stats)
{
    ar.field(stats.min_end_of_round_load, "negative.min_end_of_round_load");
    ar.field(stats.min_transient_load, "negative.min_transient_load");
    ar.field(stats.rounds_with_negative_end_load,
             "negative.rounds_with_negative_end_load");
    ar.field(stats.rounds_with_negative_transient,
             "negative.rounds_with_negative_transient");
}

template <class Archive>
void visit(Archive& ar, checkpoint_scheme_state& scheme)
{
    ar.bounded(scheme.kind, 0, 2, "scheme.kind");
    ar.field(scheme.beta, "scheme.beta");
    ar.field(scheme.lambda, "scheme.lambda");
    ar.at_least(scheme.rounds_in_scheme, 0, "scheme.rounds_in_scheme");
    ar.field(scheme.omega, "scheme.omega");
}

template <class Archive>
void visit(Archive& ar, continuous_engine_state& state)
{
    ar.field(state.load, "continuous load vector");
    ar.field(state.previous_flows, "continuous previous-flows vector");
    ar.field(state.round, "continuous round");
    visit(ar, state.scheme);
    ar.field(state.initial_total, "continuous initial_total");
    ar.field(state.external_total, "continuous external_total");
    visit(ar, state.negative);
}

template <class Archive>
void visit(Archive& ar, discrete_engine_state& state)
{
    ar.field(state.load, "discrete load vector");
    ar.field(state.previous_flows, "discrete previous-flows vector");
    ar.field(state.round, "discrete round");
    visit(ar, state.scheme);
    ar.field(state.initial_total, "discrete initial_total");
    ar.field(state.external_total, "discrete external_total");
    ar.field(state.clipped_tokens, "discrete clipped_tokens");
    visit(ar, state.negative);
}

template <class Archive>
void visit(Archive& ar, cumulative_engine_state& state)
{
    visit(ar, state.twin);
    ar.field(state.load, "cumulative load vector");
    ar.field(state.cumulative_continuous, "cumulative continuous counters");
    ar.field(state.cumulative_discrete, "cumulative discrete counters");
    ar.field(state.round, "cumulative round");
    ar.field(state.initial_total, "cumulative initial_total");
    ar.field(state.external_total, "cumulative external_total");
    visit(ar, state.negative);
}

template <class Archive>
void visit(Archive& ar, recorded_series& series)
{
    ar.field(series.rounds, "series rounds");
    const std::size_t rows = series.rounds.size();
    ar.column(series.max_minus_average, rows, "series max_minus_average");
    ar.column(series.max_local_difference, rows,
              "series max_local_difference");
    ar.column(series.potential_over_n, rows, "series potential_over_n");
    ar.column(series.min_load, rows, "series min_load");
    ar.column(series.min_transient_load, rows, "series min_transient_load");
    ar.column(series.total_load_error, rows, "series total_load_error");
    ar.field(series.switch_round, "series switch_round");
    ar.field(series.total_injected, "series total_injected");
    ar.field(series.total_drained, "series total_drained");
}

template <class Archive>
void visit(Archive& ar, imbalance_tracker_state& tracker)
{
    ar.field(tracker.count, "tracker count");
    ar.field(tracker.last_improvement, "tracker last_improvement");
    ar.field(tracker.best, "tracker best");
    ar.field(tracker.converged, "tracker converged");
    ar.field(tracker.trailing, "tracker trailing window");
}

template <class Archive>
void visit(Archive& ar, runner_checkpoint_state& state)
{
    visit(ar, state.series);
    ar.field(state.hybrid_switched, "hybrid switched");
    ar.field(state.hybrid_switch_round, "hybrid switch_round");
    visit(ar, state.tracker);
    ar.field(state.baseline_total, "runner baseline_total");
    ar.field(state.ideal_basis, "runner ideal_basis");
    ar.field(state.ideal_stale, "runner ideal_stale");
}

template <class Archive>
void visit(Archive& ar, engine_checkpoint& checkpoint)
{
    ar.field(checkpoint.spec_hash, "spec_hash");
    ar.field(checkpoint.scenario_index, "scenario_index");
    ar.bounded(checkpoint.rng_version, 1, 2, "rng_version");
    ar.field(checkpoint.seed, "seed");
    ar.field(checkpoint.rng_check, "rng_check");
    ar.bounded(checkpoint.engine, 0, 2, "engine kind");
    ar.bounded(checkpoint.rounding, 0, 3, "rounding");
    ar.bounded(checkpoint.policy, 0, 1, "policy");
    ar.at_least(checkpoint.round, 0, "round");
    ar.at_least(checkpoint.record_every, 1, "record_every");
    with_section(checkpoint, [&](auto& section) { visit(ar, section); });
    visit(ar, checkpoint.runner);
}

void check_size(std::size_t have, std::size_t want, const std::string& what)
{
    if (have == want) return;
    throw std::invalid_argument("checkpoint: " + what + " has " +
                                std::to_string(have) +
                                " entries but the engine expects " +
                                std::to_string(want));
}

} // namespace

std::uint64_t checkpoint_rng_check(std::int32_t rng_version_wire,
                                   std::uint64_t seed, std::int64_t round)
{
    const auto round_word = static_cast<std::uint64_t>(round);
    // Wire value 1 names the retired stream, which seeded xoshiro from
    // mix64(seed, node + 1, round + 1); its probe is that seeding at node 0.
    if (rng_version_wire == 1) return tagged_rng(seed, 1, round_word + 1)();
    if (rng_version_wire == 2) return draw_u64(seed, 0, round_word, 0);
    throw std::invalid_argument("checkpoint: rng_version must be 1 or 2, got " +
                                std::to_string(rng_version_wire));
}

void require_current_rng_version(const engine_checkpoint& checkpoint,
                                 std::string_view context)
{
    if (checkpoint.rng_version == kCurrentRngVersion) return;
    throw std::invalid_argument(
        std::string(context) + ": rng_version mismatch: checkpoint has " +
        std::to_string(checkpoint.rng_version) +
        " but this build draws only rng_version " +
        std::to_string(kCurrentRngVersion) +
        " (the counter-based stream); rerun the scenario from round 0");
}

std::string serialize_checkpoint(const engine_checkpoint& checkpoint)
{
    // visit takes a mutable reference because the reader shares it; the
    // writers only read the fields.
    auto& fields = const_cast<engine_checkpoint&>(checkpoint);
    // A counting pass sizes the image, so it is written into one
    // allocation, not a growing string whose doublings hold the old and
    // the new buffer at once.
    wire_writer counter(nullptr);
    visit(counter, fields);
    std::string bytes;
    bytes.reserve(kCheckpointHeader.size() + 1 + counter.size() + 8);
    bytes.append(kCheckpointHeader).push_back('\n');
    const std::size_t payload_begin = bytes.size();
    wire_writer out(&bytes);
    visit(out, fields);
    out.field(fnv1a(std::string_view(bytes).substr(payload_begin)), "checksum");
    return bytes;
}

engine_checkpoint parse_checkpoint(std::string_view bytes)
{
    const std::size_t header_size = kCheckpointHeader.size() + 1;
    if (bytes.size() < header_size ||
        bytes.substr(0, kCheckpointHeader.size()) != kCheckpointHeader ||
        bytes[kCheckpointHeader.size()] != '\n')
        throw std::runtime_error(
            "checkpoint: missing '# dlb checkpoint v1' header (not a "
            "checkpoint file, or an incompatible format version)");
    if (bytes.size() < header_size + 8)
        throw std::runtime_error(
            "checkpoint: truncated before the payload checksum");

    const std::string_view payload =
        bytes.substr(header_size, bytes.size() - header_size - 8);
    wire_reader trailer(bytes.substr(bytes.size() - 8));
    std::uint64_t checksum = 0;
    trailer.field(checksum, "checksum");
    if (checksum != fnv1a(payload))
        throw std::runtime_error(
            "checkpoint: payload checksum mismatch (corrupt or truncated "
            "snapshot); refusing to resume");

    wire_reader in(payload);
    engine_checkpoint checkpoint;
    visit(in, checkpoint);
    in.expect_done();

    if (checkpoint.rng_check !=
        checkpoint_rng_check(checkpoint.rng_version, checkpoint.seed,
                             checkpoint.round))
        throw std::runtime_error(
            "checkpoint: rng_check mismatch — the stored RNG probe does not "
            "match this build's rng_version " +
            std::to_string(checkpoint.rng_version) +
            " stream for (seed, round); refusing to resume");
    const std::int64_t section_round = with_section(
        checkpoint, [](const auto& section) { return section.round; });
    if (section_round != checkpoint.round)
        throw std::runtime_error(
            "checkpoint: header round " + std::to_string(checkpoint.round) +
            " does not match the engine state round " +
            std::to_string(section_round));
    if (checkpoint.engine == process_kind::cumulative &&
        checkpoint.cumulative.twin.round != checkpoint.round)
        throw std::runtime_error(
            "checkpoint: cumulative twin round " +
            std::to_string(checkpoint.cumulative.twin.round) +
            " does not match the engine round " +
            std::to_string(checkpoint.round));
    return checkpoint;
}

void write_checkpoint_file(const std::string& path,
                           const engine_checkpoint& checkpoint)
{
    // Temp + rename: the destination path always holds a complete old or
    // new snapshot, never a partial write — which is the whole point of
    // checkpointing against crashes.
    write_text_atomic(path, serialize_checkpoint(checkpoint), "checkpoint");
}

engine_checkpoint read_checkpoint_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("checkpoint: cannot read " + path);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (in.bad())
        throw std::runtime_error("checkpoint: read failed for " + path);
    try {
        return parse_checkpoint(bytes);
    } catch (const std::runtime_error& failure) {
        throw std::runtime_error(path + ": " + failure.what());
    }
}

// ---- engine save/restore ----------------------------------------------------
//
// The members live here rather than in the engine .cpps so every piece of
// the snapshot contract — what is captured, what is validated — reads in
// one place. diffusion_engine saves and restores the fields the continuous
// and discrete states share; the discrete engine adds its clipped tokens.
// Construction parameters (seed, rounding, policy, graph, alpha, speeds)
// are deliberately NOT part of engine state: the caller reconstructs the
// engine from its spec and restores only the evolving state, which is what
// lets measure_windows legally re-seed a restored engine.

template <class Load>
template <class State>
void diffusion_engine<Load>::save_state(State& out) const
{
    out.load.assign(load_.begin(), load_.end());
    out.previous_flows.assign(flows_.begin(), flows_.end());
    out.round = round_;
    out.scheme = {static_cast<std::int32_t>(config_.scheme.kind),
                  config_.scheme.beta, config_.scheme.lambda,
                  rounds_in_scheme_, beta_state_.omega()};
    out.initial_total = initial_total_;
    out.external_total = external_total_;
    out.negative = negative_;
}

template <class Load>
template <class State>
void diffusion_engine<Load>::restore_state(const State& state,
                                           const char* engine)
{
    const std::string name(engine);
    check_size(state.load.size(), load_.size(), name + " load vector");
    check_size(state.previous_flows.size(), flows_.size(),
               name + " previous-flows vector");
    const auto refuse = [&](const char* field, std::int64_t value,
                            const char* why) {
        throw std::invalid_argument("checkpoint: " + name + " " + field + " " +
                                    std::to_string(value) + why);
    };
    const checkpoint_scheme_state& saved = state.scheme;
    if (state.round < 0) refuse("round", state.round, " is negative");
    if (saved.kind < 0 || saved.kind > 2)
        refuse("scheme kind", saved.kind, " outside the known range 0..2");
    if (saved.rounds_in_scheme < 0)
        refuse("rounds_in_scheme", saved.rounds_in_scheme, " is negative");
    const scheme_params scheme{static_cast<scheme_kind>(saved.kind),
                               saved.beta, saved.lambda};
    validate_scheme(scheme);

    config_.scheme = scheme;
    std::copy(state.load.begin(), state.load.end(), load_.begin());
    std::copy(state.previous_flows.begin(), state.previous_flows.end(),
              flows_.begin());
    round_ = state.round;
    rounds_in_scheme_ = saved.rounds_in_scheme;
    beta_state_.restore(scheme, saved.rounds_in_scheme, saved.omega);
    initial_total_ = state.initial_total;
    external_total_ = state.external_total;
    negative_ = state.negative;
}

void continuous_process::save_checkpoint(continuous_engine_state& out) const
{
    save_state(out);
}

void continuous_process::restore_checkpoint(const continuous_engine_state& state)
{
    restore_state(state, "continuous");
}

void discrete_process::save_checkpoint(discrete_engine_state& out) const
{
    save_state(out);
    out.clipped_tokens = clipped_tokens_;
}

void discrete_process::restore_checkpoint(const discrete_engine_state& state)
{
    restore_state(state, "discrete");
    clipped_tokens_ = state.clipped_tokens;
}

void cumulative_process::save_checkpoint(cumulative_engine_state& out) const
{
    continuous_.save_checkpoint(out.twin);
    out.load.assign(load_.begin(), load_.end());
    out.cumulative_continuous.assign(cumulative_continuous_.begin(),
                                     cumulative_continuous_.end());
    out.cumulative_discrete.assign(cumulative_discrete_.begin(),
                                   cumulative_discrete_.end());
    out.round = round_;
    out.initial_total = initial_total_;
    out.external_total = external_total_;
    out.negative = negative_;
}

void cumulative_process::restore_checkpoint(const cumulative_engine_state& state)
{
    check_size(state.load.size(), load_.size(), "cumulative load vector");
    check_size(state.cumulative_continuous.size(),
               cumulative_continuous_.size(),
               "cumulative continuous counters");
    check_size(state.cumulative_discrete.size(), cumulative_discrete_.size(),
               "cumulative discrete counters");
    if (state.round < 0)
        throw std::invalid_argument("checkpoint: negative engine round");
    continuous_.restore_checkpoint(state.twin);

    std::copy(state.load.begin(), state.load.end(), load_.begin());
    std::copy(state.cumulative_continuous.begin(),
              state.cumulative_continuous.end(),
              cumulative_continuous_.begin());
    std::copy(state.cumulative_discrete.begin(),
              state.cumulative_discrete.end(), cumulative_discrete_.begin());
    round_ = state.round;
    initial_total_ = state.initial_total;
    external_total_ = state.external_total;
    negative_ = state.negative;
}

} // namespace dlb
