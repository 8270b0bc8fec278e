// The load balancing engines.
//
// `continuous_process` runs the idealized scheme C on double loads
// (arbitrarily divisible load, paper Section II). `discrete_process` runs
// the discrete version D = R(C) on int64 token counts: each round it asks
// the continuous rule for the scheduled flows Yhat(t) = C(x^D(t), y^D(t-1))
// and rounds them with the configured scheme (paper Definition 1).
//
// A discrete round is two node sweeps. The first evaluates every node's
// flow rule on its own half-edges into a buffer local to the node (or to
// its randomized block) and rounds the owner side (positive scheduled
// flow) from there with the rounding kernels of core/rounding.hpp, writing
// 0 on every other slot, and applies the prevent clip. The second applies
// flows[h] - flows[twin(h)], which is each half-edge's final flow because
// at most one side of an edge is nonzero. So the discrete engine holds 16
// bytes per half-edge (flows and previous flows) and 8 per node (load),
// plus 8 per node of load/speed under non-uniform speeds; the continuous
// engine holds the same in doubles. Each engine constructed records those
// bytes as one engine.state_bytes sample.
//
// Both engines track the negative-load instrumentation of Section V: the
// end-of-round minimum load and the *transient* minimum — the load after
// all outgoing flow has left a node but before any incoming flow arrives
// (the paper's x-breve).
#ifndef DLB_CORE_PROCESS_HPP
#define DLB_CORE_PROCESS_HPP

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "core/alpha.hpp"
#include "core/executor.hpp"
#include "core/rounding.hpp"
#include "core/scheme.hpp"
#include "core/scratch.hpp"
#include "core/speeds.hpp"
#include "graph/graph.hpp"

namespace dlb {

struct continuous_engine_state; // core/checkpoint.hpp
struct discrete_engine_state;   // core/checkpoint.hpp

/// Which engine executes a run. Values are the checkpoint wire encoding.
enum class process_kind : std::int32_t {
    discrete = 0,   // discrete_process with the configured rounding
    continuous = 1, // idealized double-precision process (paper "idealized")
    cumulative = 2, // the [2]-style cumulative baseline
};

std::string_view to_string(process_kind kind) noexcept;

/// Everything that defines the continuous process C on a network.
/// The graph must outlive any engine constructed from this config; copies
/// share the alpha weights.
struct diffusion_config {
    const graph* network = nullptr;
    alpha_weights alpha; // one value or shared per-half-edge, symmetric
    speed_profile speeds;
    scheme_params scheme;
};

/// Negative-load instrumentation (paper Section V).
struct negative_load_stats {
    double min_end_of_round_load = std::numeric_limits<double>::infinity();
    double min_transient_load = std::numeric_limits<double>::infinity();
    std::int64_t rounds_with_negative_end_load = 0;
    std::int64_t rounds_with_negative_transient = 0;

    /// Folds in one round's minimum end-of-round and transient loads,
    /// counting the round once for each that is negative.
    void observe(double min_end, double min_transient)
    {
        min_end_of_round_load = std::min(min_end_of_round_load, min_end);
        min_transient_load = std::min(min_transient_load, min_transient);
        if (min_end < 0.0) ++rounds_with_negative_end_load;
        if (min_transient < 0.0) ++rounds_with_negative_transient;
    }
};

/// One round's minimum end-of-round and transient loads over a chunk of
/// nodes: the partial of the engines' apply sweeps, which fuse the
/// negative-load scan into a parallel_reduce.
struct load_minima {
    double end_of_round = std::numeric_limits<double>::infinity();
    double transient = std::numeric_limits<double>::infinity();

    static load_minima combine(load_minima a, load_minima b)
    {
        return {std::min(a.end_of_round, b.end_of_round),
                std::min(a.transient, b.transient)};
    }
};

/// What to do when a node's scheduled outgoing flow exceeds its load.
enum class negative_load_policy {
    allow,   // paper semantics: loads may become negative
    prevent, // practical extension: clip outgoing tokens to available load
};

class continuous_process {
public:
    /// `initial_load` has one entry per node. Throws std::invalid_argument
    /// on config/shape errors. A non-null `scratch` lends the engine its
    /// working arrays (returned on destruction); results are byte-identical
    /// with or without it.
    continuous_process(diffusion_config config,
                       std::span<const double> initial_load,
                       executor* exec = nullptr,
                       engine_scratch* scratch = nullptr);
    ~continuous_process();

    continuous_process(const continuous_process&) = delete;
    continuous_process& operator=(const continuous_process&) = delete;

    /// Advances one synchronous round.
    void step();

    /// Runs `count` rounds.
    void run(std::int64_t count);

    std::int64_t round() const noexcept { return round_; }
    std::span<const double> load() const noexcept { return load_; }
    std::span<const double> previous_flows() const noexcept { return previous_flows_; }
    const diffusion_config& config() const noexcept { return config_; }

    /// Total load right now; differs from initial_total() + external_total()
    /// only by accumulated floating-point drift (paper Figure 6, right).
    double total_load() const;
    double initial_total() const noexcept { return initial_total_; }

    /// Applies an external per-node load change (dynamic workloads: token
    /// arrivals > 0, departures < 0). `delta` must have one entry per node.
    void inject(std::span<const std::int64_t> delta);

    /// Net externally injected load since construction.
    double external_total() const noexcept { return external_total_; }

    const negative_load_stats& negative_stats() const noexcept { return negative_; }

    /// Hybrid switching (paper Section VI-A): replaces the scheme from the
    /// next round on. Switching to SOS restarts its FOS warm-up round.
    void set_scheme(scheme_params scheme);

    /// Checkpoint support (core/checkpoint.hpp): capture / reinstate the
    /// evolving engine state. restore validates shapes and scheme and
    /// throws std::invalid_argument on mismatch; construction parameters
    /// (graph, alpha, speeds) are not part of the snapshot.
    void save_checkpoint(continuous_engine_state& out) const;
    void restore_checkpoint(const continuous_engine_state& state);

private:
    diffusion_config config_;
    executor* exec_;
    engine_scratch* scratch_;
    aligned_vector<double> load_;
    aligned_vector<double> load_over_speed_; // empty under uniform speeds
    aligned_vector<double> flows_;
    aligned_vector<double> previous_flows_;
    std::int64_t round_ = 0;
    std::int64_t rounds_in_scheme_ = 0;
    scheme_beta_state beta_state_; // O(1) per-round relaxation factor
    double initial_total_ = 0.0;
    double external_total_ = 0.0;
    negative_load_stats negative_;
};

class discrete_process {
public:
    /// A non-null `scratch` lends the engine its working arrays (returned
    /// on destruction); results are byte-identical with or without it.
    discrete_process(diffusion_config config,
                     std::span<const std::int64_t> initial_load,
                     rounding_kind rounding, std::uint64_t seed,
                     negative_load_policy policy = negative_load_policy::allow,
                     executor* exec = nullptr,
                     engine_scratch* scratch = nullptr);
    ~discrete_process();

    discrete_process(const discrete_process&) = delete;
    discrete_process& operator=(const discrete_process&) = delete;

    void step();
    void run(std::int64_t count);

    std::int64_t round() const noexcept { return round_; }
    std::span<const std::int64_t> load() const noexcept { return load_; }
    std::span<const std::int64_t> previous_flows() const noexcept
    {
        return previous_flows_int_;
    }
    const diffusion_config& config() const noexcept { return config_; }
    rounding_kind rounding() const noexcept { return rounding_; }
    std::uint64_t seed() const noexcept { return seed_; }

    /// Exact token conservation modulo external injection:
    /// total_load() == initial_total() + external_total() always
    /// (verified by verify_conservation()).
    std::int64_t total_load() const;
    std::int64_t initial_total() const noexcept { return initial_total_; }
    bool verify_conservation() const
    {
        return total_load() == initial_total_ + external_total_;
    }

    /// Applies an external per-node load change (dynamic workloads: token
    /// arrivals > 0, departures < 0). `delta` must have one entry per node.
    void inject(std::span<const std::int64_t> delta);

    /// Net externally injected tokens since construction.
    std::int64_t external_total() const noexcept { return external_total_; }

    const negative_load_stats& negative_stats() const noexcept { return negative_; }

    /// Tokens the prevent-policy refused to send (0 under allow).
    std::int64_t clipped_tokens() const noexcept { return clipped_tokens_; }

    void set_scheme(scheme_params scheme);

    /// From the next step on, copies each round's scheduled (continuous)
    /// flows Yhat, one per half-edge, into `out` with the round's bits;
    /// introspection for tests and benchmarks, off by default. `out` must
    /// stay alive while capturing and have one entry per half-edge; an
    /// empty span turns the capture off. Throws std::invalid_argument on
    /// any other size. The round itself neither reads nor depends on it.
    void capture_scheduled_flows(std::span<double> out);

    /// Checkpoint support (core/checkpoint.hpp): capture / reinstate the
    /// evolving engine state. restore validates shapes and scheme and
    /// throws std::invalid_argument on mismatch; seed, rounding and policy
    /// are construction parameters, not snapshot state.
    void save_checkpoint(discrete_engine_state& out) const;
    void restore_checkpoint(const discrete_engine_state& state);

private:
    diffusion_config config_;
    executor* exec_;
    engine_scratch* scratch_;
    rounding_kind rounding_;
    std::uint64_t seed_;
    negative_load_policy policy_;
    aligned_vector<std::int64_t> load_;
    aligned_vector<double> load_over_speed_; // empty under uniform speeds
    aligned_vector<std::int64_t> flows_;     // owner sides, 0 elsewhere
    aligned_vector<std::int64_t> previous_flows_int_;
    std::span<double> capture_; // capture_scheduled_flows; empty: off
    std::int64_t round_ = 0;
    std::int64_t rounds_in_scheme_ = 0;
    scheme_beta_state beta_state_; // O(1) per-round relaxation factor
    std::int64_t initial_total_ = 0;
    std::int64_t external_total_ = 0;
    std::int64_t clipped_tokens_ = 0;
    negative_load_stats negative_;
};

} // namespace dlb

#endif // DLB_CORE_PROCESS_HPP
