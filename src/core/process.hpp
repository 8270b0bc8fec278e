// The load balancing engines.
//
// `continuous_process` runs the idealized scheme C on double loads
// (arbitrarily divisible load, paper Section II). `discrete_process` runs
// the discrete version D = R(C) on int64 token counts: each round it asks
// the continuous rule for the scheduled flows Yhat(t) = C(x^D(t), y^D(t-1))
// and rounds them with the configured scheme (paper Definition 1).
//
// D evaluates C's rule on the same state x(t), y(t - 1), so both engines
// derive from one core, `diffusion_engine<Load>`. It holds that state (the
// config, executor and scratch pool, the load, load/speed under non-uniform
// speeds, one flow array holding y(t - 1) between rounds, the round and
// scheme counters, the totals and the negative-load stats) and does all
// that happens to it outside a round. Each engine adds its constructor
// parameters and its round. continuous_process evaluates scheduled_flows
// over the flow array in place and applies it. discrete_process adds the
// rounding kind, seed, negative-load policy, clipped tokens and an opt-in
// capture of Yhat; its round is two node sweeps. The first evaluates every
// node's flow rule on its own half-edges, reading its own slots of
// y(t - 1), into a buffer local to the node (or to its randomized block),
// rounds the owner side (positive scheduled flow) from there with the
// rounding kernels of core/rounding.hpp into those same slots, writing 0 on
// every other slot, and applies the prevent clip. The second overwrites
// each slot with out - max(slot[twin(h)], 0), which is each half-edge's
// final flow y(t) whether or not the twin's node has been applied, because
// at most one side of an edge is nonzero and owner values are never
// negative. Either engine holds 8 bytes per half-edge (flows) and 8 per
// node (load), plus 8 per node of load/speed under non-uniform speeds, and
// records those bytes as one engine.state_bytes sample.
//
// An engine writes its initial load into the load array it has just
// acquired: a copy of a caller's span, or a `load_fill` that generates the
// counts in place (a campaign load pattern, campaign/registry.hpp), so a
// run holds no per-node load besides its engines'.
//
// Both engines track the negative-load instrumentation of Section V: the
// end-of-round minimum load and the *transient* minimum — the load after
// all outgoing flow has left a node but before any incoming flow arrives
// (the paper's x-breve).
#ifndef DLB_CORE_PROCESS_HPP
#define DLB_CORE_PROCESS_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
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

/// A run's initial load as the engines take it: `nodes` token counts, which
/// each engine writes into the load array it has just acquired. `tokens`
/// writes them into an int64 array; `reals` writes the same counts cast to
/// double (the continuous engine's array, a continuous twin's), the bits
/// to_continuous gives. Both come from one writer callable with either
/// span, which must write every entry.
struct load_fill {
    template <class Write>
    load_fill(std::size_t nodes, const Write& write)
        : nodes(nodes), tokens(write), reals(write)
    {
    }

    /// Copies `values`, which must outlive every engine built from it.
    static load_fill copy_of(std::span<const std::int64_t> values)
    {
        return {values.size(), [values](auto out) {
                    std::copy(values.begin(), values.end(), out.begin());
                }};
    }

    std::size_t nodes;
    std::function<void(std::span<std::int64_t>)> tokens;
    std::function<void(std::span<double>)> reals;
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

/// The state the continuous process C and its discrete version D = R(C)
/// share, with `Load` = double (C) or std::int64_t (D), and everything done
/// with it outside a round. Instantiated for those two types only
/// (process.cpp); continuous_process and discrete_process add their
/// rounds.
template <class Load>
class diffusion_engine {
public:
    diffusion_engine(const diffusion_engine&) = delete;
    diffusion_engine& operator=(const diffusion_engine&) = delete;

    std::int64_t round() const noexcept { return round_; }
    std::span<const Load> load() const noexcept { return load_; }
    std::span<const Load> previous_flows() const noexcept { return flows_; }
    const diffusion_config& config() const noexcept { return config_; }

    /// Total load right now. In tokens it always equals initial_total() +
    /// external_total(); in doubles it differs from that only by
    /// accumulated floating-point drift (paper Figure 6, right).
    Load total_load() const;
    Load initial_total() const noexcept { return initial_total_; }

    /// Applies an external per-node load change (dynamic workloads: token
    /// arrivals > 0, departures < 0). `delta` must have one entry per node.
    void inject(std::span<const std::int64_t> delta);

    /// Net externally injected load since construction.
    Load external_total() const noexcept { return external_total_; }

    const negative_load_stats& negative_stats() const noexcept { return negative_; }

    /// Hybrid switching (paper Section VI-A): replaces the scheme from the
    /// next round on. Switching to SOS restarts its FOS warm-up round.
    void set_scheme(scheme_params scheme);

protected:
    /// Acquires the engine's arrays and has `fill` write the `nodes` entries
    /// of its load array, which must be one per node. Throws
    /// std::invalid_argument on config/shape errors. A non-null `scratch`
    /// lends the engine its working arrays (returned on destruction);
    /// results are byte-identical with or without it.
    diffusion_engine(diffusion_config config, std::size_t nodes,
                     const std::function<void(std::span<Load>)>& fill,
                     executor* exec, engine_scratch* scratch);
    ~diffusion_engine();

    /// Writes load/speed into load_over_speed_ (non-uniform speeds only).
    void divide_load_by_speeds();

    /// Closes a round whose apply sweep found `minima`: folds them into the
    /// negative-load stats (an empty network measures 0) and advances both
    /// round counters.
    void finish_round(load_minima minima);

    /// Checkpoint support (defined in checkpoint.cpp): the snapshot fields
    /// both engines' states share, the evolving state. restore_state
    /// validates them all, throwing std::invalid_argument naming `engine`
    /// and the field, before it changes anything. Construction parameters
    /// (graph, alpha, speeds) are not part of the snapshot.
    template <class State>
    void save_state(State& out) const;
    template <class State>
    void restore_state(const State& state, const char* engine);

    diffusion_config config_;
    executor* exec_;
    engine_scratch* scratch_;
    aligned_vector<Load> load_;
    aligned_vector<double> load_over_speed_; // empty under uniform speeds
    aligned_vector<Load> flows_; // y(t - 1); step() overwrites it with y(t)
    std::int64_t round_ = 0;
    std::int64_t rounds_in_scheme_ = 0;
    scheme_beta_state beta_state_; // O(1) per-round relaxation factor
    Load initial_total_ = 0;
    Load external_total_ = 0;
    negative_load_stats negative_;
};

class continuous_process : public diffusion_engine<double> {
public:
    continuous_process(diffusion_config config,
                       std::span<const double> initial_load,
                       executor* exec = nullptr,
                       engine_scratch* scratch = nullptr);
    continuous_process(diffusion_config config, const load_fill& initial_load,
                       executor* exec = nullptr,
                       engine_scratch* scratch = nullptr);

    /// Advances one synchronous round.
    void step();

    /// Runs `count` rounds.
    void run(std::int64_t count);

    /// Checkpoint support (core/checkpoint.hpp): save_state/restore_state.
    void save_checkpoint(continuous_engine_state& out) const;
    void restore_checkpoint(const continuous_engine_state& state);
};

class discrete_process : public diffusion_engine<std::int64_t> {
public:
    discrete_process(diffusion_config config,
                     std::span<const std::int64_t> initial_load,
                     rounding_kind rounding, std::uint64_t seed,
                     negative_load_policy policy = negative_load_policy::allow,
                     executor* exec = nullptr,
                     engine_scratch* scratch = nullptr);
    discrete_process(diffusion_config config, const load_fill& initial_load,
                     rounding_kind rounding, std::uint64_t seed,
                     negative_load_policy policy = negative_load_policy::allow,
                     executor* exec = nullptr,
                     engine_scratch* scratch = nullptr);

    void step();
    void run(std::int64_t count);

    rounding_kind rounding() const noexcept { return rounding_; }
    std::uint64_t seed() const noexcept { return seed_; }

    /// Exact token conservation modulo external injection.
    bool verify_conservation() const
    {
        return total_load() == initial_total_ + external_total_;
    }

    /// Tokens the prevent-policy refused to send (0 under allow).
    std::int64_t clipped_tokens() const noexcept { return clipped_tokens_; }

    /// From the next step on, copies each round's scheduled (continuous)
    /// flows Yhat, one per half-edge, into `out` with the round's bits;
    /// introspection for tests and benchmarks, off by default. `out` must
    /// stay alive while capturing and have one entry per half-edge; an
    /// empty span turns the capture off. Throws std::invalid_argument on
    /// any other size. The round itself neither reads nor depends on it.
    void capture_scheduled_flows(std::span<double> out);

    /// Checkpoint support (core/checkpoint.hpp): save_state/restore_state
    /// plus the clipped tokens; seed, rounding and policy are construction
    /// parameters, not snapshot state.
    void save_checkpoint(discrete_engine_state& out) const;
    void restore_checkpoint(const discrete_engine_state& state);

private:
    // flows_ holds y(t - 1) between rounds; between step()'s sweeps, this
    // round's rounded owner sides and 0 elsewhere.
    rounding_kind rounding_;
    std::uint64_t seed_;
    negative_load_policy policy_;
    std::span<double> capture_; // capture_scheduled_flows; empty: off
    std::int64_t clipped_tokens_ = 0;
};

} // namespace dlb

#endif // DLB_CORE_PROCESS_HPP
