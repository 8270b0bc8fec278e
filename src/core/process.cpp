#include "core/process.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"

namespace dlb {

std::string_view to_string(process_kind kind) noexcept
{
    switch (kind) {
    case process_kind::discrete: return "discrete";
    case process_kind::continuous: return "continuous";
    case process_kind::cumulative: return "cumulative";
    }
    return "unknown";
}

namespace {

// Per-phase observability (obs/obs.hpp): spans and duration histograms for
// the sub-phases of a round (flows, rounding, apply), plus rounds/edges
// counters so traces and metrics report per-kernel throughput. Everything
// below is out-of-band — one relaxed load per phase when no session is
// active.
struct engine_obs {
    obs::histogram& flows_ns = obs::registry_histogram("engine.flows_ns");
    obs::histogram& rounding_ns = obs::registry_histogram("engine.rounding_ns");
    obs::histogram& apply_ns = obs::registry_histogram("engine.apply_ns");
    obs::counter& rounds = obs::registry_counter("engine.rounds");
    obs::counter& edges = obs::registry_counter("engine.canonical_edges");
};

engine_obs& engine_metrics()
{
    static engine_obs metrics;
    return metrics;
}

/// What sweep 1 of discrete_process::step reads and writes, shared by
/// every chunk.
struct round_inputs {
    const graph& g;
    const std::int64_t* load; // x^D(t)
    double beta;
    std::uint64_t seed;
    std::int64_t round;
    bool prevent; // negative_load_policy::prevent
    std::int64_t* flows; // y^D(t-1) in, the rounded owner flows out
    double* capture; // capture_scheduled_flows' array, or null
};

/// The prevent policy on one node's owner slots (nonnegative; 0 off the
/// owner side): when they send more than the node's (nonnegative part of
/// its) load, keep tokens in slot order until the load runs out. Returns
/// the tokens taken back.
[[gnu::always_inline]] inline std::int64_t
clip_owner_slots(std::int64_t* flows, half_edge_id begin, std::int32_t degree,
                 std::int64_t load)
{
    std::int64_t outgoing = 0;
    for (std::int32_t j = 0; j < degree; ++j) outgoing += flows[begin + j];
    const std::int64_t available = std::max<std::int64_t>(load, 0);
    if (outgoing <= available) return 0;
    std::int64_t remaining = available;
    for (std::int32_t j = 0; j < degree; ++j) {
        std::int64_t& flow = flows[begin + j];
        flow = std::min(flow, remaining);
        remaining -= flow;
    }
    return outgoing - available;
}

/// Sweep 1 of discrete_process::step over nodes [begin, end): every node
/// evaluates the flow rule on its own slice (node_flows), x being the load
/// itself (uniform speeds) or load/speed and alpha one value or one weight
/// per half-edge, into the row round_owner_nodes lends it (local to the
/// node or its randomized block): scheduled_flows' bits, copied out only
/// when captured. round_owner_nodes then rounds the node's owner slots
/// (scheduled > 0) into `flows`, 0 on every other slot (randomized a block
/// of nodes at a time), and under the prevent policy the node clips them.
/// `flows` holds y(t-1) on entry: a node reads only its own slots of it,
/// and only before it writes them, so the two share one array. Returns the
/// clipped tokens.
template <rounding_kind Kind, bool SecondOrder, class X, class Alpha>
[[gnu::noinline]] std::int64_t round_sweep(const round_inputs& in,
                                           const X* __restrict x, Alpha alpha,
                                           node_id begin, node_id end)
{
    // Locals, not `in` members: the scheduled stores could alias a double
    // member, which would reload beta on every half-edge.
    const graph& g = in.g;
    const double beta = in.beta;
    const std::uint64_t seed = in.seed;
    const std::int64_t round = in.round;
    const bool prevent = in.prevent;
    std::int64_t* const flows = in.flows;
    double* const capture = in.capture;
    std::int64_t clipped = 0;
    round_owner_nodes<Kind>(
        g, begin, end, flows, seed, round,
        [&](auto degree_tag, node_id u, half_edge_id first,
            std::int32_t dynamic_degree, double* row) {
            constexpr std::int32_t static_degree = decltype(degree_tag)::value;
            const std::int32_t degree =
                static_degree != 0 ? static_degree : dynamic_degree;
            node_flows<SecondOrder>(g, x, alpha, flows, beta, u, first,
                                    degree, row);
            if (capture != nullptr) std::copy_n(row, degree, capture + first);
            return row;
        },
        [&](node_id u, half_edge_id first, std::int32_t degree) {
            if (prevent) clipped += clip_owner_slots(flows, first, degree, in.load[u]);
        });
    return clipped;
}

/// Sweep 2 of discrete_process::step over nodes [begin, end): applies the
/// round in place and tracks the transient state x-breve (all sends out,
/// nothing received yet). Node v's slot h holds its owner value out >= 0
/// (0 off the owner side), which is its outgoing part, and v overwrites it
/// with y(t)[h] = out - max(slots[twin(h)], 0). At most one side of an
/// edge is nonzero, so max(slots[twin(h)], 0) is the twin's owner value b
/// whether or not the twin's node has been applied: before, the slot holds
/// b; after, it holds -out < 0 when out > 0, and b otherwise. The twin's
/// node may be applied on another worker at the same time, so the twin
/// reads, own reads and stores are relaxed atomics (plain moves on x86-64).
/// Out of line and on raw pointers, so the inner loop keeps every pointer
/// in a register: GCC reloads what it reaches through captures after each
/// atomic, and inlined into parallel_reduce's chunk loop this loop spilled.
[[gnu::noinline]] load_minima apply_sweep(const graph& g, std::int64_t* slots,
                                          std::int64_t* load, node_id begin,
                                          node_id end)
{
    const std::uint32_t* const offsets = g.offsets().data();
    const std::uint32_t* const twins = g.twins().data();
    load_minima local;
    for (node_id v = begin; v < end; ++v) {
        const half_edge_id last = offsets[v + 1];
        std::int64_t net_out = 0;
        std::int64_t positive_out = 0;
        for (half_edge_id h = offsets[v]; h < last; ++h) {
            const std::int64_t in = std::max<std::int64_t>(
                std::atomic_ref(slots[twins[h]]).load(std::memory_order_relaxed),
                0);
            std::atomic_ref slot(slots[h]);
            const std::int64_t out = slot.load(std::memory_order_relaxed);
            slot.store(out - in, std::memory_order_relaxed);
            net_out += out - in;
            positive_out += out;
        }
        local.transient =
            std::min(local.transient, static_cast<double>(load[v] - positive_out));
        load[v] -= net_out;
        local.end_of_round = std::min(local.end_of_round, static_cast<double>(load[v]));
    }
    return local;
}

void validate_config(const diffusion_config& config, std::size_t load_size)
{
    if (config.network == nullptr)
        throw std::invalid_argument("process: null network");
    const graph& g = *config.network;
    if (config.alpha.size() != static_cast<std::size_t>(g.num_half_edges()))
        throw std::invalid_argument("process: alpha size mismatch");
    // Both directions of an edge must share one weight: the flow kernels
    // evaluate each half-edge with its own alpha and rely on the two sides
    // being exact negations. One value always is.
    const auto weights = config.alpha.weights();
    for (half_edge_id h = 0; h < static_cast<half_edge_id>(weights.size()); ++h)
        if (weights[h] != weights[g.twin(h)])
            throw std::invalid_argument(
                "process: alpha is not symmetric at half-edge " +
                std::to_string(h));
    if (config.speeds.size() != g.num_nodes())
        throw std::invalid_argument("process: speeds size mismatch");
    if (load_size != static_cast<std::size_t>(g.num_nodes()))
        throw std::invalid_argument("process: initial load size mismatch");
    validate_scheme(config.scheme);
}

} // namespace

template <class Load>
diffusion_engine<Load>::diffusion_engine(
    diffusion_config config, std::size_t nodes,
    const std::function<void(std::span<Load>)>& fill, executor* exec,
    engine_scratch* scratch)
    : config_(std::move(config)),
      exec_(exec != nullptr ? exec : &default_executor()),
      scratch_(scratch)
{
    validate_config(config_, nodes);
    const auto half_edges =
        static_cast<std::size_t>(config_.network->num_half_edges());
    load_ = scratch_array<Load>(scratch_, nodes);
    fill(load_);
    if (!config_.speeds.is_uniform())
        load_over_speed_ = scratch_array<double>(scratch_, load_.size());
    flows_ = scratch_array<Load>(scratch_, half_edges);
    record_state_bytes(load_, load_over_speed_, flows_);
    beta_state_.reset(config_.scheme);
    initial_total_ = std::accumulate(load_.begin(), load_.end(), Load{0});
}

template <class Load>
diffusion_engine<Load>::~diffusion_engine()
{
    if (scratch_ == nullptr) return;
    scratch_->release(std::move(load_));
    scratch_->release(std::move(load_over_speed_));
    scratch_->release(std::move(flows_));
}

template <class Load>
void diffusion_engine<Load>::set_scheme(scheme_params scheme)
{
    validate_scheme(scheme);
    config_.scheme = scheme;
    rounds_in_scheme_ = 0;
    beta_state_.reset(scheme);
}

template <class Load>
Load diffusion_engine<Load>::total_load() const
{
    return std::accumulate(load_.begin(), load_.end(), Load{0});
}

template <class Load>
void diffusion_engine<Load>::inject(std::span<const std::int64_t> delta)
{
    if (delta.size() != load_.size())
        throw std::invalid_argument("inject: delta size mismatch");
    for (std::size_t v = 0; v < delta.size(); ++v) {
        load_[v] += static_cast<Load>(delta[v]);
        external_total_ += static_cast<Load>(delta[v]);
    }
}

template <class Load>
void diffusion_engine<Load>::divide_load_by_speeds()
{
    exec_->parallel_for(config_.network->num_nodes(),
                        [&](std::int64_t begin, std::int64_t end) {
        for (node_id v = static_cast<node_id>(begin); v < end; ++v)
            load_over_speed_[v] =
                static_cast<double>(load_[v]) / config_.speeds.speed(v);
    });
}

template <class Load>
void diffusion_engine<Load>::finish_round(load_minima minima)
{
    if (load_.empty()) minima = {0.0, 0.0}; // an empty network measures 0
    negative_.observe(minima.end_of_round, minima.transient);
    ++round_;
    ++rounds_in_scheme_;
}

template class diffusion_engine<double>;
template class diffusion_engine<std::int64_t>;

continuous_process::continuous_process(diffusion_config config,
                                       std::span<const double> initial_load,
                                       executor* exec, engine_scratch* scratch)
    : diffusion_engine(
          std::move(config), initial_load.size(),
          [initial_load](std::span<double> out) {
              std::copy(initial_load.begin(), initial_load.end(), out.begin());
          },
          exec, scratch)
{
}

continuous_process::continuous_process(diffusion_config config,
                                       const load_fill& initial_load,
                                       executor* exec, engine_scratch* scratch)
    : diffusion_engine(std::move(config), initial_load.nodes, initial_load.reals,
                       exec, scratch)
{
}

void continuous_process::step()
{
    const graph& g = *config_.network;
    engine_obs& em = engine_metrics();
    em.rounds.add(1);
    em.edges.add(g.num_half_edges() / 2);

    {
        obs::phase_scope phase("engine", "flows", &em.flows_ns);

        // x/s == x exactly for uniform speeds: the flow sweep then reads
        // the load itself.
        const bool uniform = config_.speeds.is_uniform();
        if (!uniform) divide_load_by_speeds();

        // In place: each node reads its own slots of y(t-1) before it
        // overwrites them with y(t).
        scheduled_flows(g, config_.alpha, config_.scheme, rounds_in_scheme_,
                        beta_state_.next(), uniform ? load_ : load_over_speed_,
                        flows_, flows_, *exec_);
    }

    // Apply flows; the negative-load min-scan is fused into the same sweep,
    // with per-chunk minima combined deterministically in chunk order.
    obs::phase_scope apply_phase("engine", "apply", &em.apply_ns);
    const load_minima minima = exec_->parallel_reduce(
        g.num_nodes(), load_minima{},
        [&](std::int64_t begin, std::int64_t end) {
            load_minima local;
            for (node_id v = static_cast<node_id>(begin); v < end; ++v) {
                double net_out = 0.0;
                double positive_out = 0.0;
                for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v);
                     ++h) {
                    const double f = flows_[h];
                    net_out += f;
                    if (f > 0.0) positive_out += f;
                }
                local.transient = std::min(local.transient, load_[v] - positive_out);
                load_[v] -= net_out;
                local.end_of_round = std::min(local.end_of_round, load_[v]);
            }
            return local;
        },
        load_minima::combine);
    finish_round(minima);
}

void continuous_process::run(std::int64_t count)
{
    for (std::int64_t i = 0; i < count; ++i) step();
}

discrete_process::discrete_process(diffusion_config config,
                                   std::span<const std::int64_t> initial_load,
                                   rounding_kind rounding, std::uint64_t seed,
                                   negative_load_policy policy, executor* exec,
                                   engine_scratch* scratch)
    : discrete_process(std::move(config), load_fill::copy_of(initial_load),
                       rounding, seed, policy, exec, scratch)
{
}

discrete_process::discrete_process(diffusion_config config,
                                   const load_fill& initial_load,
                                   rounding_kind rounding, std::uint64_t seed,
                                   negative_load_policy policy, executor* exec,
                                   engine_scratch* scratch)
    : diffusion_engine(std::move(config), initial_load.nodes,
                       initial_load.tokens, exec, scratch),
      rounding_(rounding),
      seed_(seed),
      policy_(policy)
{
}

void discrete_process::capture_scheduled_flows(std::span<double> out)
{
    if (!out.empty() &&
        out.size() != static_cast<std::size_t>(config_.network->num_half_edges()))
        throw std::invalid_argument("capture_scheduled_flows: size mismatch");
    capture_ = out;
}

void discrete_process::step()
{
    const graph& g = *config_.network;
    engine_obs& em = engine_metrics();
    em.rounds.add(1);
    em.edges.add(g.num_half_edges() / 2);
    count_rounded_half_edges(rounding_, g.num_half_edges());

    // x/s == x exactly for uniform speeds: the round sweep then reads the
    // load itself and no load/speed pass runs.
    const bool uniform = config_.speeds.is_uniform();
    if (!uniform) {
        obs::phase_scope phase("engine", "flows", &em.flows_ns);
        divide_load_by_speeds();
    }

    {
        obs::phase_scope phase("engine", "rounding", &em.rounding_ns);
        const round_inputs in{g,
                              load_.data(),
                              beta_state_.next(),
                              seed_,
                              round_,
                              policy_ == negative_load_policy::prevent,
                              flows_.data(),
                              capture_.empty() ? nullptr : capture_.data()};
        const bool second_order =
            config_.scheme.kind != scheme_kind::fos && rounds_in_scheme_ > 0;
        // Sweep 1: one chunk function per (kind, flow rule, load view,
        // alpha view), reducing the clipped tokens (0 under allow).
        clipped_tokens_ += with_rounding_kind(rounding_, [&](auto kind_tag) {
            constexpr rounding_kind kind = decltype(kind_tag)::value;
            return with_alpha_view(config_.alpha, [&](auto alpha) {
                const std::int64_t* x = load_.data();
                const double* x_over_s = load_over_speed_.data();
                return exec_->parallel_reduce(
                    g.num_nodes(), std::int64_t{0},
                    [&](std::int64_t begin, std::int64_t end) {
                        const auto b = static_cast<node_id>(begin);
                        const auto e = static_cast<node_id>(end);
                        if (second_order)
                            return uniform
                                       ? round_sweep<kind, true>(in, x, alpha, b, e)
                                       : round_sweep<kind, true>(in, x_over_s,
                                                                 alpha, b, e);
                        return uniform
                                   ? round_sweep<kind, false>(in, x, alpha, b, e)
                                   : round_sweep<kind, false>(in, x_over_s, alpha,
                                                              b, e);
                    },
                    [](std::int64_t acc, std::int64_t part) { return acc + part; });
            });
        });
    }

    // Sweep 2: apply in place (apply_sweep), with the negative-load
    // min-scan fused in.
    obs::phase_scope apply_phase("engine", "apply", &em.apply_ns);
    const load_minima minima = exec_->parallel_reduce(
        g.num_nodes(), load_minima{},
        [&](std::int64_t begin, std::int64_t end) {
            return apply_sweep(g, flows_.data(), load_.data(),
                               static_cast<node_id>(begin),
                               static_cast<node_id>(end));
        },
        load_minima::combine);
    finish_round(minima);
}

void discrete_process::run(std::int64_t count)
{
    for (std::int64_t i = 0; i < count; ++i) step();
}

} // namespace dlb
