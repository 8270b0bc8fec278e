#include "core/process.hpp"

#include <algorithm>
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
    const double* alpha;
    const std::int64_t* previous; // y^D(t-1)
    const std::int64_t* load;     // x^D(t)
    double beta;
    std::uint64_t seed;
    std::int64_t round;
    bool prevent; // negative_load_policy::prevent
    double* scheduled;
    std::int64_t* flows;
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
/// itself (uniform speeds) or load/speed, and stores it to `scheduled`:
/// scheduled_flows' bits. round_owner_nodes then rounds the node's owner
/// slots (scheduled > 0) into `flows`, 0 on every other slot (randomized
/// a block of nodes at a time), and under the prevent policy the node
/// clips them. Returns the clipped tokens.
template <rounding_kind Kind, bool SecondOrder, class X>
[[gnu::noinline]] std::int64_t round_sweep(const round_inputs& in,
                                           const X* __restrict x, node_id begin,
                                           node_id end)
{
    // Locals, not `in` members: the scheduled stores could alias a double
    // member, which would reload beta on every half-edge.
    const graph& g = in.g;
    const double* __restrict alpha = in.alpha;
    const std::int64_t* __restrict previous = in.previous;
    const double beta = in.beta;
    const std::uint64_t seed = in.seed;
    const std::int64_t round = in.round;
    const bool prevent = in.prevent;
    double* __restrict scheduled = in.scheduled;
    std::int64_t* __restrict flows = in.flows;
    std::int64_t clipped = 0;
    round_owner_nodes<Kind>(
        g, begin, end, scheduled, flows, seed, round,
        [&](auto degree_tag, node_id u, half_edge_id first,
            std::int32_t dynamic_degree) {
            constexpr std::int32_t static_degree = decltype(degree_tag)::value;
            node_flows<SecondOrder>(
                g, x, alpha, previous, beta, u, first,
                static_degree != 0 ? static_degree : dynamic_degree, scheduled);
        },
        [&](node_id u, half_edge_id first, std::int32_t degree) {
            if (prevent) clipped += clip_owner_slots(flows, first, degree, in.load[u]);
        });
    return clipped;
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
    // being exact negations.
    for (half_edge_id h = 0; h < g.num_half_edges(); ++h)
        if (config.alpha[h] != config.alpha[g.twin(h)])
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

continuous_process::continuous_process(diffusion_config config,
                                       std::span<const double> initial_load,
                                       executor* exec, engine_scratch* scratch)
    : config_(std::move(config)),
      exec_(exec != nullptr ? exec : &default_executor()),
      scratch_(scratch)
{
    validate_config(config_, initial_load.size());
    const auto half_edges =
        static_cast<std::size_t>(config_.network->num_half_edges());
    load_ = scratch_real(scratch_, initial_load.size());
    std::copy(initial_load.begin(), initial_load.end(), load_.begin());
    load_over_speed_ = scratch_real(scratch_, load_.size());
    flows_ = scratch_real(scratch_, half_edges);
    previous_flows_ = scratch_real(scratch_, half_edges);
    beta_state_.reset(config_.scheme);
    initial_total_ = std::accumulate(load_.begin(), load_.end(), 0.0);
}

continuous_process::~continuous_process()
{
    if (scratch_ == nullptr) return;
    scratch_->release(std::move(load_));
    scratch_->release(std::move(load_over_speed_));
    scratch_->release(std::move(flows_));
    scratch_->release(std::move(previous_flows_));
}

void continuous_process::set_scheme(scheme_params scheme)
{
    validate_scheme(scheme);
    config_.scheme = scheme;
    rounds_in_scheme_ = 0;
    beta_state_.reset(scheme);
}

double continuous_process::total_load() const
{
    return std::accumulate(load_.begin(), load_.end(), 0.0);
}

void continuous_process::inject(std::span<const std::int64_t> delta)
{
    if (delta.size() != load_.size())
        throw std::invalid_argument("inject: delta size mismatch");
    for (std::size_t v = 0; v < delta.size(); ++v) {
        load_[v] += static_cast<double>(delta[v]);
        external_total_ += static_cast<double>(delta[v]);
    }
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
        if (!uniform) {
            exec_->parallel_for(g.num_nodes(), [&](std::int64_t begin, std::int64_t end) {
                for (node_id v = static_cast<node_id>(begin); v < end; ++v)
                    load_over_speed_[v] = load_[v] / config_.speeds.speed(v);
            });
        }

        scheduled_flows(g, config_.alpha, config_.scheme, rounds_in_scheme_,
                        beta_state_.next(), uniform ? load_ : load_over_speed_,
                        previous_flows_, flows_, *exec_);
    }

    // Apply flows; the negative-load min-scan is fused into the same sweep,
    // with per-chunk minima combined deterministically in chunk order.
    obs::phase_scope apply_phase("engine", "apply", &em.apply_ns);
    load_minima minima = exec_->parallel_reduce(
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
    if (load_.empty()) minima = {0.0, 0.0}; // an empty network measures 0
    negative_.observe(minima.end_of_round, minima.transient);

    std::swap(previous_flows_, flows_);
    ++round_;
    ++rounds_in_scheme_;
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
    : config_(std::move(config)),
      exec_(exec != nullptr ? exec : &default_executor()),
      scratch_(scratch),
      rounding_(rounding),
      seed_(seed),
      policy_(policy)
{
    validate_config(config_, initial_load.size());
    const auto half_edges =
        static_cast<std::size_t>(config_.network->num_half_edges());
    load_ = scratch_int(scratch_, initial_load.size());
    std::copy(initial_load.begin(), initial_load.end(), load_.begin());
    load_over_speed_ = scratch_real(scratch_, load_.size());
    scheduled_ = scratch_real(scratch_, half_edges);
    flows_ = scratch_int(scratch_, half_edges);
    previous_flows_int_ = scratch_int(scratch_, half_edges);
    beta_state_.reset(config_.scheme);
    initial_total_ = std::accumulate(load_.begin(), load_.end(), std::int64_t{0});
}

discrete_process::~discrete_process()
{
    if (scratch_ == nullptr) return;
    scratch_->release(std::move(load_));
    scratch_->release(std::move(load_over_speed_));
    scratch_->release(std::move(scheduled_));
    scratch_->release(std::move(flows_));
    scratch_->release(std::move(previous_flows_int_));
}

void discrete_process::set_scheme(scheme_params scheme)
{
    validate_scheme(scheme);
    config_.scheme = scheme;
    rounds_in_scheme_ = 0;
    beta_state_.reset(scheme);
}

std::int64_t discrete_process::total_load() const
{
    return std::accumulate(load_.begin(), load_.end(), std::int64_t{0});
}

void discrete_process::inject(std::span<const std::int64_t> delta)
{
    if (delta.size() != load_.size())
        throw std::invalid_argument("inject: delta size mismatch");
    for (std::size_t v = 0; v < delta.size(); ++v) {
        load_[v] += delta[v];
        external_total_ += delta[v];
    }
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
        exec_->parallel_for(g.num_nodes(), [&](std::int64_t begin, std::int64_t end) {
            for (node_id v = static_cast<node_id>(begin); v < end; ++v)
                load_over_speed_[v] =
                    static_cast<double>(load_[v]) / config_.speeds.speed(v);
        });
    }

    {
        obs::phase_scope phase("engine", "rounding", &em.rounding_ns);
        const round_inputs in{g,
                              config_.alpha.data(),
                              previous_flows_int_.data(),
                              load_.data(),
                              beta_state_.next(),
                              seed_,
                              round_,
                              policy_ == negative_load_policy::prevent,
                              scheduled_.data(),
                              flows_.data()};
        const bool second_order =
            config_.scheme.kind != scheme_kind::fos && rounds_in_scheme_ > 0;
        // Sweep 1: one chunk function per (kind, flow rule, load view),
        // reducing the clipped tokens (0 under allow).
        clipped_tokens_ += with_rounding_kind(rounding_, [&](auto kind_tag) {
            constexpr rounding_kind kind = decltype(kind_tag)::value;
            const std::int64_t* x = load_.data();
            const double* x_over_s = load_over_speed_.data();
            return exec_->parallel_reduce(
                g.num_nodes(), std::int64_t{0},
                [&](std::int64_t begin, std::int64_t end) {
                    const auto b = static_cast<node_id>(begin);
                    const auto e = static_cast<node_id>(end);
                    if (second_order)
                        return uniform ? round_sweep<kind, true>(in, x, b, e)
                                       : round_sweep<kind, true>(in, x_over_s, b, e);
                    return uniform ? round_sweep<kind, false>(in, x, b, e)
                                   : round_sweep<kind, false>(in, x_over_s, b, e);
                },
                [](std::int64_t acc, std::int64_t part) { return acc + part; });
        });
    }

    // Sweep 2: apply, and track the transient state x-breve (all sends out,
    // nothing received yet). At most one side of an edge holds a nonzero
    // owner value, so flows_[h] - flows_[twin(h)] is every half-edge's
    // final flow with no sign test, and flows_[h] (never negative) is its
    // outgoing part. flows_ is read-only here, so the twin gathers race
    // with nothing; the result lands directly in previous_flows_int_, and
    // the negative-load min-scan is fused in as well.
    obs::phase_scope apply_phase("engine", "apply", &em.apply_ns);
    load_minima minima = exec_->parallel_reduce(
        g.num_nodes(), load_minima{},
        [&](std::int64_t begin, std::int64_t end) {
            load_minima local;
            for (node_id v = static_cast<node_id>(begin); v < end; ++v) {
                std::int64_t net_out = 0;
                std::int64_t positive_out = 0;
                for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v);
                     ++h) {
                    const std::int64_t f = flows_[h] - flows_[g.twin(h)];
                    previous_flows_int_[h] = f;
                    net_out += f;
                    positive_out += flows_[h];
                }
                local.transient = std::min(
                    local.transient, static_cast<double>(load_[v] - positive_out));
                load_[v] -= net_out;
                local.end_of_round = std::min(local.end_of_round,
                                              static_cast<double>(load_[v]));
            }
            return local;
        },
        load_minima::combine);
    if (load_.empty()) minima = {0.0, 0.0}; // an empty network measures 0
    negative_.observe(minima.end_of_round, minima.transient);

    ++round_;
    ++rounds_in_scheme_;
}

void discrete_process::run(std::int64_t count)
{
    for (std::int64_t i = 0; i < count; ++i) step();
}

} // namespace dlb
