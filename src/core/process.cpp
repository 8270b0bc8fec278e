#include "core/process.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

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
// the three sub-phases of a round, plus rounds/edges counters so traces
// and metrics report per-kernel throughput. Everything below is
// out-of-band — one relaxed load per phase when no session is active.
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

/// Chunk-local minima of the fused apply+scan sweep.
struct load_minima {
    double end_of_round = std::numeric_limits<double>::infinity();
    double transient = std::numeric_limits<double>::infinity();
};

load_minima combine_minima(load_minima a, load_minima b)
{
    return {std::min(a.end_of_round, b.end_of_round),
            std::min(a.transient, b.transient)};
}

void validate_config(const diffusion_config& config, std::size_t load_size)
{
    if (config.network == nullptr)
        throw std::invalid_argument("process: null network");
    if (config.alpha.size() !=
        static_cast<std::size_t>(config.network->num_half_edges()))
        throw std::invalid_argument("process: alpha size mismatch");
    if (config.speeds.size() != config.network->num_nodes())
        throw std::invalid_argument("process: speeds size mismatch");
    if (load_size != static_cast<std::size_t>(config.network->num_nodes()))
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

        if (config_.speeds.is_uniform()) {
            std::copy(load_.begin(), load_.end(), load_over_speed_.begin());
        } else {
            exec_->parallel_for(g.num_nodes(), [&](std::int64_t begin, std::int64_t end) {
                for (node_id v = static_cast<node_id>(begin); v < end; ++v)
                    load_over_speed_[v] = load_[v] / config_.speeds.speed(v);
            });
        }

        scheduled_flows(g, config_.alpha, config_.scheme, rounds_in_scheme_,
                        beta_state_.next(), load_over_speed_, previous_flows_,
                        flows_, *exec_);
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
        combine_minima);

    const double min_end = load_.empty() ? 0.0 : minima.end_of_round;
    const double min_transient = load_.empty() ? 0.0 : minima.transient;
    negative_.min_end_of_round_load =
        std::min(negative_.min_end_of_round_load, min_end);
    negative_.min_transient_load =
        std::min(negative_.min_transient_load, min_transient);
    if (min_end < 0.0) ++negative_.rounds_with_negative_end_load;
    if (min_transient < 0.0) ++negative_.rounds_with_negative_transient;

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

    {
        obs::phase_scope phase("engine", "flows", &em.flows_ns);

        // x/s == x exactly for uniform speeds; skip the division.
        if (config_.speeds.is_uniform()) {
            exec_->parallel_for(g.num_nodes(), [&](std::int64_t begin, std::int64_t end) {
                for (node_id v = static_cast<node_id>(begin); v < end; ++v)
                    load_over_speed_[v] = static_cast<double>(load_[v]);
            });
        } else {
            exec_->parallel_for(g.num_nodes(), [&](std::int64_t begin, std::int64_t end) {
                for (node_id v = static_cast<node_id>(begin); v < end; ++v)
                    load_over_speed_[v] =
                        static_cast<double>(load_[v]) / config_.speeds.speed(v);
            });
        }

        // Yhat(t) = C(x^D(t), y^D(t-1))  — the continuous scheduled load. The
        // integer overload casts previous flows in place (exact), so no double
        // copy of the flow state is ever materialized.
        scheduled_flows(g, config_.alpha, config_.scheme, rounds_in_scheme_,
                        beta_state_.next(), load_over_speed_,
                        std::span<const std::int64_t>(previous_flows_int_),
                        scheduled_, *exec_);
    }

    {
        obs::phase_scope phase("engine", "rounding", &em.rounding_ns);

        // Randomized rounding runs the owner pass alone — the mirror is folded
        // into the apply sweep below, which derives every incoming flow from
        // its owner; the other roundings mirror inside round_flows (floor and
        // nearest in the same fused sweep) and the apply derivation is then a
        // no-op re-read of the mirrored value.
        if (rounding_ == rounding_kind::randomized)
            round_flows_randomized_owner(g, scheduled_, seed_, round_, flows_,
                                         *exec_);
        else
            round_flows(g, rounding_, scheduled_, seed_, round_, flows_, *exec_);
    }

    obs::phase_scope apply_phase("engine", "apply", &em.apply_ns);
    if (policy_ == negative_load_policy::prevent) {
        // Detect and clip over-committed nodes in parallel: each node owns
        // its outgoing (positive-scheduled) half-edges, so the clip writes
        // are disjoint, and the apply sweep below re-derives every incoming
        // flow from its (possibly clipped) owner — no antisymmetry-repair
        // rescan is needed at all.
        const std::int64_t clipped = exec_->parallel_reduce(
            static_cast<std::int64_t>(g.num_nodes()), std::int64_t{0},
            [&](std::int64_t begin, std::int64_t end) {
                std::int64_t tokens = 0;
                for (node_id v = static_cast<node_id>(begin); v < end; ++v) {
                    std::int64_t positive_out = 0;
                    for (half_edge_id h = g.half_edge_begin(v);
                         h < g.half_edge_end(v); ++h)
                        if (flows_[h] > 0) positive_out += flows_[h];
                    const std::int64_t available =
                        std::max<std::int64_t>(load_[v], 0);
                    if (positive_out <= available) continue;
                    std::int64_t remaining = available;
                    for (half_edge_id h = g.half_edge_begin(v);
                         h < g.half_edge_end(v); ++h) {
                        if (flows_[h] <= 0) continue;
                        const std::int64_t keep = std::min(flows_[h], remaining);
                        tokens += flows_[h] - keep;
                        flows_[h] = keep;
                        remaining -= keep;
                    }
                }
                return tokens;
            },
            [](std::int64_t acc, std::int64_t part) { return acc + part; });
        clipped_tokens_ += clipped;
    }

    // Apply; track the transient state x-breve (all sends out, nothing
    // received yet). Each half-edge's final flow is its owner's value —
    // negated on the incoming side — which folds the mirror into the sweep
    // (flows_ is read-only here, so the twin gathers race with nothing);
    // the per-round result lands directly in previous_flows_int_, and the
    // negative-load min-scan is fused in as well.
    const load_minima minima = exec_->parallel_reduce(
        g.num_nodes(), load_minima{},
        [&](std::int64_t begin, std::int64_t end) {
            load_minima local;
            for (node_id v = static_cast<node_id>(begin); v < end; ++v) {
                std::int64_t net_out = 0;
                std::int64_t positive_out = 0;
                for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v);
                     ++h) {
                    const std::int64_t f = scheduled_[h] < 0.0
                                               ? -flows_[g.twin(h)]
                                               : flows_[h];
                    previous_flows_int_[h] = f;
                    net_out += f;
                    if (f > 0) positive_out += f;
                }
                local.transient = std::min(
                    local.transient, static_cast<double>(load_[v] - positive_out));
                load_[v] -= net_out;
                local.end_of_round = std::min(local.end_of_round,
                                              static_cast<double>(load_[v]));
            }
            return local;
        },
        combine_minima);

    const double min_end = load_.empty() ? 0.0 : minima.end_of_round;
    const double min_transient = load_.empty() ? 0.0 : minima.transient;
    negative_.min_end_of_round_load =
        std::min(negative_.min_end_of_round_load, min_end);
    negative_.min_transient_load =
        std::min(negative_.min_transient_load, min_transient);
    if (min_end < 0.0) ++negative_.rounds_with_negative_end_load;
    if (min_transient < 0.0) ++negative_.rounds_with_negative_transient;

    ++round_;
    ++rounds_in_scheme_;
}

void discrete_process::run(std::int64_t count)
{
    for (std::int64_t i = 0; i < count; ++i) step();
}

} // namespace dlb
