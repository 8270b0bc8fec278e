#include "core/cumulative_baseline.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace dlb {

namespace {

std::vector<double> to_double(std::span<const std::int64_t> values)
{
    return {values.begin(), values.end()};
}

} // namespace

cumulative_process::cumulative_process(diffusion_config config,
                                       std::span<const std::int64_t> initial_load,
                                       executor* exec, engine_scratch* scratch)
    : continuous_(std::move(config), to_double(initial_load), exec, scratch),
      network_(continuous_.config().network),
      exec_(exec != nullptr ? exec : &default_executor()),
      scratch_(scratch)
{
    const auto half_edges = static_cast<std::size_t>(network_->num_half_edges());
    load_ = scratch_int(scratch_, initial_load.size());
    std::copy(initial_load.begin(), initial_load.end(), load_.begin());
    cumulative_continuous_ = scratch_real(scratch_, half_edges);
    cumulative_discrete_ = scratch_int(scratch_, half_edges);
    record_state_bytes(load_, cumulative_continuous_, cumulative_discrete_);
    initial_total_ = std::accumulate(load_.begin(), load_.end(), std::int64_t{0});
}

cumulative_process::~cumulative_process()
{
    if (scratch_ == nullptr) return;
    scratch_->release(std::move(load_));
    scratch_->release(std::move(cumulative_continuous_));
    scratch_->release(std::move(cumulative_discrete_));
}

void cumulative_process::set_scheme(scheme_params scheme)
{
    continuous_.set_scheme(scheme);
}

std::int64_t cumulative_process::total_load() const
{
    return std::accumulate(load_.begin(), load_.end(), std::int64_t{0});
}

void cumulative_process::inject(std::span<const std::int64_t> delta)
{
    if (delta.size() != load_.size())
        throw std::invalid_argument("inject: delta size mismatch");
    continuous_.inject(delta);
    for (std::size_t v = 0; v < delta.size(); ++v) {
        load_[v] += delta[v];
        external_total_ += delta[v];
    }
}

double cumulative_process::max_cumulative_error() const
{
    double best = 0.0;
    for (std::size_t h = 0; h < cumulative_continuous_.size(); ++h)
        best = std::max(best,
                        std::abs(cumulative_continuous_[h] -
                                 static_cast<double>(cumulative_discrete_[h])));
    return best;
}

void cumulative_process::step()
{
    const graph& g = *network_;

    // Advance the internal continuous process; its previous_flows() then
    // holds the continuous flows y^C(t) of the round just performed.
    continuous_.step();
    const double* continuous_flows = continuous_.previous_flows().data();

    // One node sweep: each half-edge of a node adds its continuous flow to
    // its cumulative counter, and its discrete flow keeps the discrete
    // cumulative counter as close as possible to it, y^D = round(cumC) -
    // cumD. Both counters stay antisymmetric — the continuous flows are
    // exact negations and llround is odd — so both sides of an edge agree
    // without reading each other, and each node writes only its own slice.
    load_minima minima = exec_->parallel_reduce(
        g.num_nodes(), load_minima{},
        [&](std::int64_t begin, std::int64_t end) {
            load_minima local;
            for (node_id v = static_cast<node_id>(begin); v < end; ++v) {
                std::int64_t net_out = 0;
                std::int64_t positive_out = 0;
                for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v);
                     ++h) {
                    cumulative_continuous_[h] += continuous_flows[h];
                    const std::int64_t rounded =
                        std::llround(cumulative_continuous_[h]);
                    const std::int64_t flow = rounded - cumulative_discrete_[h];
                    cumulative_discrete_[h] = rounded;
                    net_out += flow;
                    positive_out += std::max<std::int64_t>(flow, 0);
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
}

void cumulative_process::run(std::int64_t count)
{
    for (std::int64_t i = 0; i < count; ++i) step();
}

} // namespace dlb
