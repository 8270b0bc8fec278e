// The quality metrics of the paper's Section VI.
//
//  (1) max local load difference  phi_local = max_{(u,v) in E} |x_u - x_v|
//  (2) maximum load               phi_global = max_v x_v - x_bar
//  (3) potential                  phi_t = sum_v (x_v - x_bar_v)^2
//  (4) eigenvector impact         (see sim/eigen_impact.hpp)
//  (5) remaining imbalance        plateau detection via imbalance_tracker
//
// Heterogeneous variants take the ideal vector x_bar_i = m s_i / s.
#ifndef DLB_CORE_METRICS_HPP
#define DLB_CORE_METRICS_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <span>
#include <vector>

#include "core/executor.hpp"
#include "graph/graph.hpp"

namespace dlb {

/// max_v x_v - (sum_v x_v)/n   — the paper's "maximum load" metric.
template <class Load>
double max_minus_average(std::span<const Load> load)
{
    if (load.empty()) return 0.0;
    double sum = 0.0;
    double max_value = static_cast<double>(load.front());
    for (const Load value : load) {
        sum += static_cast<double>(value);
        max_value = std::max(max_value, static_cast<double>(value));
    }
    return max_value - sum / static_cast<double>(load.size());
}

/// max_v (x_v - ideal_v) for heterogeneous networks.
template <class Load>
double max_minus_ideal(std::span<const Load> load, std::span<const double> ideal)
{
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t v = 0; v < load.size(); ++v)
        best = std::max(best, static_cast<double>(load[v]) - ideal[v]);
    return best;
}

/// max_v (x_v - min_{u in N(v)} x_u) over nodes [begin, end), the
/// minimum in the load's own type and the difference in double; 0.0 when
/// no node in the range has a neighbour. Two running minima (slot 0 and
/// the odd slots, the last slot and the even ones) halve the compare
/// chain; min is exact in any order. Out of line, so the loop is compiled
/// standalone per load type.
template <class Load>
[[gnu::noinline]] double neighbour_difference_max(const graph& g,
                                                  const Load* load,
                                                  node_id begin, node_id end)
{
    double best = 0.0;
    for_each_node_slice(
        g, begin, end,
        [&](auto, node_id v, half_edge_id first, std::int32_t degree) {
            if (degree == 0) return;
            Load low = load[g.head(first)];
            Load high = load[g.head(first + degree - 1)];
            for (std::int32_t j = 1; j + 1 < degree; j += 2) {
                low = std::min(low, load[g.head(first + j)]);
                high = std::min(high, load[g.head(first + j + 1)]);
            }
            best = std::max(best, static_cast<double>(load[v]) -
                                      static_cast<double>(std::min(low, high)));
        });
    return best;
}

/// max_{(u,v) in E} |x_u - x_v|, as a node max-reduce on `exec` of
/// neighbour_difference_max. That is bitwise the maximum of |x_u - x_v|
/// over every half-edge: the conversion to double and the subtraction are
/// both monotone, so each node's largest difference is the one against its
/// smallest neighbour; each edge is seen from both ends, and
/// fl(b - a) == -fl(a - b); and the running max starts at +0.0, so a -0.0
/// difference never wins. Max is exact in any order, so the value does not
/// depend on the executor either.
template <class Load>
double max_local_difference(const graph& g, std::span<const Load> load,
                            executor& exec = default_executor())
{
    return exec.parallel_reduce(
        g.num_nodes(), 0.0,
        [&](std::int64_t begin, std::int64_t end) {
            return neighbour_difference_max(g, load.data(),
                                            static_cast<node_id>(begin),
                                            static_cast<node_id>(end));
        },
        [](double a, double b) { return std::max(a, b); });
}

/// Speed-normalized local difference max |x_u/s_u - x_v/s_v| (heterogeneous).
template <class Load>
double max_local_difference_normalized(const graph& g, std::span<const Load> load,
                                       std::span<const double> speeds)
{
    double best = 0.0;
    for (node_id v = 0; v < g.num_nodes(); ++v)
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h) {
            const node_id u = g.head(h);
            const double diff = static_cast<double>(load[v]) / speeds[v] -
                                static_cast<double>(load[u]) / speeds[u];
            best = std::max(best, std::fabs(diff));
        }
    return best;
}

/// Muthukrishnan-et-al. potential: sum_v (x_v - ideal_v)^2.
template <class Load>
double potential(std::span<const Load> load, std::span<const double> ideal)
{
    double acc = 0.0;
    for (std::size_t v = 0; v < load.size(); ++v) {
        const double diff = static_cast<double>(load[v]) - ideal[v];
        acc += diff * diff;
    }
    return acc;
}

/// Homogeneous potential against the flat average.
template <class Load>
double potential_homogeneous(std::span<const Load> load)
{
    if (load.empty()) return 0.0;
    double sum = 0.0;
    for (const Load value : load) sum += static_cast<double>(value);
    const double average = sum / static_cast<double>(load.size());
    double acc = 0.0;
    for (const Load value : load) {
        const double diff = static_cast<double>(value) - average;
        acc += diff * diff;
    }
    return acc;
}

template <class Load>
double min_load(std::span<const Load> load)
{
    double best = load.empty() ? 0.0 : static_cast<double>(load.front());
    for (const Load value : load)
        best = std::min(best, static_cast<double>(value));
    return best;
}

/// max_v |x_v - y_v|: the deviation between two processes (Theorems 3/8/9).
template <class A, class B>
double max_deviation(std::span<const A> x, std::span<const B> y)
{
    double best = 0.0;
    for (std::size_t v = 0; v < x.size(); ++v) {
        const double diff = static_cast<double>(x[v]) - static_cast<double>(y[v]);
        best = std::max(best, std::fabs(diff));
    }
    return best;
}

/// Delta(t) = ||x - ideal||_inf (paper Section V).
template <class Load>
double delta_infinity(std::span<const Load> load, std::span<const double> ideal)
{
    double best = 0.0;
    for (std::size_t v = 0; v < load.size(); ++v) {
        const double diff = static_cast<double>(load[v]) - ideal[v];
        best = std::max(best, std::fabs(diff));
    }
    return best;
}

/// One round's measurement, as the runner reads it.
struct round_measurement {
    double global = 0.0;    // max_v x_v - sum_v x_v / n
    double local = 0.0;     // max local difference; NaN when not requested
    double potential = 0.0; // sum_v (x_v - ideal_v)^2; 0 when no ideal given
    double min = 0.0;       // min_v x_v
    double sum = 0.0;       // sum_v x_v
};

/// Every per-round metric of `load` in one serial pass in ascending node
/// order: the sum, max and min always, the potential only against a
/// non-empty `ideal`, and the local difference (max_local_difference on
/// `exec`) only when `with_local` is set. Each sum runs in the order of the
/// single-metric functions above, so every value is bit-identical to
/// theirs. An empty load measures all zeros.
template <class Load>
round_measurement measure_round(const graph& g, std::span<const Load> load,
                                std::span<const double> ideal, bool with_local,
                                executor& exec)
{
    round_measurement out;
    out.local = with_local ? max_local_difference(g, load, exec)
                           : std::numeric_limits<double>::quiet_NaN();
    if (load.empty()) return out;
    double max_value = static_cast<double>(load.front());
    double min_value = max_value;
    double sum = 0.0;
    if (ideal.empty()) {
        for (const Load value : load) {
            const double x = static_cast<double>(value);
            sum += x;
            max_value = std::max(max_value, x);
            min_value = std::min(min_value, x);
        }
    } else {
        double acc = 0.0;
        for (std::size_t v = 0; v < load.size(); ++v) {
            const double x = static_cast<double>(load[v]);
            sum += x;
            max_value = std::max(max_value, x);
            min_value = std::min(min_value, x);
            const double diff = x - ideal[v];
            acc += diff * diff;
        }
        out.potential = acc;
    }
    out.global = max_value - sum / static_cast<double>(load.size());
    out.min = min_value;
    out.sum = sum;
    return out;
}

/// The rows a run has recorded so far (one entry per recorded round in
/// every column), its hybrid switch round and its workload token totals:
/// the part of a run's output that a checkpoint carries. sim/recorder.hpp's
/// time_series extends it with the end-of-run results.
struct recorded_series {
    std::vector<std::int64_t> rounds;
    std::vector<double> max_minus_average;    // phi_global = Delta(t)
    std::vector<double> max_local_difference; // phi_local
    std::vector<double> potential_over_n;     // phi_t / n
    std::vector<double> min_load;
    std::vector<double> min_transient_load;
    std::vector<double> total_load_error;     // |total(t) - total(0)|, FP drift

    std::int64_t switch_round = -1;           // -1: never switched
    std::int64_t total_injected = 0;          // workload tokens added (dynamic runs)
    std::int64_t total_drained = 0;           // workload tokens removed, >= 0

    std::size_t size() const noexcept { return rounds.size(); }
};

/// Snapshot of an imbalance_tracker's evolving state (the construction
/// parameters window/min_improvement are not part of it — they come from
/// the experiment configuration). Used by core/checkpoint.hpp to resume a
/// run with the plateau detector exactly where it left off.
struct imbalance_tracker_state {
    std::int64_t count = 0;
    std::int64_t last_improvement = 0;
    double best = std::numeric_limits<double>::infinity();
    bool converged = false;
    std::vector<double> trailing; // oldest first
};

/// Detects the paper's "remaining imbalance": the value of a metric once it
/// "starts to fluctuate and does not visibly improve any more" (Section VI
/// metric 5). Feed one observation per round; converged() reports a
/// plateau once no observation in the trailing window improved on the best
/// seen before the window.
class imbalance_tracker {
public:
    /// `window`: rounds without improvement that count as a plateau.
    /// `min_improvement`: relative improvement below which a new minimum is
    /// not considered progress.
    explicit imbalance_tracker(std::int64_t window = 200,
                               double min_improvement = 0.01);

    void observe(double value);
    bool converged() const noexcept { return converged_; }

    /// Median of the trailing window — the reported remaining imbalance.
    double remaining() const;

    /// Checkpoint support: capture / reinstate the evolving state. restore
    /// throws std::invalid_argument if the trailing window exceeds the
    /// tracker's configured window.
    imbalance_tracker_state state() const;
    void restore(const imbalance_tracker_state& state);

private:
    std::int64_t window_;
    double min_improvement_;
    std::int64_t count_ = 0;
    std::int64_t last_improvement_ = 0;
    double best_ = std::numeric_limits<double>::infinity();
    bool converged_ = false;
    std::deque<double> trailing_;
};

} // namespace dlb

#endif // DLB_CORE_METRICS_HPP
