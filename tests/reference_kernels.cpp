#include "reference_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "linalg/dense_matrix.hpp"
#include "util/rng.hpp"

namespace dlb {

namespace {

void round_node_randomized_reference(const graph& g, node_id v,
                                     std::span<const double> scheduled,
                                     std::uint64_t seed, std::int64_t round,
                                     std::span<std::int64_t> flows_out)
{
    const half_edge_id begin = g.half_edge_begin(v);
    const half_edge_id end = g.half_edge_end(v);

    // Pass 1: floor all outgoing flows, accumulate the excess mass r.
    double excess = 0.0;
    for (half_edge_id h = begin; h < end; ++h) {
        const double yhat = scheduled[h];
        if (yhat > 0.0) {
            const double floored = std::floor(yhat);
            flows_out[h] = static_cast<std::int64_t>(floored);
            excess += yhat - floored;
        }
    }
    if (excess <= 0.0) return;

    // Pass 2: ceil(r) candidate tokens, one draw u each. The token leaves
    // iff u * ceil(r) < r (probability r/ceil(r)); that target is then
    // uniform on [0, r) and picks the outgoing edge h with probability
    // {Yhat_h}/r by an inverse-CDF walk over the fractional parts.
    const double token_count_real = std::ceil(excess);
    const auto token_count = static_cast<std::int64_t>(token_count_real);
    for (std::int64_t token = 0; token < token_count; ++token) {
        const double target =
            to_unit_double(draw_u64(seed, static_cast<std::uint64_t>(v),
                                    static_cast<std::uint64_t>(round),
                                    static_cast<std::uint64_t>(token))) *
            token_count_real;
        if (target >= excess) continue;
        double cumulative = 0.0;
        half_edge_id chosen = -1;
        for (half_edge_id h = begin; h < end; ++h) {
            const double yhat = scheduled[h];
            if (yhat <= 0.0) continue;
            const double fraction = yhat - std::floor(yhat);
            if (fraction <= 0.0) continue;
            chosen = h;
            cumulative += fraction;
            if (cumulative >= target) break;
        }
        flows_out[chosen] += 1;
    }
}

void round_node_bernoulli_reference(const graph& g, node_id v,
                                    std::span<const double> scheduled,
                                    std::uint64_t seed, std::int64_t round,
                                    std::span<std::int64_t> flows_out)
{
    const half_edge_id begin = g.half_edge_begin(v);
    for (half_edge_id h = begin; h < g.half_edge_end(v); ++h) {
        const double yhat = scheduled[h];
        if (yhat <= 0.0) continue;
        const double floored = std::floor(yhat);
        const double coin = to_unit_double(
            draw_u64(seed, static_cast<std::uint64_t>(v),
                     static_cast<std::uint64_t>(round),
                     static_cast<std::uint64_t>(h - begin)));
        flows_out[h] = static_cast<std::int64_t>(floored) +
                       (coin < yhat - floored ? 1 : 0);
    }
}

} // namespace

std::vector<double> alpha_reference(const graph& g)
{
    std::vector<double> alpha(static_cast<std::size_t>(g.num_half_edges()));
    for (node_id u = 0; u < g.num_nodes(); ++u)
        for (half_edge_id h = g.half_edge_begin(u); h < g.half_edge_end(u); ++h)
            alpha[h] = 1.0 / (std::max(g.degree(u), g.degree(g.head(h))) + 1.0);
    return alpha;
}

void scheduled_flows_reference(const graph& g, std::span<const double> alpha,
                               scheme_params scheme,
                               std::int64_t rounds_in_scheme,
                               std::span<const double> load_over_speed,
                               std::span<const double> previous_flows,
                               std::span<double> flows_out, executor& exec)
{
    const bool second_order =
        scheme.kind != scheme_kind::fos && rounds_in_scheme > 0;
    if (alpha.size() != flows_out.size() ||
        (second_order && previous_flows.size() != alpha.size()))
        throw std::invalid_argument("scheduled_flows_reference: size mismatch");
    const double beta = scheme_beta_for_round(scheme, rounds_in_scheme);

    // Parallel over nodes; each chunk writes only its nodes' half-edges.
    exec.parallel_for(g.num_nodes(), [&](std::int64_t begin, std::int64_t end) {
        for (node_id v = static_cast<node_id>(begin); v < end; ++v) {
            const double xv = load_over_speed[v];
            for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v);
                 ++h) {
                const double gradient = xv - load_over_speed[g.head(h)];
                flows_out[h] = second_order ? (beta - 1.0) * previous_flows[h] +
                                                  beta * alpha[h] * gradient
                                            : alpha[h] * gradient;
            }
        }
    });
}

void round_flows_reference(const graph& g, rounding_kind kind,
                           std::span<const double> scheduled, std::uint64_t seed,
                           std::int64_t round, std::span<std::int64_t> flows_out,
                           executor& exec)
{
    if (scheduled.size() != static_cast<std::size_t>(g.num_half_edges()) ||
        flows_out.size() != scheduled.size())
        throw std::invalid_argument("round_flows_reference: size mismatch");

    // Owners write their outgoing half-edges only; twins are fixed after.
    exec.parallel_for(g.num_nodes(), [&](std::int64_t chunk_begin, std::int64_t chunk_end) {
        for (node_id v = static_cast<node_id>(chunk_begin); v < chunk_end; ++v) {
            const half_edge_id begin = g.half_edge_begin(v);
            const half_edge_id end = g.half_edge_end(v);
            for (half_edge_id h = begin; h < end; ++h) flows_out[h] = 0;

            switch (kind) {
            case rounding_kind::randomized:
                round_node_randomized_reference(g, v, scheduled, seed, round,
                                                flows_out);
                break;
            case rounding_kind::floor:
                for (half_edge_id h = begin; h < end; ++h)
                    if (scheduled[h] > 0.0)
                        flows_out[h] =
                            static_cast<std::int64_t>(std::floor(scheduled[h]));
                break;
            case rounding_kind::nearest:
                for (half_edge_id h = begin; h < end; ++h)
                    if (scheduled[h] > 0.0)
                        flows_out[h] = std::llround(scheduled[h]);
                break;
            case rounding_kind::bernoulli_edge:
                round_node_bernoulli_reference(g, v, scheduled, seed, round,
                                               flows_out);
                break;
            }
        }
    });

    // Mirror pass: the negative side of each edge is minus the owner's
    // rounded flow. Safe in parallel: each index writes only itself.
    exec.parallel_for(g.num_half_edges(), [&](std::int64_t begin, std::int64_t end) {
        for (half_edge_id h = begin; h < end; ++h)
            if (scheduled[h] < 0.0) flows_out[h] = -flows_out[g.twin(h)];
    });
}

void continuous_step_reference(const graph& g, std::span<const double> alpha,
                               const speed_profile& speeds,
                               continuous_engine_state& state, executor& exec)
{
    const scheme_params scheme{static_cast<scheme_kind>(state.scheme.kind),
                               state.scheme.beta, state.scheme.lambda};
    const std::int64_t rounds_in_scheme = state.scheme.rounds_in_scheme;
    std::vector<double> x_over_s(state.load.size());
    for (node_id v = 0; v < g.num_nodes(); ++v)
        x_over_s[v] = state.load[v] / speeds.speed(v);
    std::vector<double> flows(state.previous_flows.size());
    scheduled_flows_reference(g, alpha, scheme, rounds_in_scheme, x_over_s,
                              state.previous_flows, flows, exec);
    if (scheme.kind == scheme_kind::chebyshev && rounds_in_scheme > 0)
        state.scheme.omega = scheme_beta_for_round(scheme, rounds_in_scheme);

    double min_end = std::numeric_limits<double>::infinity();
    double min_transient = std::numeric_limits<double>::infinity();
    for (node_id v = 0; v < g.num_nodes(); ++v) {
        double net_out = 0.0;
        double positive_out = 0.0;
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h) {
            net_out += flows[h];
            if (flows[h] > 0.0) positive_out += flows[h];
        }
        min_transient = std::min(min_transient, state.load[v] - positive_out);
        state.load[v] -= net_out;
        min_end = std::min(min_end, state.load[v]);
    }
    if (state.load.empty()) min_end = min_transient = 0.0;
    negative_load_stats& negative = state.negative;
    negative.min_end_of_round_load = std::min(negative.min_end_of_round_load, min_end);
    negative.min_transient_load = std::min(negative.min_transient_load, min_transient);
    if (min_end < 0.0) ++negative.rounds_with_negative_end_load;
    if (min_transient < 0.0) ++negative.rounds_with_negative_transient;

    state.previous_flows = std::move(flows);
    ++state.round;
    ++state.scheme.rounds_in_scheme;
}

void cumulative_step_reference(const graph& g, std::span<const double> alpha,
                               const speed_profile& speeds,
                               cumulative_engine_state& state, executor& exec)
{
    continuous_step_reference(g, alpha, speeds, state.twin, exec);
    const std::vector<double>& continuous_flows = state.twin.previous_flows;
    std::vector<std::int64_t>& load = state.load;
    std::vector<double>& cumulative_continuous = state.cumulative_continuous;
    std::vector<std::int64_t>& cumulative_discrete = state.cumulative_discrete;

    exec.parallel_for(g.num_half_edges(), [&](std::int64_t begin, std::int64_t end) {
        for (half_edge_id h = begin; h < end; ++h)
            cumulative_continuous[h] += continuous_flows[h];
    });

    std::vector<double> transient(static_cast<std::size_t>(g.num_nodes()));
    exec.parallel_for(g.num_nodes(), [&](std::int64_t begin, std::int64_t end) {
        for (node_id v = static_cast<node_id>(begin); v < end; ++v) {
            std::int64_t net_out = 0;
            std::int64_t positive_out = 0;
            for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h) {
                const node_id u = g.head(h);
                std::int64_t flow;
                if (v < u) {
                    flow = std::llround(cumulative_continuous[h]) -
                           cumulative_discrete[h];
                } else {
                    const half_edge_id tw = g.twin(h);
                    flow = -(std::llround(cumulative_continuous[tw]) -
                             cumulative_discrete[tw]);
                }
                net_out += flow;
                if (flow > 0) positive_out += flow;
            }
            transient[v] = static_cast<double>(load[v] - positive_out);
            load[v] -= net_out;
        }
    });

    exec.parallel_for(g.num_half_edges(), [&](std::int64_t begin, std::int64_t end) {
        for (half_edge_id h = begin; h < end; ++h) {
            const half_edge_id tw = g.twin(h);
            const node_id tail = g.head(tw); // tail of h
            if (tail < g.head(h))
                cumulative_discrete[h] = std::llround(cumulative_continuous[h]);
        }
    });
    exec.parallel_for(g.num_half_edges(), [&](std::int64_t begin, std::int64_t end) {
        for (half_edge_id h = begin; h < end; ++h) {
            const half_edge_id tw = g.twin(h);
            const node_id tail = g.head(tw);
            if (tail > g.head(h))
                cumulative_discrete[h] = -cumulative_discrete[tw];
        }
    });

    double min_end = load.empty() ? 0.0 : static_cast<double>(load.front());
    double min_transient = transient.empty() ? 0.0 : transient.front();
    for (node_id v = 0; v < g.num_nodes(); ++v) {
        min_end = std::min(min_end, static_cast<double>(load[v]));
        min_transient = std::min(min_transient, transient[v]);
    }
    negative_load_stats& negative = state.negative;
    negative.min_end_of_round_load = std::min(negative.min_end_of_round_load, min_end);
    negative.min_transient_load = std::min(negative.min_transient_load, min_transient);
    if (min_end < 0.0) ++negative.rounds_with_negative_end_load;
    if (min_transient < 0.0) ++negative.rounds_with_negative_transient;

    ++state.round;
}

// The Lanczos solver before its steps became fused node sweeps, verbatim:
// one opaque operator call per step, then separate axpy, dot, projection
// and scale passes, and the same three calls regenerating the vectors for
// the true-residual check.

namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();
constexpr std::uint64_t kStartSeed = 0xdecafbad;

// Steps between two looks at T_k's extremes. A look costs O(k) per
// bisection step, far less than the k operator applications between looks.
constexpr int kCheckEvery = 20;

/// Removes the components of v along each (normalized) basis vector.
void project_out(std::span<double> v, std::span<const std::vector<double>> basis)
{
    for (const auto& b : basis) {
        const double coefficient = dot(v, b);
        axpy(-coefficient, b, v);
    }
}

/// The symmetric tridiagonal T_k of the recurrence: diagonal `alpha`,
/// off-diagonal `beta` (beta[i] couples i and i + 1).
struct tridiagonal {
    std::vector<double> alpha;
    std::vector<double> beta;

    std::size_t size() const noexcept { return alpha.size(); }
    /// |beta[i]|, and 0 past the end.
    double coupling(std::size_t i) const noexcept
    {
        return i < beta.size() ? std::abs(beta[i]) : 0.0;
    }
};

/// Number of eigenvalues of t below x: the negative pivots of the LDL^T
/// factorization of t - x I (Sturm count). A pivot within pivmin of zero
/// counts as negative and continues as -pivmin, as in LAPACK's dstebz.
std::size_t count_below(const tridiagonal& t, double x, double pivmin)
{
    std::size_t count = 0;
    double pivot = 0.0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        pivot = t.alpha[i] - x -
                (i == 0 ? 0.0 : t.beta[i - 1] * t.beta[i - 1] / pivot);
        if (pivot <= pivmin) {
            ++count;
            pivot = std::min(pivot, -pivmin);
        }
    }
    return count;
}

/// The eigenvalue of t with `index` eigenvalues below it (0: the smallest),
/// by Sturm bisection from the Gershgorin interval until the bracket is two
/// adjacent doubles (or 1e-20 * ||t|| wide, for an eigenvalue at zero).
double bisect_eigenvalue(const tridiagonal& t, std::size_t index)
{
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    double max_coupling = 0.0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const double radius = t.coupling(i) + (i > 0 ? t.coupling(i - 1) : 0.0);
        lo = std::min(lo, t.alpha[i] - radius);
        hi = std::max(hi, t.alpha[i] + radius);
        max_coupling = std::max(max_coupling, t.coupling(i));
    }
    const double norm = std::max(std::abs(lo), std::abs(hi));
    const double pivmin = std::numeric_limits<double>::min() *
                          std::max(1.0, max_coupling * max_coupling);
    // Rounding in the Sturm count must not move an eigenvalue past the
    // bracket (the margin of LAPACK's dstebz).
    const double margin = 2.1 * (norm * kEps * static_cast<double>(t.size()) +
                                 2.0 * pivmin);
    lo -= margin;
    hi += margin;
    const double floor = 1e-20 * std::max(norm, pivmin);

    // Invariant: count_below(lo) <= index < count_below(hi). The negated
    // width test also ends the search on a NaN bracket (a non-finite t),
    // which bisection would never narrow.
    for (;;) {
        const double mid = lo + 0.5 * (hi - lo);
        if (!(hi - lo > floor) || mid <= lo || mid >= hi) return mid;
        if (count_below(t, mid, pivmin) <= index)
            lo = mid;
        else
            hi = mid;
    }
}

/// Unit eigenvector of t for its eigenvalue theta: two steps of inverse
/// iteration from the all-ones vector. Each solve of (t - theta I) z = y is
/// Gaussian elimination with partial pivoting (LAPACK's dgttrf/dgttrs); a
/// zero pivot becomes eps * ||t||, since t - theta I is singular to working
/// precision by construction.
std::vector<double> tridiagonal_eigenvector(const tridiagonal& t, double theta)
{
    const std::size_t k = t.size();
    double norm = 0.0;
    for (std::size_t i = 0; i < k; ++i)
        norm = std::max(norm, std::abs(t.alpha[i] - theta) + t.coupling(i) +
                                  (i > 0 ? t.coupling(i - 1) : 0.0));
    const double tiny = kEps * std::max(norm, std::numeric_limits<double>::min());

    // U: diagonal d, superdiagonals u1 and u2; L: multipliers m, with rows
    // i and i + 1 interchanged where swapped[i].
    std::vector<double> d(k);
    std::vector<double> u1(k, 0.0);
    std::vector<double> u2(k, 0.0);
    std::vector<double> m(k, 0.0);
    std::vector<bool> swapped(k, false);
    for (std::size_t i = 0; i < k; ++i) {
        d[i] = t.alpha[i] - theta;
        if (i + 1 < k) u1[i] = t.beta[i];
    }
    for (std::size_t i = 0; i + 1 < k; ++i) {
        const double below = t.beta[i];
        if (std::abs(d[i]) >= std::abs(below)) {
            if (d[i] == 0.0) d[i] = tiny;
            m[i] = below / d[i];
            d[i + 1] -= m[i] * u1[i];
        } else {
            m[i] = d[i] / below;
            d[i] = below;
            const double next = d[i + 1];
            d[i + 1] = u1[i] - m[i] * next;
            u1[i] = next;
            if (i + 2 < k) {
                u2[i] = u1[i + 1];
                u1[i + 1] = -m[i] * u1[i + 1];
            }
            swapped[i] = true;
        }
    }
    if (d[k - 1] == 0.0) d[k - 1] = tiny;

    std::vector<double> y(k, 1.0);
    for (int sweep = 0; sweep < 2; ++sweep) {
        for (std::size_t i = 0; i + 1 < k; ++i) {
            if (swapped[i]) std::swap(y[i], y[i + 1]);
            y[i + 1] -= m[i] * y[i];
        }
        for (std::size_t i = k; i-- > 0;) {
            double value = y[i];
            if (i + 1 < k) value -= u1[i] * y[i + 1];
            if (i + 2 < k) value -= u2[i] * y[i + 2];
            y[i] = value / d[i];
        }
        scale(y, 1.0 / norm2(y));
    }
    return y;
}

/// One end of T_k's spectrum: the Ritz value theta, its unit eigenvector y
/// of T_k, and the residual estimate beta_k * |y_k| of the Ritz vector.
struct ritz_end {
    double theta = 0.0;
    std::vector<double> y;
    double estimate = 0.0;
};

ritz_end ritz_end_of(const tridiagonal& t, std::size_t index, double beta_k)
{
    ritz_end end;
    end.theta = bisect_eigenvalue(t, index);
    end.y = tridiagonal_eigenvector(t, end.theta);
    end.estimate = beta_k * std::abs(end.y.back());
    return end;
}

/// The vectors of the three-term recurrence. Both passes step through the
/// same three calls, so the second regenerates the first's vectors bit for
/// bit.
class recurrence {
public:
    recurrence(const reference_operator& apply,
               std::span<const std::vector<double>> deflate,
               std::span<const double> start)
        : apply_(apply), deflate_(deflate), previous_(start.size(), 0.0),
          current_(start.begin(), start.end()), next_(start.size())
    {
    }

    std::span<const double> current() const noexcept { return current_; }
    std::span<const double> next() const noexcept { return next_; }

    /// w = M v - beta_prev v_prev.
    void apply_operator(double beta_prev)
    {
        apply_(current_, next_);
        if (beta_prev != 0.0) axpy(-beta_prev, previous_, next_);
    }

    /// w -= alpha v, then the deflated directions leave w.
    void orthogonalize(double alpha)
    {
        axpy(-alpha, current_, next_);
        project_out(next_, deflate_);
    }

    /// (v_prev, v) <- (v, w / beta).
    void advance(double beta)
    {
        scale(next_, 1.0 / beta);
        std::swap(previous_, current_);
        std::swap(current_, next_);
    }

private:
    const reference_operator& apply_;
    std::span<const std::vector<double>> deflate_;
    std::vector<double> previous_;
    std::vector<double> current_;
    std::vector<double> next_;
};

/// ||M x - theta x|| for the unit Ritz vector x = V_k y, with V_k
/// regenerated from `start` and t (k - 1 more operator applications).
double true_residual(const reference_operator& apply,
                     std::span<const std::vector<double>> deflate,
                     std::span<const double> start, const tridiagonal& t,
                     const ritz_end& end)
{
    const std::size_t k = t.size();
    std::vector<double> x(start.size(), 0.0);
    recurrence again(apply, deflate, start);
    for (std::size_t j = 0;; ++j) {
        axpy(end.y[j], again.current(), x);
        if (j + 1 == k) break;
        again.apply_operator(j == 0 ? 0.0 : t.beta[j - 1]);
        again.orthogonalize(t.alpha[j]);
        again.advance(t.beta[j]);
    }
    project_out(x, deflate);
    const double x_norm = norm2(x);
    if (!(x_norm > 0.0)) return std::numeric_limits<double>::infinity();
    scale(x, 1.0 / x_norm);
    std::vector<double> residual(x.size());
    apply(x, residual);
    axpy(-end.theta, x, residual);
    return norm2(residual);
}

} // namespace

lanczos_result lanczos_reference(const reference_operator& apply, std::size_t n,
                                 std::span<const std::vector<double>> deflate,
                                 int max_steps)
{
    if (n == 0) throw std::invalid_argument("lanczos: empty operator");
    if (max_steps < 1) throw std::invalid_argument("lanczos: max_steps < 1");
    for (const auto& b : deflate)
        if (b.size() != n)
            throw std::invalid_argument("lanczos: deflation vector size mismatch");

    // Random deterministic start orthogonal to the deflated space.
    std::vector<double> start(n);
    auto rng = tagged_rng(kStartSeed, n);
    for (auto& entry : start) entry = rng.next_double() - 0.5;
    project_out(start, deflate);
    const double start_norm = norm2(start);
    if (start_norm < 1e-300)
        throw std::runtime_error("lanczos: start vector vanished after deflation");
    scale(start, 1.0 / start_norm);

    lanczos_result result;
    tridiagonal t;
    recurrence lanczos(apply, deflate, start);
    // A true-residual check costs k operator applications. After one fails,
    // the next waits until k has grown by a quarter, which keeps all checks
    // together under five times the steps taken.
    int check_from = 1;
    for (int k = 1;; ++k) {
        lanczos.apply_operator(t.beta.empty() ? 0.0 : t.beta.back());
        const double alpha = dot(lanczos.next(), lanczos.current());
        lanczos.orthogonalize(alpha);
        const double beta = norm2(lanczos.next());
        t.alpha.push_back(alpha);
        result.iterations = k;

        // beta_k bounds every Ritz residual: at or below the tolerance the
        // Krylov space is invariant to working precision, and the
        // recurrence cannot go on.
        const bool invariant = beta <= kLanczosTolerance;
        const bool last = invariant || k == max_steps;
        if (last || k % kCheckEvery == 0) {
            const ritz_end top = ritz_end_of(t, t.size() - 1, beta);
            const ritz_end bottom = ritz_end_of(t, 0, beta);
            result.largest = top.theta;
            result.smallest = bottom.theta;
            result.residual = std::max(top.estimate, bottom.estimate);
            if (result.residual <= kLanczosTolerance && (last || k >= check_from)) {
                const ritz_end& wanted =
                    std::abs(top.theta) >= std::abs(bottom.theta) ? top : bottom;
                result.residual = true_residual(apply, deflate, start, t, wanted);
                result.converged = result.residual <= kLanczosTolerance;
                check_from = k + k / 4;
            }
            if (result.converged || last) return result;
        }
        t.beta.push_back(beta);
        lanczos.advance(beta);
    }
}

namespace {

void validate_endpoint_reference(node_id v, node_id num_nodes)
{
    if (v < 0 || v >= num_nodes)
        throw std::invalid_argument("graph: endpoint " + std::to_string(v) +
                                    " outside [0, " + std::to_string(num_nodes) + ")");
}

} // namespace

csr_reference build_csr_reference(node_id num_nodes, std::span<const edge> edges,
                                  bool dedup)
{
    if (num_nodes < 0) throw std::invalid_argument("graph: negative node count");

    std::vector<edge> directed;
    directed.reserve(edges.size() * 2);
    for (const auto& [u, v] : edges) {
        validate_endpoint_reference(u, num_nodes);
        validate_endpoint_reference(v, num_nodes);
        if (u == v) {
            if (dedup) continue;
            throw std::invalid_argument("graph: self-loop at node " + std::to_string(u));
        }
        directed.emplace_back(u, v);
        directed.emplace_back(v, u);
    }
    std::sort(directed.begin(), directed.end());
    if (dedup)
        directed.erase(std::unique(directed.begin(), directed.end()), directed.end());
    else if (std::adjacent_find(directed.begin(), directed.end()) != directed.end())
        throw std::invalid_argument("graph: duplicate edge in input");

    // `directed` holds both (u,v) and (v,u) for every undirected edge and is
    // sorted lexicographically, which yields per-node ascending adjacency.
    csr_reference out;
    out.offsets.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
    out.adjacency.resize(directed.size());
    out.twins.assign(directed.size(), -1);

    for (const auto& [u, v] : directed) out.offsets[u + 1]++;
    for (node_id v = 0; v < num_nodes; ++v) out.offsets[v + 1] += out.offsets[v];

    for (std::size_t i = 0; i < directed.size(); ++i)
        out.adjacency[i] = directed[i].second;

    // Twin resolution: for half-edge h = (u -> v), find (v -> u) by binary
    // search in v's slice. Total O(m log d).
    for (node_id u = 0; u < num_nodes; ++u) {
        for (half_edge_id h = out.offsets[u]; h < out.offsets[u + 1]; ++h) {
            const node_id v = out.adjacency[h];
            const auto begin = out.adjacency.begin() + out.offsets[v];
            const auto end = out.adjacency.begin() + out.offsets[v + 1];
            const auto it = std::lower_bound(begin, end, u);
            out.twins[h] = out.offsets[v] + (it - begin);
        }
    }

    out.max_degree = 0;
    out.min_degree = num_nodes > 0 ? std::numeric_limits<std::int32_t>::max() : 0;
    for (node_id v = 0; v < num_nodes; ++v) {
        const auto d = static_cast<std::int32_t>(out.offsets[v + 1] - out.offsets[v]);
        out.max_degree = std::max(out.max_degree, d);
        out.min_degree = std::min(out.min_degree, d);
    }
    return out;
}

} // namespace dlb
