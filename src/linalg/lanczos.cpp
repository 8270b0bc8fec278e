#include "linalg/lanczos.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "linalg/dense_matrix.hpp"
#include "util/rng.hpp"

namespace dlb {

namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();
constexpr std::uint64_t kStartSeed = 0xdecafbad;

// Steps between two looks at T_k's extremes. A look costs O(k) per
// bisection step, far less than the k operator applications between looks.
constexpr int kCheckEvery = 20;

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

// -- the fused sweeps ---------------------------------------------------------
//
// Each sweep visits every element once in ascending order and sums its dot
// from +0.0 as it goes. Per element, the sweeps must run the rounded
// operations of the plain recurrence (operator, axpy, dot, projection and
// scale as separate passes; lanczos_reference in tests/reference_kernels.*)
// in its order: that is what keeps lambda's bits.

using deflation = std::span<const std::vector<double>>;

/// w += a * s, then the sum of w_i * d_i, in one sweep. d may be w itself,
/// which sums ||w||^2.
double axpy_dot(double a, std::span<const double> s, std::span<double> w,
                std::span<const double> d)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) {
        w[i] += a * s[i];
        sum += w[i] * d[i];
    }
    return sum;
}

/// What the first deflation coefficient of w is summed against: the first
/// deflated vector, or w itself when nothing is deflated (the sum is then
/// ||w||^2 and no coefficient is needed).
std::span<const double> first_dot(deflation deflate, std::span<const double> w)
{
    return deflate.empty() ? w : std::span<const double>(deflate.front());
}

/// Given c = w . deflate[0] from the caller's sweep, removes every deflated
/// direction of w but the last, one sweep each: sweep i subtracts
/// c * deflate[i - 1] and sums c = w . deflate[i]. Returns the last c, for
/// the caller's final sweep to subtract times deflate.back().
double deflate_but_last(std::span<double> w, double c, deflation deflate)
{
    for (std::size_t i = 1; i < deflate.size(); ++i)
        c = axpy_dot(-c, deflate[i - 1], w, deflate[i]);
    return c;
}

/// Removes the deflated directions from w and returns ||w||^2, given
/// c = w . first_dot(deflate, w) from the caller's sweep.
double deflate_norm_sq(std::span<double> w, double c, deflation deflate)
{
    if (deflate.empty()) return c;
    c = deflate_but_last(w, c, deflate);
    return axpy_dot(-c, deflate.back(), w, w);
}

/// The previous, current and next Lanczos vectors. Both passes start them
/// from the same start vector and step them through the same operations,
/// so the second regenerates the first's vectors bit for bit.
struct lanczos_vectors {
    explicit lanczos_vectors(std::span<const double> start)
        : previous(start.size(), 0.0), current(start.begin(), start.end()),
          next(start.size())
    {
    }

    /// Sweep (D): w = (w - c b) * (1 / beta), with no subtraction when b is
    /// empty; then (v_prev, v) <- (v, w). The first pass has removed every
    /// deflated direction by then; the regeneration pass leaves the last
    /// one's subtraction to this sweep.
    void advance(double beta, double c = 0.0, std::span<const double> b = {})
    {
        const double inverse = 1.0 / beta;
        if (b.empty()) {
            for (double& w : next) w *= inverse;
        } else {
            const double shift = -c;
            for (std::size_t i = 0; i < next.size(); ++i)
                next[i] = (next[i] + shift * b[i]) * inverse;
        }
        std::swap(previous, current);
        std::swap(current, next);
    }

    std::vector<double> previous;
    std::vector<double> current;
    std::vector<double> next;
};

/// Sweep (A) of a first-pass step: w = M v - beta_prev v_prev row by row,
/// summing alpha = w . v. On the first step v_prev is zero and beta_prev is
/// 0, and adding (-0) * 0 = -0 leaves every double as it is, so that step
/// needs no branch.
double operator_sweep(const sparse_op& op, lanczos_vectors& r, double beta_prev)
{
    const double shift = -beta_prev;
    const double* previous = r.previous.data();
    const double* current = r.current.data();
    double* next = r.next.data();
    double alpha = 0.0;
    op.for_each_row(current, [&](node_id v, double row) {
        const double w = row + shift * previous[v];
        next[v] = w;
        alpha += w * current[v];
    });
    return alpha;
}

/// Sweep (A') of regeneration step j: x += y_j v; w = M v - beta_{j-1}
/// v_prev - alpha_j v row by row, summing w . first_dot(deflate, w).
double regeneration_sweep(const sparse_op& op, lanczos_vectors& r,
                          std::span<double> x, double y, double beta_prev,
                          double alpha, deflation deflate)
{
    const double beta_shift = -beta_prev;
    const double alpha_shift = -alpha;
    const double* previous = r.previous.data();
    const double* current = r.current.data();
    double* next = r.next.data();
    double* ritz = x.data();
    const double* dots = first_dot(deflate, r.next).data();
    double sum = 0.0;
    op.for_each_row(current, [&](node_id v, double row) {
        ritz[v] += y * current[v];
        double w = row + beta_shift * previous[v];
        w += alpha_shift * current[v];
        next[v] = w;
        sum += w * dots[v];
    });
    return sum;
}

/// ||M x - theta x|| for the unit Ritz vector x = V_k y, with V_k
/// regenerated from `start` and t in two sweeps per step: (A') above, then
/// (B') w = (w - c b) / beta_j, b the last deflated vector (each further
/// deflated vector adds its sweep between the two). Adds the operator
/// applications, k - 1 regenerated and one for the residual, to `applies`.
double true_residual(const sparse_op& op, deflation deflate,
                     std::span<const double> start, const tridiagonal& t,
                     const ritz_end& end, int& applies)
{
    const std::size_t k = t.size();
    std::vector<double> x(start.size(), 0.0);
    lanczos_vectors again(start);
    const std::span<const double> last =
        deflate.empty() ? std::span<const double>() : deflate.back();
    for (std::size_t j = 0; j + 1 < k; ++j) {
        const double c = regeneration_sweep(op, again, x, end.y[j],
                                            j == 0 ? 0.0 : t.beta[j - 1],
                                            t.alpha[j], deflate);
        ++applies;
        again.advance(t.beta[j], deflate_but_last(again.next, c, deflate), last);
    }
    // x += y_{k-1} v_{k-1}, then the deflated directions leave x.
    const double x_norm = std::sqrt(deflate_norm_sq(
        x, axpy_dot(end.y[k - 1], again.current, x, first_dot(deflate, x)),
        deflate));
    if (!(x_norm > 0.0)) return std::numeric_limits<double>::infinity();
    scale(x, 1.0 / x_norm);
    const double shift = -end.theta;
    double sum = 0.0;
    op.for_each_row(x.data(), [&](node_id v, double row) {
        const double residual = row + shift * x[v];
        sum += residual * residual;
    });
    ++applies;
    return std::sqrt(sum);
}

} // namespace

lanczos_result lanczos_extreme_eigenvalues(const sparse_op& op,
                                           deflation deflate, int max_steps)
{
    const std::size_t n = op.dimension();
    if (n == 0) throw std::invalid_argument("lanczos: empty operator");
    if (max_steps < 1) throw std::invalid_argument("lanczos: max_steps < 1");
    for (const auto& b : deflate)
        if (b.size() != n)
            throw std::invalid_argument("lanczos: deflation vector size mismatch");

    // Random deterministic start orthogonal to the deflated space.
    std::vector<double> start(n);
    auto rng = tagged_rng(kStartSeed, n);
    for (auto& entry : start) entry = rng.next_double() - 0.5;
    const double start_norm = std::sqrt(
        deflate_norm_sq(start, dot(start, first_dot(deflate, start)), deflate));
    if (start_norm < 1e-300)
        throw std::runtime_error("lanczos: start vector vanished after deflation");
    scale(start, 1.0 / start_norm);

    lanczos_result result;
    tridiagonal t;
    lanczos_vectors lanczos(start);
    // A true-residual check costs k operator applications. After one fails,
    // the next waits until k has grown by a quarter, which keeps all checks
    // together under five times the steps taken.
    int check_from = 1;
    for (int k = 1;; ++k) {
        // Sweeps (A) to (C): w = M v - beta_{k-1} v_prev - alpha v with the
        // deflated directions removed, and beta = ||w||.
        const double alpha = operator_sweep(
            op, lanczos, t.beta.empty() ? 0.0 : t.beta.back());
        std::span<double> w = lanczos.next;
        const double beta = std::sqrt(deflate_norm_sq(
            w, axpy_dot(-alpha, lanczos.current, w, first_dot(deflate, w)),
            deflate));
        t.alpha.push_back(alpha);
        result.iterations = k;
        ++result.applies;

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
                result.residual = true_residual(op, deflate, start, t, wanted,
                                                result.applies);
                result.converged = result.residual <= kLanczosTolerance;
                check_from = k + k / 4;
            }
            if (result.converged || last) return result;
        }
        t.beta.push_back(beta);
        lanczos.advance(beta);
    }
}

} // namespace dlb
