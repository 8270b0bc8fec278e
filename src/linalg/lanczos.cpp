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

using operator_fn =
    std::function<void(std::span<const double>, std::span<double>)>;

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
    recurrence(const operator_fn& apply,
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
    const operator_fn& apply_;
    std::span<const std::vector<double>> deflate_;
    std::vector<double> previous_;
    std::vector<double> current_;
    std::vector<double> next_;
};

/// ||M x - theta x|| for the unit Ritz vector x = V_k y, with V_k
/// regenerated from `start` and t (k - 1 more operator applications).
double true_residual(const operator_fn& apply,
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

lanczos_result lanczos_extreme_eigenvalues(const operator_fn& apply,
                                           std::size_t n,
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

} // namespace dlb
