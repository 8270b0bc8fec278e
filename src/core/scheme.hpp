// The continuous flow rules of FOS and SOS (paper eq. (1), (3), (31)).
//
// FOS:  y_ij(t) = alpha_ij * (x_i(t)/s_i - x_j(t)/s_j)
// SOS:  y_ij(t) = (beta-1) * y_ij(t-1) + beta * alpha_ij * (x_i(t)/s_i - x_j(t)/s_j)
//       with the very first round using the FOS rule.
//
// Homogeneous networks have s_i = 1, recovering eq. (1) and (3). The flows
// are computed per half-edge; antisymmetry y[h] == -y[twin(h)] holds by
// construction of the formula. A node reads y(t-1) only on its own
// half-edges, so y(t) may overwrite y(t-1) in place: the engines keep one
// flow array.
#ifndef DLB_CORE_SCHEME_HPP
#define DLB_CORE_SCHEME_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/alpha.hpp"
#include "core/executor.hpp"
#include "graph/graph.hpp"

namespace dlb {

enum class scheme_kind {
    fos,       // first order scheme
    sos,       // second order scheme (successive over-relaxation based)
    chebyshev, // Chebyshev semi-iteration: SOS with round-optimal omega_t
};

struct scheme_params {
    scheme_kind kind = scheme_kind::fos;
    /// Relaxation parameter; SOS requires beta in (0, 2). Ignored for FOS.
    double beta = 1.0;
    /// Spectral radius lambda driving the Chebyshev omega recurrence;
    /// required in [0, 1) for scheme_kind::chebyshev, ignored otherwise.
    double lambda = 0.0;
};

/// FOS with the paper-default flow rule.
inline scheme_params fos_scheme() { return {scheme_kind::fos, 1.0, 0.0}; }

/// SOS with the given beta (validated by the engines).
inline scheme_params sos_scheme(double beta)
{
    return {scheme_kind::sos, beta, 0.0};
}

/// Chebyshev semi-iteration (Golub & Varga [18], the method SOS is derived
/// from): the relaxation parameter varies per round as
///   omega_1 = 1,  omega_2 = 1/(1 - lambda^2/2),
///   omega_{t+1} = 1/(1 - (lambda^2/4) * omega_t),
/// converging to beta_opt from below. Strictly faster transients than SOS
/// with the same asymptotic rate; an extension beyond the paper.
inline scheme_params chebyshev_scheme(double lambda)
{
    return {scheme_kind::chebyshev, 1.0, lambda};
}

/// The effective relaxation factor the scheme applies in round
/// `rounds_in_scheme` (0-based). FOS: 1. SOS: beta (after the FOS warm-up
/// round). Chebyshev: omega_{t+1} from the recurrence above.
///
/// Pure and stateless, which makes a single call O(rounds_in_scheme) for
/// Chebyshev; long-running engines carry the recurrence incrementally with
/// scheme_beta_state instead of calling this every round (a T-round run
/// through this function is O(T^2)).
double scheme_beta_for_round(scheme_params scheme, std::int64_t rounds_in_scheme);

/// Incremental form of scheme_beta_for_round: next() returns the factor for
/// the current round in O(1) and advances the recurrence, so a T-round run
/// costs O(T) total. next() called t times after reset(scheme) produces
/// exactly scheme_beta_for_round(scheme, 0..t-1), bit for bit. Engines
/// reset() when a hybrid switch installs a new scheme, matching the SOS
/// warm-up restart.
class scheme_beta_state {
public:
    explicit scheme_beta_state(scheme_params scheme = {}) { reset(scheme); }

    void reset(scheme_params scheme)
    {
        scheme_ = scheme;
        round_ = 0;
        omega_ = 1.0;
    }

    /// The factor for the current round; steps to the next round.
    double next()
    {
        const std::int64_t t = round_++;
        switch (scheme_.kind) {
        case scheme_kind::fos:
            return 1.0;
        case scheme_kind::sos:
            return t == 0 ? 1.0 : scheme_.beta;
        case scheme_kind::chebyshev: {
            if (t == 0) return 1.0; // omega_1 = 1: plain FOS round
            const double lambda_sq = scheme_.lambda * scheme_.lambda;
            omega_ = t == 1 ? 1.0 / (1.0 - lambda_sq / 2.0)
                            : 1.0 / (1.0 - 0.25 * lambda_sq * omega_);
            return omega_;
        }
        }
        return 1.0;
    }

    std::int64_t rounds_in_scheme() const noexcept { return round_; }

    /// Last Chebyshev omega returned (1.0 until the recurrence has run).
    /// Together with rounds_in_scheme() this is the full recurrence state,
    /// which is what core/checkpoint.hpp snapshots.
    double omega() const noexcept { return omega_; }

    /// Checkpoint support: reinstate the recurrence mid-run so the next
    /// next() call produces exactly scheme_beta_for_round(scheme, round).
    void restore(scheme_params scheme, std::int64_t round, double omega)
    {
        scheme_ = scheme;
        round_ = round;
        omega_ = omega;
    }

private:
    scheme_params scheme_;
    std::int64_t round_ = 0;
    double omega_ = 1.0; // last Chebyshev omega returned (valid for t >= 1)
};

/// The flow rule on one half-edge i -> j, with
/// gradient = x_i/s_i - x_j/s_j: the FOS rule (also every scheme's first
/// round) and the second-order rule with relaxation factor beta. Both
/// commute exactly with negating their inputs, which is what makes the
/// twin's flow the exact negation of a nonzero flow.
inline double first_order_flow(double alpha, double gradient)
{
    return alpha * gradient;
}

inline double second_order_flow(double beta, double previous, double alpha,
                                double gradient)
{
    return (beta - 1.0) * previous + beta * alpha * gradient;
}

/// The flow rule on node u's own slice [first, first + degree): every
/// half-edge h = u -> v gets first_order_flow(alpha[h], x_u - x_v), or with
/// SecondOrder second_order_flow(beta, previous[h], alpha[h], x_u - x_v),
/// x and previous read through a cast to double, and stores it to
/// out[h - first]. `alpha` is a view of core/alpha.hpp (one value or one
/// weight per half-edge; the same product either way). Each half-edge
/// evaluates its own expression; the twin's is its exact negation whenever
/// the flow is nonzero, because alpha is symmetric, previous flows are
/// antisymmetric and the rule commutes with negating its inputs. The
/// pointers carry no restrict: with it GCC 12 packs the degree-4 slots
/// into SSE2 pairs, and the discrete round sweep then reads each 16-byte
/// store back as 8-byte loads, which made its 2^20 torus rounding phase
/// slower.
template <bool SecondOrder, class X, class Alpha, class Previous>
[[gnu::always_inline]] inline void
node_flows(const graph& g, const X* x, Alpha alpha, const Previous* previous,
           double beta, node_id u, half_edge_id first, std::int32_t degree,
           double* out)
{
    const double xu = static_cast<double>(x[u]);
    for (std::int32_t j = 0; j < degree; ++j) {
        const half_edge_id h = first + j;
        const double gradient = xu - static_cast<double>(x[g.head(h)]);
        out[j] = SecondOrder ? second_order_flow(beta,
                                                 static_cast<double>(previous[h]),
                                                 alpha[h], gradient)
                             : first_order_flow(alpha[h], gradient);
    }
}

/// Computes the continuous scheduled flows Yhat(t) = C(x(t), y(t-1)) for
/// every half-edge.
///
/// `load_over_speed[i]` must hold x_i(t)/s_i. `rounds_in_scheme` counts
/// rounds since this scheme became active: SOS uses the FOS rule when it is
/// zero (paper: "The only exception is the very first round in which FOS is
/// applied"). `previous_flows` may be empty for FOS. It may also be
/// `flows_out` itself (same data, same size), which then goes from y(t-1)
/// to y(t) in place with the two-array bits; any other overlap of the two
/// spans throws std::invalid_argument naming it.
///
/// The kernel is a node sweep: each node evaluates node_flows on its own
/// half-edges and writes only its own slice, through the alpha view chosen
/// once per call. The discrete engine runs the same helper inside its
/// round sweep (core/process.cpp), so both give these bits.
void scheduled_flows(const graph& g, const alpha_weights& alpha,
                     scheme_params scheme, std::int64_t rounds_in_scheme,
                     std::span<const double> load_over_speed,
                     std::span<const double> previous_flows,
                     std::span<double> flows_out, executor& exec);

/// Overload with the relaxation factor supplied by the caller (engines pass
/// the O(1) scheme_beta_state value instead of re-deriving it per round).
/// `beta` must equal scheme_beta_for_round(scheme, rounds_in_scheme).
void scheduled_flows(const graph& g, const alpha_weights& alpha,
                     scheme_params scheme, std::int64_t rounds_in_scheme,
                     double beta, std::span<const double> load_over_speed,
                     std::span<const double> previous_flows,
                     std::span<double> flows_out, executor& exec);

/// Validates scheme parameters; throws std::invalid_argument on bad beta.
void validate_scheme(scheme_params scheme);

} // namespace dlb

#endif // DLB_CORE_SCHEME_HPP
