// Direct numerical verification of the paper's central identities:
//
//  * Lemma 2:  x^D_k(t) - x^C_k(t) =
//        sum_{s=1..t} sum_{{i,j} in E} e_{i,j}(t-s) * C_{k,i->j}(s)
//    for any rounding scheme, where e_{i,j}(s) = Yhat_{i,j}(s) - y^D_{i,j}(s)
//    is the rounding error of round s and C are the contributions.
//  * Observation 3 scale: Upsilon for alpha = 1/(gamma d) on regular graphs.
//  * Theorem 8's setup: the deterministic (nearest) rounding deviation stays
//    within the d*sqrt(n*s_max)/(1-lambda) envelope.
#include <gtest/gtest.h>

#include <cmath>

#include "core/alpha.hpp"
#include "core/beta.hpp"
#include "core/contribution.hpp"
#include "core/divergence.hpp"
#include "core/metrics.hpp"
#include "core/process.hpp"
#include "graph/generators.hpp"
#include "linalg/spectra.hpp"
#include "sim/initial_load.hpp"

namespace dlb {
namespace {

/// Replays a discrete process for `rounds` rounds, recording the rounding
/// error e_{i,j}(s) on every canonical half-edge per round, then checks the
/// Lemma 2 telescoping identity for every observer node k.
void check_lemma2(const graph& g, scheme_params scheme, rounding_kind rounding,
                  const std::vector<std::int64_t>& initial, int rounds,
                  double tolerance)
{
    const diffusion_config config{&g,
                                  make_alpha(g, alpha_policy::max_degree_plus_one),
                                  speed_profile::uniform(g.num_nodes()), scheme};

    discrete_process discrete(config, initial, rounding, 99);
    continuous_process continuous(config, to_continuous(initial));
    std::vector<double> scheduled(static_cast<std::size_t>(g.num_half_edges()));
    discrete.capture_scheduled_flows(scheduled);

    // errors[s][h] = Yhat_h(s) - y^D_h(s) for canonical half-edges.
    std::vector<std::vector<double>> errors;
    for (int s = 0; s < rounds; ++s) {
        discrete.step();
        continuous.step();
        const auto rounded = discrete.previous_flows();
        std::vector<double> e(static_cast<std::size_t>(g.num_half_edges()), 0.0);
        for (half_edge_id h = 0; h < g.num_half_edges(); ++h)
            e[h] = scheduled[h] - static_cast<double>(rounded[h]);
        errors.push_back(std::move(e));
    }

    // Contribution rows. In the Lemma 2 sum, the s = 1 term pairs the error
    // of the LAST round with the identity (an error injected in round t-1
    // propagates through zero further applications of the dynamics), so
    // C(s) corresponds to M^{s-1} for FOS and Q(s-1) for SOS (Lemma 6):
    // the row stream is used *before* advancing for both schemes.
    for (node_id k = 0; k < g.num_nodes(); ++k) {
        contribution_rows rows(g, config.alpha, config.speeds, scheme, k);
        double predicted = 0.0;
        for (int s = 1; s <= rounds; ++s) {
            // rows.row() holds M^{s-1} (FOS) or Q(s-1) (SOS).
            const auto& e = errors[static_cast<std::size_t>(rounds - s)];
            for (node_id i = 0; i < g.num_nodes(); ++i)
                for (half_edge_id h = g.half_edge_begin(i);
                     h < g.half_edge_end(i); ++h) {
                    const node_id j = g.head(h);
                    if (i < j) // canonical orientation: each edge once
                        predicted += e[h] * rows.contribution(i, j);
                }
            rows.advance();
        }
        const double actual = static_cast<double>(discrete.load()[k]) -
                              continuous.load()[k];
        EXPECT_NEAR(actual, predicted, tolerance) << "observer " << k;
    }
}

TEST(Lemma2, FosFloorRoundingOnCycle)
{
    check_lemma2(make_cycle(8), fos_scheme(), rounding_kind::floor,
                 point_load(8, 0, 83), 12, 1e-8);
}

TEST(Lemma2, FosRandomizedRoundingOnTorus)
{
    check_lemma2(make_torus_2d(3, 4), fos_scheme(), rounding_kind::randomized,
                 point_load(12, 0, 997), 10, 1e-8);
}

TEST(Lemma2, FosNearestRoundingOnStar)
{
    check_lemma2(make_star(7), fos_scheme(), rounding_kind::nearest,
                 random_load(7, 153, 3), 15, 1e-8);
}

TEST(Lemma2, SosRandomizedRoundingOnTorus)
{
    const double beta = beta_opt(torus_2d_lambda(3, 4));
    check_lemma2(make_torus_2d(3, 4), sos_scheme(beta),
                 rounding_kind::randomized, point_load(12, 0, 1201), 10, 1e-7);
}

TEST(Lemma2, SosFloorRoundingOnHypercube)
{
    const double beta = beta_opt(hypercube_lambda(3));
    check_lemma2(make_hypercube(3), sos_scheme(beta), rounding_kind::floor,
                 point_load(8, 0, 511), 12, 1e-7);
}

TEST(Lemma2, SosBernoulliRoundingOnCycle)
{
    check_lemma2(make_cycle(6), sos_scheme(1.4), rounding_kind::bernoulli_edge,
                 random_load(6, 300, 9), 14, 1e-7);
}

TEST(Observation3, UpsilonScaleForUniformAlpha)
{
    // alpha = 1/(gamma d) on a d-regular graph:
    // Upsilon = O(sqrt(gamma d / (2 - 2/gamma))). Check the measured value
    // sits within a small constant of the formula on hypercubes.
    for (const int dim : {3, 4, 5}) {
        const graph g = make_hypercube(dim);
        const double gamma = 2.0;
        const auto alpha = make_alpha(g, alpha_policy::uniform_gamma_d, gamma);
        const auto result = refined_local_divergence(
            g, alpha, speed_profile::uniform(g.num_nodes()), fos_scheme(), 0);
        const double formula = std::sqrt(gamma * dim / (2.0 - 2.0 / gamma));
        EXPECT_GT(result.upsilon, 0.3 * formula) << "dim " << dim;
        EXPECT_LT(result.upsilon, 4.0 * formula) << "dim " << dim;
    }
}

TEST(Theorem8, DeterministicSosDeviationEnvelope)
{
    // |x^D(t) - x^SOS(t)| = O(d sqrt(n s_max) / (1-lambda)) for any
    // floor/ceiling rounding. Generously check the nearest-rounding run.
    const node_id side = 8;
    const graph g = make_torus_2d(side, side);
    const double lambda = torus_2d_lambda(side, side);
    const diffusion_config config{
        &g, make_alpha(g, alpha_policy::max_degree_plus_one),
        speed_profile::uniform(g.num_nodes()), sos_scheme(beta_opt(lambda))};

    discrete_process discrete(config, point_load(64, 0, 64000),
                              rounding_kind::nearest, 5);
    continuous_process continuous(config, to_continuous(point_load(64, 0, 64000)));
    double worst = 0.0;
    for (int t = 0; t < 500; ++t) {
        discrete.step();
        continuous.step();
        worst = std::max(worst, max_deviation(discrete.load(), continuous.load()));
    }
    const double envelope = 4.0 * std::sqrt(64.0) / (1.0 - lambda);
    EXPECT_LT(worst, envelope);
    EXPECT_GT(worst, 0.0); // rounding does perturb the trajectory
}

TEST(Lemma1, GeneralizedLinearityWithSpeeds)
{
    // Definition 4 linearity for the heterogeneous SOS operator.
    const graph g = make_torus_2d(3, 3);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const speed_profile speeds =
        speed_profile::from_vector({1, 2, 3, 1, 2, 3, 1, 2, 3});
    const double beta = 1.6;

    auto flows_for = [&](const std::vector<double>& x,
                         const std::vector<double>& y) {
        // Heterogeneous rule consumes x/s.
        std::vector<double> x_over_s(9);
        for (node_id v = 0; v < 9; ++v) x_over_s[v] = x[v] / speeds.speed(v);
        std::vector<double> out(static_cast<std::size_t>(g.num_half_edges()));
        scheduled_flows(g, alpha, sos_scheme(beta), 5, x_over_s, y, out,
                        default_executor());
        return out;
    };

    xoshiro256ss rng{31};
    std::vector<double> x1(9), x2(9);
    for (auto& v : x1) v = rng.next_double() * 10;
    for (auto& v : x2) v = rng.next_double() * 10;
    std::vector<double> y1(static_cast<std::size_t>(g.num_half_edges()), 0.0);
    std::vector<double> y2(y1.size(), 0.0);
    for (half_edge_id h = 0; h < g.num_half_edges(); ++h) {
        const half_edge_id tw = g.twin(h);
        if (h < tw) {
            y1[h] = rng.next_double() - 0.5;
            y1[tw] = -y1[h];
            y2[h] = rng.next_double() - 0.5;
            y2[tw] = -y2[h];
        }
    }

    const double a = 1.5, b = -0.75;
    std::vector<double> x_combo(9), y_combo(y1.size());
    for (std::size_t i = 0; i < 9; ++i) x_combo[i] = a * x1[i] + b * x2[i];
    for (std::size_t i = 0; i < y_combo.size(); ++i)
        y_combo[i] = a * y1[i] + b * y2[i];

    const auto f1 = flows_for(x1, y1);
    const auto f2 = flows_for(x2, y2);
    const auto combo = flows_for(x_combo, y_combo);
    for (std::size_t i = 0; i < combo.size(); ++i)
        EXPECT_NEAR(combo[i], a * f1[i] + b * f2[i], 1e-10);
}

} // namespace
} // namespace dlb
