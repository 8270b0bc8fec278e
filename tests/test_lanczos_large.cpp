// The Lanczos solver at the paper's scale: the 1024^2 torus (2^20 nodes)
// against its closed form. About a minute and 250 MB on a 4-vCPU host, so
// ctest labels it `large`; `ctest -LE large` leaves it out.
#include <gtest/gtest.h>

#include "core/alpha.hpp"
#include "core/diffusion_matrix.hpp"
#include "core/speeds.hpp"
#include "graph/generators.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/spectra.hpp"

namespace dlb {
namespace {

TEST(LanczosLarge, TorusLambdaMatchesAnalyticAtPaperScale)
{
    const graph g = make_torus_2d(1024, 1024);
    const auto alpha = make_alpha(g, alpha_policy::max_degree_plus_one);
    const double lambda =
        compute_lambda(g, alpha, speed_profile::uniform(g.num_nodes()));
    EXPECT_NEAR(lambda, torus_2d_lambda(1024, 1024), kLanczosTolerance);
}

} // namespace
} // namespace dlb
