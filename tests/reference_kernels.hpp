// The pre-canonical round kernels, kept as bitwise oracles for the golden
// determinism suite (tests/test_golden_determinism.cpp) and as baselines
// for the kernel microbenchmarks (bench/bench_micro_step.cpp). Each is the
// plain two-sided or early-exit form of a library kernel, and must produce
// exactly the library kernel's bits.
#ifndef DLB_TESTS_REFERENCE_KERNELS_HPP
#define DLB_TESTS_REFERENCE_KERNELS_HPP

#include <cstdint>
#include <span>

#include "core/executor.hpp"
#include "core/rounding.hpp"
#include "core/scheme.hpp"
#include "graph/graph.hpp"

namespace dlb {

/// The two-sided flow rule: evaluates every half-edge independently and
/// reads all of `previous_flows`, not just the canonical entries.
void scheduled_flows_reference(const graph& g, std::span<const double> alpha,
                               scheme_params scheme,
                               std::int64_t rounds_in_scheme,
                               std::span<const double> load_over_speed,
                               std::span<const double> previous_flows,
                               std::span<double> flows_out, executor& exec);

/// Rounding as an owner pass over every half-edge plus a full mirror
/// sweep. The randomized arm walks the fractional edges with an early exit
/// and takes draw_u64(seed, v, round, token) per token; bernoulli_edge
/// takes draw j for slot j of the node.
void round_flows_reference(const graph& g, rounding_kind kind,
                           std::span<const double> scheduled, std::uint64_t seed,
                           std::int64_t round, std::span<std::int64_t> flows_out,
                           executor& exec);

} // namespace dlb

#endif // DLB_TESTS_REFERENCE_KERNELS_HPP
