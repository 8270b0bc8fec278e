// The reference round kernels, engine steps, Lanczos solver and graph
// build, kept as bitwise oracles for the golden determinism suite
// (tests/test_golden_determinism.cpp), the solver tests
// (tests/test_lanczos.cpp) and the graph tests (tests/test_graph.cpp), and
// as baselines for the kernel microbenchmarks (bench/bench_micro_step.cpp).
// Each is the plain two-sided, early-exit, multi-pass or globally sorted
// form of a library kernel, and must produce exactly the library kernel's
// bits.
#ifndef DLB_TESTS_REFERENCE_KERNELS_HPP
#define DLB_TESTS_REFERENCE_KERNELS_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/executor.hpp"
#include "core/rounding.hpp"
#include "core/scheme.hpp"
#include "core/speeds.hpp"
#include "graph/graph.hpp"
#include "linalg/lanczos.hpp"

namespace dlb {

/// The paper-default alpha, 1/(max(d_u, d_v) + 1), as one weight per
/// half-edge computed by a plain loop: a reference that never goes through
/// the library's alpha_weights.
std::vector<double> alpha_reference(const graph& g);

/// The two-sided flow rule: evaluates every half-edge independently, with
/// the relaxation factor recomputed from scratch.
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

/// One plain continuous round on continuous_process's checkpoint state:
/// x/s per node, scheduled_flows_reference, then every node subtracts its
/// flows in slot order, and the negative-load stats take the round's
/// minima. The Chebyshev omega is recomputed from scratch.
void continuous_step_reference(const graph& g, std::span<const double> alpha,
                               const speed_profile& speeds,
                               continuous_engine_state& state, executor& exec);

/// One cumulative-baseline round on cumulative_process's checkpoint state,
/// in four passes after continuous_step_reference on the twin: accumulate
/// the continuous flows, apply round(cumC) - cumD from each edge's
/// canonical side (the other side negates its twin's) into a transient
/// vector, commit the canonical counters, mirror them, then a serial
/// minimum scan.
void cumulative_step_reference(const graph& g, std::span<const double> alpha,
                               const speed_profile& speeds,
                               cumulative_engine_state& state, executor& exec);

/// A symmetric operator of dimension n as the reference solver takes it:
/// y = A x.
using reference_operator =
    std::function<void(std::span<const double>, std::span<double>)>;

/// The three-term Lanczos solver as one opaque operator call per step plus
/// separate axpy, dot, projection and scale passes, with the same calls
/// regenerating the vectors for the true-residual check. The library's
/// fused sweeps must return its largest, smallest, iterations, residual and
/// converged bit for bit; it does not count operator applications.
lanczos_result lanczos_reference(const reference_operator& apply, std::size_t n,
                                 std::span<const std::vector<double>> deflate,
                                 int max_steps = kLanczosMaxSteps);

/// The CSR arrays and degree extremes of one graph build.
struct csr_reference {
    std::vector<half_edge_id> offsets; // size n+1
    std::vector<node_id> adjacency;    // size 2|E|, per-node ascending
    std::vector<half_edge_id> twins;   // size 2|E|
    std::int32_t max_degree = 0;
    std::int32_t min_degree = 0;
};

/// The sort-based CSR build: both directions of every edge as (tail, head)
/// pairs in one vector, one global sort, then the twin of each half-edge
/// by binary search in its head's slice. With `dedup` false it is
/// graph::from_edge_list (self-loops, duplicates and endpoints outside
/// [0, num_nodes) throw std::invalid_argument); with `dedup` true it is
/// graph::from_edge_list_dedup (self-loops and duplicates are dropped).
csr_reference build_csr_reference(node_id num_nodes, std::span<const edge> edges,
                                  bool dedup);

} // namespace dlb

#endif // DLB_TESTS_REFERENCE_KERNELS_HPP
