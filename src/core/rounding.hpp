// Rounding schemes that turn the continuous scheduled flows Yhat into
// integral token movements (paper Definition 1 and Section III-B).
//
// The randomized schemes round only the positive direction of each edge (the
// node with outgoing scheduled flow "owns" it) and mirror the result to the
// twin half-edge; floor and nearest round both directions in one sweep, the
// negative side the exact negation of the positive one. Either way
// antisymmetry holds exactly.
//
//  * randomized    — the paper's framework R(C): floor every outgoing flow,
//                    gather the fractional parts r, take ceil(r) excess
//                    tokens, send each with probability r/ceil(r) to
//                    neighbor j with probability {Yhat_ij}/r. Unbiased
//                    (Observation 1: E[error] = 0).
//  * floor         — always round down [Sauerwald & Sun, FOCS'12 style].
//  * nearest       — deterministic round-half-away-from-zero.
//  * bernoulli_edge— per-edge independent randomized rounding:
//                    floor + Bernoulli(fractional part) [Friedrich et al.].
//
// All randomness comes from the stateless per-(seed, node, round) draws of
// util/rng.hpp, computed inline per token or edge, so outcomes are
// independent of thread count and fully reproducible. Golden vectors in
// tests/test_rng_golden.cpp pin the outputs of both randomized schemes.
#ifndef DLB_CORE_ROUNDING_HPP
#define DLB_CORE_ROUNDING_HPP

#include <cstdint>
#include <span>
#include <string_view>

#include "core/executor.hpp"
#include "graph/graph.hpp"

namespace dlb {

enum class rounding_kind {
    randomized,     // paper Section III-B framework
    floor,          // always round down
    nearest,        // round half away from zero
    bernoulli_edge, // independent per-edge randomized rounding
};

std::string_view to_string(rounding_kind kind) noexcept;

/// Rounds scheduled flows to integer flows with the chosen scheme.
/// `scheduled` and `flows_out` are per-half-edge; `scheduled` must be
/// antisymmetric. `seed`/`round` select the deterministic random streams
/// (unused by the deterministic schemes).
///
/// floor/nearest round both directions of every edge in one node-parallel
/// sweep (the negative side is the exact negation of the positive side's
/// rounding, so no mirror pass is needed); the randomized schemes keep the
/// owner-side pass — the owner's RNG decides — and mirror once per
/// canonical edge instead of rescanning all half-edges.
void round_flows(const graph& g, rounding_kind kind,
                 std::span<const double> scheduled, std::uint64_t seed,
                 std::int64_t round, std::span<std::int64_t> flows_out,
                 executor& exec);

/// Engine fast path: the randomized owner pass alone, without the mirror
/// sweep — only owner (positive-scheduled) sides are written, zeros
/// elsewhere; the discrete engine's apply sweep derives every negative
/// side as its owner's negation. Owner-side values are bit-identical to
/// round_flows(randomized).
void round_flows_randomized_owner(const graph& g,
                                  std::span<const double> scheduled,
                                  std::uint64_t seed, std::int64_t round,
                                  std::span<std::int64_t> flows_out,
                                  executor& exec);

} // namespace dlb

#endif // DLB_CORE_ROUNDING_HPP
