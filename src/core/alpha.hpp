// alpha_ij edge diffusion parameters (paper Section II).
//
// The paper's default is alpha_ij = 1/(max(d_i, d_j) + 1); Observation 3
// additionally covers alpha_ij = 1/(gamma * d) with d the maximum degree.
//
// alpha_weights holds them the way speed_profile holds speeds. When every
// half-edge has the same weight (always under uniform_gamma_d, and under
// the paper default on a regular graph, the torus and hypercube included)
// it is one double and costs 0 bytes per half-edge. Otherwise it is one
// per-half-edge vector behind a shared pointer: copying a diffusion_config
// into an engine, a continuous twin or a windows replay shares it, so a run
// holds at most 8 bytes of alpha per half-edge. The kernels pick a scalar
// or pointer view once per sweep (with_alpha_view). Weights are symmetric
// by construction.
#ifndef DLB_CORE_ALPHA_HPP
#define DLB_CORE_ALPHA_HPP

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace dlb {

enum class alpha_policy {
    max_degree_plus_one, // 1 / (max(d_i, d_j) + 1)  — paper default
    uniform_gamma_d,     // 1 / (gamma * max_degree) — Observation 3
};

class alpha_weights {
public:
    /// Every one of `half_edges` half-edges weighs `value`.
    static alpha_weights uniform(half_edge_id half_edges, double value);

    /// Explicit per-half-edge weights, held as given (never collapsed to
    /// one value) and shared by every copy.
    static alpha_weights from_vector(std::vector<double> weights);

    /// Half-edges covered.
    std::size_t size() const noexcept { return size_; }
    bool is_uniform() const noexcept { return weights_ == nullptr; }

    double operator[](half_edge_id h) const noexcept
    {
        return weights_ == nullptr ? value_ : (*weights_)[h];
    }

    /// The one weight of a uniform alpha.
    double value() const noexcept { return value_; }

    /// The per-half-edge weights; empty when uniform.
    std::span<const double> weights() const noexcept
    {
        return weights_ == nullptr ? std::span<const double>{}
                                   : std::span<const double>(*weights_);
    }

private:
    std::size_t size_ = 0;
    double value_ = 0.0;
    std::shared_ptr<const std::vector<double>> weights_; // null <=> uniform
};

/// The kernels' views of alpha_weights: indexing either returns the one
/// value or loads the half-edge's weight.
struct uniform_alpha {
    double value;
    double operator[](half_edge_id) const noexcept { return value; }
};

struct explicit_alpha {
    const double* weights;
    double operator[](half_edge_id h) const noexcept { return weights[h]; }
};

/// Calls f(uniform_alpha) or f(explicit_alpha): the runtime representation
/// selects one compile-time instantiation of the caller's sweep.
template <class F>
decltype(auto) with_alpha_view(const alpha_weights& alpha, F&& f)
{
    if (alpha.is_uniform()) return f(uniform_alpha{alpha.value()});
    return f(explicit_alpha{alpha.weights().data()});
}

/// Builds the alpha weights of `policy`. For uniform_gamma_d, `gamma` must
/// be > 1 so that the diagonal 1 - d_i/(gamma d) stays positive
/// (gamma = 2 gives the lazy random walk); the paper uses gamma > 1 to
/// keep |lambda| < 1 on bipartite graphs. max_degree_plus_one on a regular
/// graph is the uniform 1/(d + 1), with the bits of the per-half-edge
/// formula and no per-half-edge pass.
alpha_weights make_alpha(const graph& g, alpha_policy policy, double gamma = 2.0);

/// Validity check: every alpha positive and symmetric, and
/// sum_j alpha_ij < 1 + tolerance for every node (needed for a nonnegative
/// diffusion-matrix diagonal).
bool alpha_is_valid(const graph& g, const alpha_weights& alpha,
                    double tolerance = 1e-12);

} // namespace dlb

#endif // DLB_CORE_ALPHA_HPP
