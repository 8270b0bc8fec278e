// Sparse symmetric linear operator on graph structure.
//
// Represents A = diag(diagonal) + sum over half-edges h=(u->v) of
// weight[h] * E_{u,v}. The diffusion layer builds the (symmetrized)
// diffusion matrix in this form. One row kernel computes (A x)_v:
// diagonal[v] * x[v], then += weight[h] * x[head(h)] over v's half-edges in
// slice order. apply() writes its rows out; the Lanczos solver's node
// sweeps (linalg/lanczos.hpp) consume each row where it is made, so every
// row carries the same rounded operations on both paths.
#ifndef DLB_LINALG_SPARSE_OP_HPP
#define DLB_LINALG_SPARSE_OP_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace dlb {

class sparse_op {
public:
    sparse_op() = default;

    /// `weights` has one entry per half-edge (g.num_half_edges()); symmetry
    /// (weights[h] == weights[twin(h)]) is the caller's responsibility and
    /// is validated in debug builds by is_symmetric().
    sparse_op(const graph* g, std::vector<double> diagonal,
              std::vector<double> weights);

    std::size_t dimension() const noexcept { return diagonal_.size(); }

    /// y = A x.
    void apply(std::span<const double> x, std::span<double> y) const;

    /// Calls visit(v, row) for every node v in ascending order, with row =
    /// (A x)_v summed as diagonal[v] * x[v], then += weight[h] * x[head(h)]
    /// over v's half-edges in slice order. The node slices come from
    /// for_each_node_slice, so a 4-regular graph runs fixed-degree rows.
    /// x has dimension() entries; visit may write any array but x.
    template <class Visit>
    [[gnu::always_inline]] inline void for_each_row(const double* x,
                                                    Visit&& visit) const
    {
        const graph& g = *graph_;
        const double* diagonal = diagonal_.data();
        const double* weights = weights_.data();
        for_each_node_slice(
            g, 0, g.num_nodes(),
            [&](auto degree_tag, node_id v, half_edge_id first,
                std::int32_t dynamic_degree) {
                constexpr std::int32_t static_degree =
                    decltype(degree_tag)::value;
                const std::int32_t degree =
                    static_degree != 0 ? static_degree : dynamic_degree;
                double row = diagonal[v] * x[v];
                for (std::int32_t j = 0; j < degree; ++j)
                    row += weights[first + j] * x[g.head(first + j)];
                visit(v, row);
            });
    }

    std::vector<double> apply(std::span<const double> x) const;

    /// max_h |w[h] - w[twin(h)]| — zero for a symmetric operator.
    double symmetry_defect() const;

    const graph& underlying_graph() const noexcept { return *graph_; }
    std::span<const double> diagonal() const noexcept { return diagonal_; }
    std::span<const double> weights() const noexcept { return weights_; }

private:
    const graph* graph_ = nullptr;
    std::vector<double> diagonal_;
    std::vector<double> weights_;
};

} // namespace dlb

#endif // DLB_LINALG_SPARSE_OP_HPP
