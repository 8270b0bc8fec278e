#include "linalg/sparse_op.hpp"

#include <cmath>
#include <stdexcept>

namespace dlb {

sparse_op::sparse_op(const graph* g, std::vector<double> diagonal,
                     std::vector<double> weights)
    : graph_(g), diagonal_(std::move(diagonal)), weights_(std::move(weights))
{
    if (graph_ == nullptr) throw std::invalid_argument("sparse_op: null graph");
    if (diagonal_.size() != static_cast<std::size_t>(graph_->num_nodes()))
        throw std::invalid_argument("sparse_op: diagonal size mismatch");
    if (weights_.size() != static_cast<std::size_t>(graph_->num_half_edges()))
        throw std::invalid_argument("sparse_op: weights size mismatch");
}

void sparse_op::apply(std::span<const double> x, std::span<double> y) const
{
    if (x.size() != dimension() || y.size() != dimension())
        throw std::invalid_argument("sparse_op::apply: size mismatch");
    double* out = y.data();
    for_each_row(x.data(), [out](node_id v, double row) { out[v] = row; });
}

std::vector<double> sparse_op::apply(std::span<const double> x) const
{
    std::vector<double> y(dimension());
    apply(x, y);
    return y;
}

double sparse_op::symmetry_defect() const
{
    double defect = 0.0;
    for (half_edge_id h = 0; h < graph_->num_half_edges(); ++h)
        defect = std::max(defect,
                          std::abs(weights_[h] - weights_[graph_->twin(h)]));
    return defect;
}

} // namespace dlb
