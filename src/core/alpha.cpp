#include "core/alpha.hpp"

#include <algorithm>
#include <stdexcept>

namespace dlb {

alpha_weights alpha_weights::uniform(half_edge_id half_edges, double value)
{
    if (half_edges < 0)
        throw std::invalid_argument("alpha_weights: negative size");
    alpha_weights alpha;
    alpha.size_ = static_cast<std::size_t>(half_edges);
    alpha.value_ = value;
    return alpha;
}

alpha_weights alpha_weights::from_vector(std::vector<double> weights)
{
    alpha_weights alpha;
    alpha.size_ = weights.size();
    alpha.weights_ =
        std::make_shared<const std::vector<double>>(std::move(weights));
    return alpha;
}

alpha_weights make_alpha(const graph& g, alpha_policy policy, double gamma)
{
    switch (policy) {
    case alpha_policy::max_degree_plus_one: {
        if (g.min_degree() == g.max_degree())
            return alpha_weights::uniform(g.num_half_edges(),
                                          1.0 / (g.max_degree() + 1.0));
        std::vector<double> alpha(static_cast<std::size_t>(g.num_half_edges()));
        for (node_id v = 0; v < g.num_nodes(); ++v) {
            const auto dv = g.degree(v);
            for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h) {
                const auto du = g.degree(g.head(h));
                alpha[h] = 1.0 / (std::max(dv, du) + 1.0);
            }
        }
        return alpha_weights::from_vector(std::move(alpha));
    }
    case alpha_policy::uniform_gamma_d:
        if (gamma <= 1.0)
            throw std::invalid_argument("make_alpha: gamma must be > 1");
        return alpha_weights::uniform(g.num_half_edges(),
                                      1.0 / (gamma * g.max_degree()));
    }
    throw std::invalid_argument("make_alpha: unknown policy");
}

bool alpha_is_valid(const graph& g, const alpha_weights& alpha, double tolerance)
{
    if (alpha.size() != static_cast<std::size_t>(g.num_half_edges())) return false;
    for (half_edge_id h = 0; h < g.num_half_edges(); ++h) {
        if (!(alpha[h] > 0.0)) return false;
        if (alpha[h] != alpha[g.twin(h)]) return false;
    }
    for (node_id v = 0; v < g.num_nodes(); ++v) {
        double sum = 0.0;
        for (half_edge_id h = g.half_edge_begin(v); h < g.half_edge_end(v); ++h)
            sum += alpha[h];
        if (sum > 1.0 + tolerance) return false;
    }
    return true;
}

} // namespace dlb
