// Initial load distributions used in the paper's simulations and in the
// test/bench harnesses.
#ifndef DLB_SIM_INITIAL_LOAD_HPP
#define DLB_SIM_INITIAL_LOAD_HPP

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"

namespace dlb {

/// The paper's default: total load `total` all on node `at` (Section VI:
/// "assigning a load of 1000*n to a fixed node v0").
std::vector<std::int64_t> point_load(node_id n, node_id at, std::int64_t total);

/// Perfectly balanced load of `per_node` everywhere.
std::vector<std::int64_t> balanced_load(node_id n, std::int64_t per_node);

/// `total` tokens thrown uniformly at random (multinomial). Deterministic
/// in `seed`; O(total) — intended for test-scale totals.
std::vector<std::int64_t> random_load(node_id n, std::int64_t total,
                                      std::uint64_t seed);

/// Each node draws uniformly from [low, high] (independent), from any
/// generator with next_below.
template <class Rng>
std::vector<std::int64_t> uniform_range_load(node_id n, std::int64_t low,
                                             std::int64_t high, Rng& rng)
{
    if (low > high) throw std::invalid_argument("uniform_range_load: low > high");
    std::vector<std::int64_t> load(static_cast<std::size_t>(n));
    const auto width = static_cast<std::uint64_t>(high - low + 1);
    for (auto& value : load)
        value = low + static_cast<std::int64_t>(rng.next_below(width));
    return load;
}

/// Integer load proportional to speeds with remainder spread left-to-right;
/// the discrete heterogeneous fixed point for tests.
std::vector<std::int64_t> proportional_load(const std::vector<double>& speeds,
                                            std::int64_t total);

std::vector<double> to_continuous(const std::vector<std::int64_t>& load);

} // namespace dlb

#endif // DLB_SIM_INITIAL_LOAD_HPP
