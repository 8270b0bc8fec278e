#include "sim/initial_load.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"

namespace dlb {

std::vector<std::int64_t> point_load(node_id n, node_id at, std::int64_t total)
{
    if (at < 0 || at >= n) throw std::invalid_argument("point_load: bad node");
    if (total < 0) throw std::invalid_argument("point_load: negative total");
    std::vector<std::int64_t> load(static_cast<std::size_t>(n), 0);
    load[at] = total;
    return load;
}

std::vector<std::int64_t> balanced_load(node_id n, std::int64_t per_node)
{
    if (per_node < 0) throw std::invalid_argument("balanced_load: negative load");
    return std::vector<std::int64_t>(static_cast<std::size_t>(n), per_node);
}

std::vector<std::int64_t> random_load(node_id n, std::int64_t total,
                                      std::uint64_t seed)
{
    if (total < 0) throw std::invalid_argument("random_load: negative total");
    std::vector<std::int64_t> load(static_cast<std::size_t>(n), 0);
    auto rng = tagged_rng(seed, 0x10adu);
    for (std::int64_t token = 0; token < total; ++token)
        ++load[rng.next_below(static_cast<std::uint64_t>(n))];
    return load;
}

std::vector<std::int64_t> proportional_load(const std::vector<double>& speeds,
                                            std::int64_t total)
{
    const double speed_sum = std::accumulate(speeds.begin(), speeds.end(), 0.0);
    std::vector<std::int64_t> load(speeds.size(), 0);
    std::int64_t assigned = 0;
    for (std::size_t v = 0; v < speeds.size(); ++v) {
        load[v] = static_cast<std::int64_t>(
            std::floor(static_cast<double>(total) * speeds[v] / speed_sum));
        assigned += load[v];
    }
    // Spread the remainder one token at a time.
    for (std::size_t v = 0; assigned < total; v = (v + 1) % speeds.size()) {
        ++load[v];
        ++assigned;
    }
    return load;
}

std::vector<double> to_continuous(const std::vector<std::int64_t>& load)
{
    return {load.begin(), load.end()};
}

} // namespace dlb
