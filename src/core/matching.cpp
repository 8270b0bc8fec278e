#include "core/matching.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"

namespace dlb {

matching_process::matching_process(const graph& g,
                                   std::vector<std::int64_t> initial_load,
                                   std::uint64_t seed)
    : graph_(g), seed_(seed), load_(std::move(initial_load)),
      edges_(g.edge_list())
{
    if (load_.size() != static_cast<std::size_t>(g.num_nodes()))
        throw std::invalid_argument("matching_process: load size mismatch");
    shuffle_.resize(edges_.size());
    matched_.assign(static_cast<std::size_t>(g.num_nodes()), 0);
    initial_total_ = std::accumulate(load_.begin(), load_.end(), std::int64_t{0});
}

std::int64_t matching_process::total_load() const
{
    return std::accumulate(load_.begin(), load_.end(), std::int64_t{0});
}

void matching_process::step()
{
    // Deterministic per-round randomness: one counter substream drives the
    // edge permutation and the per-pair tie coins.
    counter_rng rng(seed_, 0xedbe5u, static_cast<std::uint64_t>(round_));
    std::iota(shuffle_.begin(), shuffle_.end(), 0);
    for (std::size_t i = shuffle_.size(); i > 1; --i)
        std::swap(shuffle_[i - 1], shuffle_[rng.next_below(i)]);

    std::fill(matched_.begin(), matched_.end(), 0);
    last_matching_size_ = 0;

    for (const std::int32_t index : shuffle_) {
        const auto [u, v] = edges_[static_cast<std::size_t>(index)];
        if (matched_[u] || matched_[v]) continue;
        matched_[u] = 1;
        matched_[v] = 1;
        ++last_matching_size_;

        const std::int64_t sum = load_[u] + load_[v];
        std::int64_t half = sum / 2;
        std::int64_t other = sum - half;
        if (half != other && rng.next_bernoulli(0.5)) std::swap(half, other);
        load_[u] = half;
        load_[v] = other;
    }

    double min_end = load_.empty() ? 0.0 : static_cast<double>(load_.front());
    for (const std::int64_t value : load_)
        min_end = std::min(min_end, static_cast<double>(value));
    negative_.min_end_of_round_load =
        std::min(negative_.min_end_of_round_load, min_end);
    negative_.min_transient_load =
        std::min(negative_.min_transient_load, min_end);
    if (min_end < 0.0) ++negative_.rounds_with_negative_end_load;

    ++round_;
}

void matching_process::run(std::int64_t count)
{
    for (std::int64_t i = 0; i < count; ++i) step();
}

} // namespace dlb
