// Random-matching dimension exchange (Ghosh & Muthukrishnan, reference [17]
// of the paper): an alternative discrete balancing circuit used here as a
// comparison baseline to diffusion.
//
// Each round a random matching of the graph is drawn; every matched pair
// {i, j} averages its tokens, the odd token (if any) going to either side
// with probability 1/2. Unlike diffusion, a node balances with at most one
// neighbor per round, so per-round communication is lower but convergence
// takes a factor ~d longer on dense graphs.
#ifndef DLB_CORE_MATCHING_HPP
#define DLB_CORE_MATCHING_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/process.hpp"
#include "graph/graph.hpp"

namespace dlb {

class matching_process {
public:
    /// Homogeneous only (the classical algorithm): speeds in `config` must
    /// be uniform, the scheme field is ignored.
    matching_process(const graph& g, std::vector<std::int64_t> initial_load,
                     std::uint64_t seed);

    void step();
    void run(std::int64_t count);

    std::int64_t round() const noexcept { return round_; }
    std::span<const std::int64_t> load() const noexcept { return load_; }

    std::int64_t total_load() const;
    std::int64_t initial_total() const noexcept { return initial_total_; }
    bool verify_conservation() const { return total_load() == initial_total_; }

    /// Number of pairs matched in the last round.
    std::int64_t last_matching_size() const noexcept { return last_matching_size_; }

    /// Matchings never drive loads negative; exposed for symmetric APIs.
    const negative_load_stats& negative_stats() const noexcept { return negative_; }

    /// No-op: matchings have a single scheme. Present so the generic
    /// harness templates compile against this engine too.
    void set_scheme(scheme_params) {}

private:
    const graph& graph_;
    std::uint64_t seed_;
    std::vector<std::int64_t> load_;
    std::vector<edge> edges_;          // canonical edge list
    std::vector<std::int32_t> shuffle_; // scratch permutation
    std::vector<std::int8_t> matched_;  // scratch per-node flag
    std::int64_t round_ = 0;
    std::int64_t initial_total_ = 0;
    std::int64_t last_matching_size_ = 0;
    negative_load_stats negative_;
};

} // namespace dlb

#endif // DLB_CORE_MATCHING_HPP
