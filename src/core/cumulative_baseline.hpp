// The cumulative-flow discretization baseline of Akbari, Berenbrink &
// Sauerwald (PODC'12) — reference [2] of the paper.
//
// A continuous process runs internally; the discrete process forwards on
// each edge exactly as many tokens as needed to keep its *cumulative* flow
// within 1/2 of the continuous cumulative flow. This achieves deviation
// O(d) but is not stateless: the flow depends on the entire history via the
// cumulative counters, and the continuous state must be simulated alongside.
// The paper uses it as the comparison point for its stateless randomized
// framework (Result I discussion), so it is reproduced here as a baseline.
//
// A round is the continuous twin's step plus one node sweep in which every
// node updates the two counters of its own half-edges and applies their
// flows. Both counters stay antisymmetric, so the two sides of an edge
// agree without reading each other.
#ifndef DLB_CORE_CUMULATIVE_BASELINE_HPP
#define DLB_CORE_CUMULATIVE_BASELINE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "core/process.hpp"

namespace dlb {

struct cumulative_engine_state; // core/checkpoint.hpp

class cumulative_process {
public:
    /// A non-null `scratch` lends this engine and its internal continuous
    /// twin their working arrays (returned on destruction); results are
    /// byte-identical with or without it.
    cumulative_process(diffusion_config config,
                       std::span<const std::int64_t> initial_load,
                       executor* exec = nullptr,
                       engine_scratch* scratch = nullptr);
    ~cumulative_process();

    cumulative_process(const cumulative_process&) = delete;
    cumulative_process& operator=(const cumulative_process&) = delete;

    void step();
    void run(std::int64_t count);

    std::int64_t round() const noexcept { return round_; }
    std::span<const std::int64_t> load() const noexcept { return load_; }

    /// The internal continuous process the discretization follows.
    const continuous_process& continuous_twin() const noexcept { return continuous_; }

    std::int64_t total_load() const;
    std::int64_t initial_total() const noexcept { return initial_total_; }
    bool verify_conservation() const
    {
        return total_load() == initial_total_ + external_total_;
    }

    /// Applies an external per-node load change to the discrete state and
    /// the internal continuous twin, so the cumulative-flow discretization
    /// keeps following a target with the same total.
    void inject(std::span<const std::int64_t> delta);

    /// Net externally injected tokens since construction.
    std::int64_t external_total() const noexcept { return external_total_; }

    const negative_load_stats& negative_stats() const noexcept { return negative_; }

    /// max_h |cumulative_discrete - cumulative_continuous| — bounded by 1/2
    /// by construction (invariant checked in tests).
    double max_cumulative_error() const;

    void set_scheme(scheme_params scheme);

    /// Checkpoint support (core/checkpoint.hpp): capture / reinstate the
    /// evolving state of this engine and its continuous twin. restore
    /// validates shapes and throws std::invalid_argument on mismatch.
    void save_checkpoint(cumulative_engine_state& out) const;
    void restore_checkpoint(const cumulative_engine_state& state);

private:
    continuous_process continuous_;
    const graph* network_;
    executor* exec_;
    engine_scratch* scratch_;
    aligned_vector<std::int64_t> load_;
    aligned_vector<double> cumulative_continuous_;   // per half-edge
    aligned_vector<std::int64_t> cumulative_discrete_; // per half-edge
    std::int64_t round_ = 0;
    std::int64_t initial_total_ = 0;
    std::int64_t external_total_ = 0;
    negative_load_stats negative_;
};

} // namespace dlb

#endif // DLB_CORE_CUMULATIVE_BASELINE_HPP
