// SOS -> FOS hybrid switching (paper Section VI-A).
//
// SOS converges fast but its remaining discrete imbalance plateaus above
// FOS's; the paper proposes running SOS first and synchronously switching
// every node to FOS. Three triggers are provided:
//   * at_round        — fixed round R (paper Figures 4, 5, 8)
//   * local_threshold — max local load difference drops below a threshold;
//                       the paper notes this local metric "is also available
//                       in a distributed system"
//   * global_threshold— max load minus average drops below a threshold
//                       (global knowledge; for comparison only)
#ifndef DLB_CORE_HYBRID_HPP
#define DLB_CORE_HYBRID_HPP

#include <cstdint>

#include "core/scheme.hpp"

namespace dlb {

struct switch_policy {
    enum class trigger {
        never,
        at_round,
        local_threshold,
        global_threshold,
    };

    trigger mode = trigger::never;
    std::int64_t round = 0;    // at_round
    double threshold = 0.0;    // *_threshold

    static switch_policy never() { return {}; }
    static switch_policy at(std::int64_t round)
    {
        return {trigger::at_round, round, 0.0};
    }
    static switch_policy when_local_below(double threshold)
    {
        return {trigger::local_threshold, 0, threshold};
    }
    static switch_policy when_global_below(double threshold)
    {
        return {trigger::global_threshold, 0, threshold};
    }
};

/// Stateful one-way switch decision. Query should_switch once per round
/// *before* stepping; once it fires the controller stays switched.
class hybrid_controller {
public:
    explicit hybrid_controller(switch_policy policy) : policy_(policy) {}

    /// `round` is the upcoming round index; metrics are from the current
    /// state. Returns true exactly once, on the triggering round. Threshold
    /// triggers are suppressed on round 0, where the metrics reflect the
    /// initial load rather than any scheme progress.
    bool should_switch(std::int64_t round, double local_difference,
                       double global_difference);

    /// True when should_switch(round, ...) reads its local_difference
    /// argument: an unfired local_threshold trigger past round 0. Callers
    /// may skip measuring the local difference on every other round.
    bool reads_local_difference(std::int64_t round) const noexcept
    {
        return !switched_ &&
               policy_.mode == switch_policy::trigger::local_threshold &&
               round > 0;
    }

    bool switched() const noexcept { return switched_; }
    std::int64_t switch_round() const noexcept { return switch_round_; }
    const switch_policy& policy() const noexcept { return policy_; }

    /// Checkpoint support: reinstate the one-way switch state so a resumed
    /// run neither re-fires a past switch nor forgets one.
    void restore(bool switched, std::int64_t switch_round) noexcept
    {
        switched_ = switched;
        switch_round_ = switch_round;
    }

private:
    switch_policy policy_;
    bool switched_ = false;
    std::int64_t switch_round_ = -1;
};

} // namespace dlb

#endif // DLB_CORE_HYBRID_HPP
