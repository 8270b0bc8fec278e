// Live per-shard progress heartbeats with a cost-model-driven ETA.
//
// A multi-hour sharded sweep is invisible between launch and merge without
// this: `--progress[=SECS]` prints one stderr line per period with the
// scenarios completed, the elapsed wall clock, and an ETA extrapolated
// from the campaign scheduler's per-scenario cost model — the same model
// `--shard` partitions with, so a drifting ETA *is* a calibration
// signal. Each completed scenario contributes a
// predicted-vs-actual residual (actual seconds / predicted cost, i.e. the
// realized seconds-per-cost-unit); the heartbeat reports the spread so a
// mis-calibrated weight table shows up live, and the final summary line
// gives the fitted rate the calibration table can be re-fit against
// (pair it with --timing's per-scenario predicted_cost/wall_seconds
// columns for the full regression).
//
// The meter is pure observability: it only reads completion counts pushed
// by the executor, writes only to its own stream, and the heartbeat thread
// never touches engines, RNG or reports — output bytes are identical with
// or without it.
#ifndef DLB_OBS_PROGRESS_HPP
#define DLB_OBS_PROGRESS_HPP

#include <cstdint>
#include <iosfwd>
#include <thread>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace dlb::obs {

class progress_meter {
public:
    struct options {
        double period_seconds = 10.0; // heartbeat interval
        std::ostream* out = nullptr;  // destination (caller keeps it alive)
        std::int64_t shard_index = 0; // echoed in the line prefix
        std::int64_t shard_count = 1;
    };

    /// Starts the heartbeat thread. `total_scenarios`/`total_cost` size the
    /// denominator and the ETA (cost in scenario_cost units).
    progress_meter(options opts, std::int64_t total_scenarios,
                   double total_cost);

    /// Stops the heartbeat thread and prints the final summary line.
    ~progress_meter();

    progress_meter(const progress_meter&) = delete;
    progress_meter& operator=(const progress_meter&) = delete;

    /// Reports one completed scenario (thread-safe; called by the campaign
    /// workers). `predicted_cost` is the scheduler's scenario_cost and
    /// `wall_seconds` the measured run time; `failed` scenarios count
    /// toward progress but not toward the rate fit.
    void scenario_done(double predicted_cost, double wall_seconds, bool failed);

    /// Queue-wide counters for lease-mode runs (thread-safe). When set, the
    /// heartbeat line appends a `queue:` view — scenarios completed across
    /// *all* workers plus this worker's lease activity (stolen = scenarios
    /// this worker completed after another holder leased them first,
    /// re-leased = leases this worker took over from a dead/expired holder).
    void set_queue_view(std::int64_t queue_done, std::int64_t queue_leased,
                        std::int64_t stolen, std::int64_t re_leased);

private:
    void heartbeat_loop();
    void print_line(std::ostream& out, bool final_line) DLB_REQUIRES(mutex_);

    options options_;
    std::int64_t total_scenarios_;
    double total_cost_;
    std::int64_t start_ns_;

    mutex mutex_;
    condition_variable stop_cv_;
    bool stopping_ DLB_GUARDED_BY(mutex_) = false;
    std::int64_t done_ DLB_GUARDED_BY(mutex_) = 0;
    std::int64_t failed_ DLB_GUARDED_BY(mutex_) = 0;
    // Predicted cost of completed scenarios / sum of their wall seconds.
    double done_cost_ DLB_GUARDED_BY(mutex_) = 0.0;
    double done_seconds_ DLB_GUARDED_BY(mutex_) = 0.0;
    // Per-scenario residuals: actual seconds per predicted cost unit.
    std::vector<double> rates_ DLB_GUARDED_BY(mutex_);
    // Lease-queue view (valid when queue_view_ is true).
    bool queue_view_ DLB_GUARDED_BY(mutex_) = false;
    std::int64_t queue_done_ DLB_GUARDED_BY(mutex_) = 0;
    std::int64_t queue_leased_ DLB_GUARDED_BY(mutex_) = 0;
    std::int64_t queue_stolen_ DLB_GUARDED_BY(mutex_) = 0;
    std::int64_t queue_re_leased_ DLB_GUARDED_BY(mutex_) = 0;

    std::thread ticker_;
};

} // namespace dlb::obs

#endif // DLB_OBS_PROGRESS_HPP
