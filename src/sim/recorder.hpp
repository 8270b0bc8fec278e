// Time-series container and CSV/console output for experiment runs.
#ifndef DLB_SIM_RECORDER_HPP
#define DLB_SIM_RECORDER_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/process.hpp"

namespace dlb {

/// Per-round metric series recorded by the runner (paper Section VI
/// metrics 1-3 and 5, plus deviation when a continuous twin runs). The
/// recorded_series base (core/metrics.hpp) is what a checkpoint carries.
struct time_series : recorded_series {
    std::vector<double> deviation_from_twin;  // empty unless twin enabled
    negative_load_stats negative;
    double remaining_imbalance = 0.0;         // plateau median (metric 5)
    bool imbalance_converged = false;
};

/// Writes the series as CSV with a fixed column set.
void write_csv(const std::string& path, const time_series& series);

/// Compact human-readable summary (first/last values, minima, plateau).
void print_summary(std::ostream& out, const std::string& label,
                   const time_series& series);

/// Sparse console plot: prints `points` sampled rows of one metric column.
void print_series(std::ostream& out, const std::string& label,
                  const time_series& series,
                  const std::vector<double> time_series::*column,
                  int points = 12);

} // namespace dlb

#endif // DLB_SIM_RECORDER_HPP
