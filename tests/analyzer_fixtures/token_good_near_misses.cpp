// Fixture: deterministic code plus near-misses the analyzer must NOT flag —
// banned names in comments, strings, and as identifier substrings.
// (no analyze-expect lines: this file is clean)
#include <cstdint>
#include <map>
#include <string>

// steady_clock and rand() are banned in code, but this is a comment.
/* so is std::unordered_map<int, int> in a block comment,
   even one that spans lines with system_clock in it. */

double wall_time(double seconds) { return seconds; } // suffix, not time(

std::int64_t report_total(const std::map<std::string, std::int64_t>& rows)
{
    const std::string label = "rand() and time() inside a string literal";
    std::int64_t total = static_cast<std::int64_t>(label.size());
    for (const auto& [name, value] : rows) total += value; // ordered: fine
    const double elapsed = wall_time(2.0); // identifier ends in "time"
    return total + static_cast<std::int64_t>(elapsed);
}
