// Fixture: unordered containers can leak hash-iteration order into a
// report; both the declaration and the iteration line are flagged.
// analyze-expect: unordered
// analyze-expect: unordered
#include <string>
#include <unordered_map>

double sum_metrics(const std::unordered_map<std::string, double>& metrics)
{
    double total = 0.0;
    for (const auto& [name, value] : metrics) total += value;
    return total;
}
