// Fixture: an allow marker without a reason is itself a finding.
// analyze-expect: empty-allow-reason
#include <chrono>

long long unexplained()
{
    auto t = std::chrono::steady_clock::now(); // dlb-analyzer: allow(clock)
    return t.time_since_epoch().count();
}
