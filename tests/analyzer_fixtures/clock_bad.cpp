// Fixture: direct clock reads outside util/timer.hpp must be flagged.
// analyze-expect: clock
// analyze-expect: clock
#include <chrono>

long long bad_timestamp()
{
    auto t = std::chrono::steady_clock::now(); // flagged: clock
    auto w = std::chrono::system_clock::now(); // flagged: clock
    return t.time_since_epoch().count() + w.time_since_epoch().count();
}
