// Fixture: ambient entropy / process state outside util/rng.hpp.
// analyze-expect: raw-random
// analyze-expect: raw-random
// analyze-expect: raw-random
#include <cstdlib>
#include <ctime>
#include <random>

unsigned bad_seed()
{
    std::random_device entropy;            // flagged: raw-random
    std::srand(static_cast<unsigned>(std::time(nullptr))); // flagged (srand + time, one line)
    return entropy() + static_cast<unsigned>(rand()); // flagged: raw-random
}
