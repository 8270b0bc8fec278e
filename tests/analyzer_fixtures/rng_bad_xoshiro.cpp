// Rule 3 positive, regression twin of the pre-analyzer src/core/speeds.cpp:
// hand-seeding a xoshiro stream outside util/rng.hpp pins this call site to
// one stream derivation behind util/rng.hpp's back.
using u64 = unsigned long long;
struct xoshiro256ss {
    u64 s[4];
    u64 next_below(u64 bound);
};
auto mix64(u64 a, u64 b = 0, u64 c = 0) -> u64;

u64 pick(u64 seed, u64 n)
{
    xoshiro256ss rng{mix64(seed, 0xb1b0u)};  // analyze-expect: rng-contract
    return rng.next_below(n);
}
