// Rule 3 negative: structural randomness drawn through the sanctioned
// tagged_rng.
using u64 = unsigned long long;
struct xoshiro256ss {
    u64 s[4];
    u64 next_below(u64 bound);
};
auto tagged_rng(u64 seed, u64 tag, u64 extra = 0) -> xoshiro256ss;

u64 shuffle_pick(u64 seed, u64 n)
{
    auto rng = tagged_rng(seed, 0x5eedu);
    return rng.next_below(n);
}
