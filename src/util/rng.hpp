// Deterministic random number generation for reproducible simulations.
//
// Two kinds of randomness, two derivations:
//
//   per-round draws — draw_u64(seed, node, round, i) is a stateless
//       counter-based hash of its four words (the idea of Random123), so
//       the i-th draw of any (seed, node, round) substream is computed
//       inline with no generator state seeded per node, and results are
//       bit-identical regardless of the number of worker threads. The
//       counter_rng wrapper exposes the same sequence as an incremental
//       generator for call sites that draw a data-dependent number of
//       words (shuffles, rejection sampling). Rounding, workloads,
//       matching and the randomized load patterns all draw from it. Its
//       checkpoint wire value is 2 (core/checkpoint.hpp).
//   structural draws — tagged_rng(seed, tag) seeds a xoshiro256**
//       generator for graph wiring, speed assignment and solver start
//       vectors, which are drawn once per run, not per round.
//
// The per-round draws give what the theory needs — unbiased draws,
// independent per-(seed, node, round) substreams (Shiraga; Sauerwald &
// Sun state their bounds purely in those terms) — which the statistical
// conformance suite (tests/test_rng_stats.cpp) tests directly, and golden
// vectors (tests/test_rng_golden.cpp) pin bit-exactly: see
// docs/architecture.md "Determinism and the RNG-stream contract".
#ifndef DLB_UTIL_RNG_HPP
#define DLB_UTIL_RNG_HPP

#include <cstdint>
#include <limits>

namespace dlb {

/// One splitmix64 step; used both as a stand-alone hash/mixer and to seed
/// xoshiro state from a single 64-bit value.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Stateless mix of up to three 64-bit words into one; used to derive
/// per-(seed, node, round) substreams.
constexpr std::uint64_t mix64(std::uint64_t a, std::uint64_t b = 0,
                              std::uint64_t c = 0) noexcept
{
    std::uint64_t s = a;
    std::uint64_t h = splitmix64(s);
    s ^= b + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= splitmix64(s);
    s ^= c + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= splitmix64(s);
    return h;
}

/// Maps a 64-bit word to a uniform double in [0, 1) with 53 random bits.
/// The shared word->unit-interval rule of every generator.
constexpr double to_unit_double(std::uint64_t word) noexcept
{
    return static_cast<double>(word >> 11) * 0x1.0p-53;
}

/// CRTP mixin: the derived draw helpers every generator shares, on top of
/// the UniformRandomBitGenerator core (Derived::operator() over the full
/// 64-bit range). Every generator uses the exact same word->value rules by
/// construction.
template <class Derived>
class draw_helpers {
public:
    using result_type = std::uint64_t;

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept
    {
        return std::numeric_limits<result_type>::max();
    }

    /// Uniform double in [0, 1) with 53 random bits.
    constexpr double next_double() noexcept { return to_unit_double(self()()); }

    /// Uniform integer in [0, bound) without modulo bias (Lemire rejection).
    constexpr std::uint64_t next_below(std::uint64_t bound) noexcept
    {
        if (bound <= 1) return 0;
        const std::uint64_t threshold = (0 - bound) % bound;
        for (;;) {
            const std::uint64_t r = self()();
            // Multiply-shift maps r into [0, bound); reject the biased tail.
            const __uint128_t m = static_cast<__uint128_t>(r) * bound;
            if (static_cast<std::uint64_t>(m) >= threshold)
                return static_cast<std::uint64_t>(m >> 64);
        }
    }

    /// True with probability p (p clamped to [0,1]).
    constexpr bool next_bernoulli(double p) noexcept
    {
        if (p <= 0.0) return false;
        if (p >= 1.0) return true;
        return next_double() < p;
    }

private:
    constexpr Derived& self() noexcept { return static_cast<Derived&>(*this); }
};

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm),
/// satisfying the C++ UniformRandomBitGenerator concept.
class xoshiro256ss : public draw_helpers<xoshiro256ss> {
public:
    /// Seeds all 256 bits of state from a single value via splitmix64.
    explicit constexpr xoshiro256ss(std::uint64_t seed = 0x5eed0123456789abULL) noexcept
    {
        std::uint64_t sm = seed;
        for (auto& word : state_) word = splitmix64(sm);
    }

    constexpr result_type operator()() noexcept
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

private:
    static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4]{};
};

/// Derives a generator for structural randomness (graph wiring, speed
/// assignment, solver start vectors, test-scale load placement): these
/// streams are derived from a
/// purpose tag, not from (node, round). This is the only sanctioned way to
/// seed a xoshiro generator outside this header — the contract analyzer
/// (rng-contract) flags direct construction.
inline xoshiro256ss tagged_rng(std::uint64_t seed, std::uint64_t tag,
                               std::uint64_t extra = 0) noexcept
{
    return xoshiro256ss{mix64(seed, tag, extra)};
}

// ---- per-round draws: stateless and counter-based ---------------------------
//
// Draw i of the substream of (seed, node, round) is one splitmix64 finalize
// over the tagged substream base XOR an index Weyl word — a pure hash of
// all four inputs, so any draw can be computed out of order, in a batch,
// or incrementally, with no 256-bit state seeded per (node, round).
//
// Two deliberate decorrelation choices in the derivation:
//  * The base folds in a stream tag, so the substream of a triple is
//    unrelated to the xoshiro seeding of the untagged mix64 of the same
//    words (tagged_rng(seed, node + 1, round + 1)).
//  * The index enters by XOR of a Weyl multiple, not by advancing the
//    base additively — substreams are NOT slices of one global splitmix
//    orbit, so two substreams can only share draws at equal indices after
//    an exact 64-bit base collision, never as shifted runs.
//
// The tag, the Weyl constant and both functions below are frozen: any edit
// changes every randomized report byte (see the architecture doc).

/// Distinguishes substream bases from the untagged mix64 of the same
/// (seed, node, round).
inline constexpr std::uint64_t kV2StreamTag = 0x32762d626e72ULL; // "rnb-v2"

/// Per-draw-index Weyl constant (odd, spectrally good).
inline constexpr std::uint64_t kV2DrawWeyl = 0xd1342543de82ef95ULL;

/// The substream base for (seed, node, round). Hoist this out of draw
/// loops and index with draw_at.
constexpr std::uint64_t stream_base(std::uint64_t seed, std::uint64_t node,
                                    std::uint64_t round) noexcept
{
    return mix64(seed ^ kV2StreamTag, node + 1, round + 1);
}

/// Draw `i` of the substream with the given base (pure function, O(1) in
/// i).
constexpr std::uint64_t draw_at(std::uint64_t base, std::uint64_t i) noexcept
{
    std::uint64_t state = base ^ ((i + 1) * kV2DrawWeyl);
    return splitmix64(state);
}

/// The per-round contract in one call: draw `i` of the (seed, node, round)
/// substream. Equals counter_rng(seed, node, round)'s (i+1)-th operator()
/// output — pinned by tests/test_rng_golden.cpp.
constexpr std::uint64_t draw_u64(std::uint64_t seed, std::uint64_t node,
                                 std::uint64_t round, std::uint64_t i) noexcept
{
    return draw_at(stream_base(seed, node, round), i);
}

/// Incremental view of a substream for call sites that consume a
/// data-dependent number of draws (shuffles, rejection sampling). Holds one
/// 64-bit counter; output k (0-based) equals draw_at(base, k). Satisfies
/// the C++ UniformRandomBitGenerator concept.
class counter_rng : public draw_helpers<counter_rng> {
public:
    /// The (seed, node, round) substream — same derivation as draw_u64.
    constexpr counter_rng(std::uint64_t seed, std::uint64_t node,
                          std::uint64_t round) noexcept
        : base_(stream_base(seed, node, round))
    {
    }

    /// Resumes/starts from a raw substream base (e.g. a tagged mix64 value).
    explicit constexpr counter_rng(std::uint64_t base) noexcept : base_(base) {}

    constexpr result_type operator()() noexcept
    {
        weyl_ += kV2DrawWeyl; // output k is draw_at(base, k)
        std::uint64_t state = base_ ^ weyl_;
        return splitmix64(state);
    }

private:
    std::uint64_t base_;
    std::uint64_t weyl_ = 0;
};

} // namespace dlb

#endif // DLB_UTIL_RNG_HPP
