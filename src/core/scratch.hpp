// Pooled, cache-line-aligned engine scratch.
//
// Every engine run needs the same structure-of-arrays working set: per-node
// loads (and load/speed fractions under non-uniform speeds) and
// per-half-edge flow state, two arrays per engine (the cumulative engine
// adds its two counters to its continuous twin's). Constructing an engine
// per scenario (the campaign pattern) pays allocator traffic and fresh
// page faults for each of those arrays; at 10^4-10^5 scenarios per sweep
// that traffic dominates small-scenario setup.
//
// engine_scratch is a per-worker free-list of 64-byte-aligned buffers:
// engines acquire their arrays on construction and return them on
// destruction, so consecutive scenarios on one worker reuse warm,
// already-faulted memory. An acquire takes the smallest free buffer that
// fits, so a per-node array never takes a per-half-edge one that the next
// per-half-edge acquire would then reallocate. Acquired buffers are
// zero-filled to the requested size — exactly the state a freshly
// value-initialized vector would have — so pooled runs are byte-identical
// to cold runs by construction. The pool is single-owner (one worker), not
// thread-safe, and never shared across concurrent engines except through
// acquire/release hand-offs.
//
// 64-byte alignment puts every array on a cache-line (and AVX-512 vector)
// boundary, which keeps the per-half-edge sweeps free of split loads.
#ifndef DLB_CORE_SCRATCH_HPP
#define DLB_CORE_SCRATCH_HPP

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace dlb {

/// Minimal allocator aligning every allocation to 64 bytes.
template <class T>
struct aligned_allocator {
    using value_type = T;
    static constexpr std::size_t alignment = 64;

    aligned_allocator() noexcept = default;
    template <class U>
    aligned_allocator(const aligned_allocator<U>&) noexcept
    {
    }

    T* allocate(std::size_t count)
    {
        return static_cast<T*>(
            ::operator new(count * sizeof(T), std::align_val_t{alignment}));
    }

    void deallocate(T* data, std::size_t) noexcept
    {
        ::operator delete(data, std::align_val_t{alignment});
    }

    template <class U>
    bool operator==(const aligned_allocator<U>&) const noexcept
    {
        return true;
    }
};

template <class T>
using aligned_vector = std::vector<T, aligned_allocator<T>>;

/// Per-worker buffer pool for engine SoA scratch. Engines acquire zeroed
/// buffers on construction and release them on destruction; released
/// capacity is handed to the next acquire instead of the allocator.
class engine_scratch {
public:
    aligned_vector<std::int64_t> acquire_int(std::size_t size)
    {
        return acquire(int_free_, size);
    }

    aligned_vector<double> acquire_real(std::size_t size)
    {
        return acquire(real_free_, size);
    }

    void release(aligned_vector<std::int64_t>&& buffer)
    {
        if (buffer.capacity() > 0) int_free_.push_back(std::move(buffer));
    }

    void release(aligned_vector<double>&& buffer)
    {
        if (buffer.capacity() > 0) real_free_.push_back(std::move(buffer));
    }

    /// Buffers currently sitting in the free lists (introspection/tests).
    std::size_t pooled_count() const noexcept
    {
        return int_free_.size() + real_free_.size();
    }

private:
    // Hands out the smallest free buffer whose capacity fits `size`, or the
    // largest one when none fits (its reallocation is then the smallest
    // possible waste), zero-filled to `size` to match fresh
    // value-initialized semantics exactly.
    template <class T>
    static aligned_vector<T> acquire(std::vector<aligned_vector<T>>& free_list,
                                     std::size_t size)
    {
        static obs::counter& acquires =
            obs::registry_counter("scratch.acquires");
        static obs::counter& pool_hits =
            obs::registry_counter("scratch.pool_hits");
        acquires.add(1);
        aligned_vector<T> buffer;
        if (!free_list.empty()) {
            pool_hits.add(1);
            // A buffer that fits beats one that does not; among those that
            // fit the smaller wins, among the others the larger.
            const auto better = [size](std::size_t a, std::size_t b) {
                if ((a >= size) != (b >= size)) return a >= size;
                return a >= size ? a < b : a > b;
            };
            std::size_t best = 0;
            for (std::size_t i = 1; i < free_list.size(); ++i)
                if (better(free_list[i].capacity(), free_list[best].capacity()))
                    best = i;
            std::swap(free_list[best], free_list.back());
            buffer = std::move(free_list.back());
            free_list.pop_back();
        }
        buffer.assign(size, T{});
        return buffer;
    }

    std::vector<aligned_vector<std::int64_t>> int_free_;
    std::vector<aligned_vector<double>> real_free_;
};

/// Acquire-or-allocate: a zeroed buffer from the pool when one is given,
/// a fresh value-initialized aligned vector otherwise.
inline aligned_vector<std::int64_t> scratch_int(engine_scratch* scratch,
                                                std::size_t size)
{
    return scratch != nullptr ? scratch->acquire_int(size)
                              : aligned_vector<std::int64_t>(size);
}

inline aligned_vector<double> scratch_real(engine_scratch* scratch,
                                           std::size_t size)
{
    return scratch != nullptr ? scratch->acquire_real(size)
                              : aligned_vector<double>(size);
}

/// Records one engine.state_bytes sample: the bytes of the arrays an
/// engine holds, at their sizes (a pooled buffer's spare capacity is the
/// pool's, not the engine's).
template <class... Buffers>
void record_state_bytes(const Buffers&... buffers)
{
    static obs::histogram& state_bytes =
        obs::registry_histogram("engine.state_bytes");
    state_bytes.record(static_cast<std::int64_t>(
        (std::size_t{0} + ... +
         (buffers.size() * sizeof(typename Buffers::value_type)))));
}

} // namespace dlb

#endif // DLB_CORE_SCRATCH_HPP
