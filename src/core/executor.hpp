// Execution policy for the per-round kernels.
//
// The paper's simulator parallelized the round kernel with OpenMP; here the
// engines accept an abstract executor so the same code runs serially (tests,
// determinism-sensitive analysis) or on the thread pool in sim/thread_pool.
// All parallel loops are data-parallel over disjoint index ranges, and all
// randomness is drawn from per-(node, round) streams, so results are
// identical for any thread count.
//
// parallel_reduce extends the contract to reductions without giving up
// bitwise determinism: the index range is cut into fixed-size chunks whose
// boundaries depend only on `count` (never on the worker count), each chunk
// produces one partial on whatever thread runs it, and the partials are
// combined serially in ascending chunk order on the calling thread. The
// combine order is therefore a pure function of `count`, so even
// non-associative combines (floating-point sums) are reproducible across
// serial_executor, thread_pool, and any number of workers.
//
// Thread-safety: this interface is data-parallel by construction and holds
// no locks, so it carries no util/thread_annotations.hpp annotations. The
// safety obligations live in the contract instead: `body`/`map` must only
// write state inside their [begin, end) range and read state that another
// chunk writes only through atomics (the discrete engine's in-place apply
// reads its twins' slots with relaxed std::atomic_ref), and `partials` is
// safe because each chunk index is written by exactly one task. The
// annotated capabilities sit one layer down, in sim/thread_pool (the
// implementation that actually shares state between workers).
#ifndef DLB_CORE_EXECUTOR_HPP
#define DLB_CORE_EXECUTOR_HPP

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "obs/obs.hpp"

namespace dlb {

class executor {
public:
    virtual ~executor() = default;

    /// Partitions [0, count) into chunks and invokes body(begin, end) for
    /// each, possibly concurrently. body must not touch state outside its
    /// range.
    virtual void parallel_for(
        std::int64_t count,
        const std::function<void(std::int64_t, std::int64_t)>& body) = 0;

    /// Like parallel_for, but every index is a coarse-grained task (a whole
    /// reduce chunk, a full scenario): implementations must distribute even
    /// small counts instead of applying fine-grained inline heuristics.
    virtual void parallel_tasks(
        std::int64_t count,
        const std::function<void(std::int64_t, std::int64_t)>& body)
    {
        parallel_for(count, body);
    }

    /// Chunk width used by parallel_reduce; fixed so that chunk boundaries
    /// (and thus the combine order) never depend on the executor.
    static constexpr std::int64_t reduce_chunk = 4096;

    /// Deterministic reduction over [0, count): `map(begin, end)` reduces
    /// one chunk to a T (it may also have side effects on disjoint state,
    /// which lets kernels fuse a sweep with its reduction), and
    /// `combine(acc, partial)` folds the partials in ascending chunk order
    /// starting from `identity`. Identical results for any executor.
    template <class T, class Map, class Combine>
    T parallel_reduce(std::int64_t count, T identity, const Map& map,
                      const Combine& combine)
    {
        if (count <= 0) return identity;
        const std::int64_t chunks = (count + reduce_chunk - 1) / reduce_chunk;
        static obs::counter& reduce_chunks =
            obs::registry_counter("executor.reduce_chunks");
        reduce_chunks.add(chunks);
        std::vector<T> partials(static_cast<std::size_t>(chunks), identity);
        parallel_tasks(chunks, [&](std::int64_t begin, std::int64_t end) {
            for (std::int64_t c = begin; c < end; ++c) {
                const std::int64_t lo = c * reduce_chunk;
                const std::int64_t hi = std::min(lo + reduce_chunk, count);
                partials[static_cast<std::size_t>(c)] = map(lo, hi);
            }
        });
        T result = identity;
        for (const T& partial : partials) result = combine(result, partial);
        return result;
    }
};

/// Runs everything inline on the calling thread.
class serial_executor final : public executor {
public:
    void parallel_for(std::int64_t count,
                      const std::function<void(std::int64_t, std::int64_t)>& body) override
    {
        if (count > 0) body(0, count);
    }
};

/// Shared process-wide serial executor (default for all engines).
executor& default_executor();

} // namespace dlb

#endif // DLB_CORE_EXECUTOR_HPP
