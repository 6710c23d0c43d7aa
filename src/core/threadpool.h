// actcomp::core parallel runtime: a lazily-initialized global thread pool
// with a deterministic parallel_for.
//
// Determinism contract (DESIGN.md §10): parallel_for splits [begin, end)
// into consecutive chunks of exactly `grain` elements (the last chunk may
// be short). The chunk boundaries are a pure function of (begin, end,
// grain) — never of the thread count — and each chunk is executed exactly
// once, so any kernel whose writes are disjoint per chunk (and whose
// per-element arithmetic order is fixed within a chunk) produces
// bit-identical results whether the pool has 1 or N threads. Golden tables
// and seeded experiments therefore do not move when ACTCOMP_THREADS
// changes.
//
// Sizing: the pool is created on first use with ACTCOMP_THREADS lanes
// (env var; unset/0 means std::thread::hardware_concurrency). One lane is
// the calling thread itself — a pool of size N spawns N-1 workers — so
// ACTCOMP_THREADS=1 runs everything inline with zero synchronization.
//
// Nesting: a parallel_for issued from inside a pool worker runs inline on
// that worker (same chunk boundaries), so nested calls cannot deadlock and
// cannot oversubscribe.
//
// Exceptions: the first exception thrown by any chunk is captured,
// remaining chunks are skipped (cancelled), and the exception is rethrown
// on the calling thread once the job has drained.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

namespace actcomp::core {

/// Elements per parallel_for chunk for elementwise and gather/scatter
/// kernels: large enough that a chunk outweighs the dispatch cost, small
/// enough to split the biggest activations across the pool.
inline constexpr int64_t kEwGrain = int64_t{1} << 13;

/// Rows per parallel_for chunk for row-independent kernels over rows of
/// `cols` elements: about kEwGrain elements per chunk, at least one row.
inline int64_t row_grain(int64_t cols) {
  return std::max<int64_t>(1, kEwGrain / std::max<int64_t>(1, cols));
}

/// Total parallel lanes (workers + caller) the global pool runs with, >= 1.
int num_threads();

/// Test/bench hook: resize the global pool to exactly `n` lanes (clamped to
/// >= 1), overriding ACTCOMP_THREADS. Must not be called concurrently with
/// an in-flight parallel_for.
void set_num_threads(int n);

namespace detail {
/// Type-erased engine behind parallel_for. Executes fn once per chunk.
void parallel_chunks(int64_t begin, int64_t end, int64_t grain,
                     const std::function<void(int64_t, int64_t)>& fn);
}  // namespace detail

/// Run fn(chunk_begin, chunk_end) over consecutive chunks of `grain`
/// elements covering [begin, end). See the determinism contract above.
/// fn must be safe to call from multiple threads at once on distinct
/// chunks. Blocks until every chunk has run (or one has thrown).
template <typename Fn>
void parallel_for(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
  detail::parallel_chunks(
      begin, end, grain,
      std::function<void(int64_t, int64_t)>(std::forward<Fn>(fn)));
}

}  // namespace actcomp::core
