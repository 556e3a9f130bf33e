/**
 * @file
 * Work-stealing-free thread pool and parallel_for.
 *
 * One parallel granularity: the batched evaluation engine
 * (ckks/batch_evaluator.h) spreads the items of a batch over this
 * single global pool, and every kernel inside an item (NTT, BConv,
 * limb-wise vector arithmetic) is a plain loop over its limbs on the
 * thread that runs the item. Design constraints, in order:
 *
 *  1. Bit-exactness: iterations are partitioned into contiguous,
 *     disjoint index ranges (static split, no stealing), so a loop run
 *     here writes exactly the bytes the sequential loop writes.
 *     threads == 1 (the default) runs the plain loop inline.
 *  2. Determinism of the KernelLog: each task logs privately and the
 *     logs merge in task order (see BatchEvaluator); the pool itself
 *     never reorders observable work.
 *  3. The pool is entered once per batch; a nested call still runs
 *     inline as a safety rule (no deadlock, no threads^2 workers).
 *     A one-item range never touches the pool, so a batch of one runs
 *     on its caller's thread without waiting for the pool.
 */
#pragma once

#include <functional>

#include "common/types.h"

namespace cross {

/**
 * Fixed-size pool of persistent workers. run(parts, fn) invokes
 * fn(part) for part in [0, parts) -- part 0 on the calling thread,
 * parts 1..n-1 on workers -- and blocks until all parts finish. The
 * first exception thrown by any part is rethrown on the caller.
 */
class ThreadPool
{
  public:
    /** @param threads total concurrency (1 = everything inline). */
    explicit ThreadPool(u32 threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    u32 threadCount() const { return nthreads_; }

    /**
     * Execute fn(0..parts-1), each part exactly once, concurrently up
     * to threadCount(). parts must be <= threadCount(); parallelFor
     * handles the general chunking. Executes inline when the pool has
     * one thread or when called from inside a pool worker. Concurrent
     * external callers are serialised (the pool has one job slot), so
     * independent application threads may share the global pool.
     */
    void run(u32 parts, const std::function<void(u32)> &fn);

  private:
    struct Impl;
    Impl *impl_ = nullptr; // null when nthreads_ == 1
    u32 nthreads_;
};

/** Threads used by parallelFor / the batch engine. Default 1. */
u32 globalThreadCount();

/**
 * Resize the global pool (runtime config; benches expose it as
 * --threads). Must not be called concurrently with an active
 * parallelFor -- and that is *enforced*: calling from inside a
 * parallel region, or while another thread has a pool job in flight,
 * throws std::logic_error instead of corrupting the pool (destroying
 * workers mid-job). n == 0 is clamped to 1.
 */
void setGlobalThreadCount(u32 n);

/** True on a pool worker thread (nested parallelFor runs inline). */
bool inParallelRegion();

/**
 * Top-level pool jobs currently in flight across all threads. Used by
 * runtime-configuration setters (setGlobalThreadCount, the SIMD
 * dispatch override in nt/simd_dispatch.h) to refuse a reconfiguration
 * that would race an active pool job.
 */
u32 activeParallelJobs();

/**
 * Run body(lo, hi) over disjoint contiguous chunks covering
 * [begin, end), at most globalThreadCount() chunks. The chunk
 * boundaries depend only on (begin, end, thread count), never on
 * scheduling -- deterministic work assignment.
 */
void parallelForRange(size_t begin, size_t end,
                      const std::function<void(size_t, size_t)> &body);

/** Run body(i) for every i in [begin, end) (chunked as above). */
void parallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)> &body);

} // namespace cross
