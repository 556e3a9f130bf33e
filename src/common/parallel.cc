#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"

namespace cross {

namespace {

/** Set while a thread is executing a pool part (workers and caller). */
thread_local bool t_in_pool_part = false;

/** Decrements an active-job counter on scope exit (exception-safe). */
struct ActiveJobGuard
{
    std::atomic<u32> &count;
    explicit ActiveJobGuard(std::atomic<u32> &c) : count(c)
    {
        count.fetch_add(1, std::memory_order_acq_rel);
    }
    ~ActiveJobGuard() { count.fetch_sub(1, std::memory_order_acq_rel); }
};

/**
 * Top-level pool jobs in flight across *all* ThreadPool instances.
 * Global (not per-pool) so setGlobalThreadCount can refuse to resize
 * while any job runs, without touching the pool object it is about to
 * destroy.
 */
std::atomic<u32> g_active_jobs{0};

} // namespace

struct ThreadPool::Impl
{
    // Serialises external callers: the pool has one job slot, so a
    // second application thread invoking run() queues here until the
    // first job completes (workers never take this lock -- their
    // nested parallelFor calls execute inline).
    std::mutex run_mutex;
    std::mutex m;
    std::condition_variable work_cv;
    std::condition_variable done_cv;
    std::vector<std::thread> workers;

    // Current job, guarded by m. Workers detect a new job by the
    // generation counter changing.
    u64 generation = 0;
    u32 parts = 0;
    const std::function<void(u32)> *fn = nullptr;
    u32 pending = 0;
    std::exception_ptr error;
    bool stop = false;

    void
    workerLoop(u32 worker_idx)
    {
        u64 seen = 0;
        for (;;) {
            std::unique_lock<std::mutex> lock(m);
            work_cv.wait(lock,
                         [&] { return stop || generation != seen; });
            if (stop)
                return;
            seen = generation;
            const u32 part = worker_idx + 1;
            const u32 nparts = parts;
            const auto *job = fn;
            lock.unlock();

            if (part < nparts) {
                t_in_pool_part = true;
                try {
                    (*job)(part);
                } catch (...) {
                    std::lock_guard<std::mutex> g(m);
                    if (!error)
                        error = std::current_exception();
                }
                t_in_pool_part = false;
            }

            std::lock_guard<std::mutex> g(m);
            if (--pending == 0)
                done_cv.notify_all();
        }
    }
};

ThreadPool::ThreadPool(u32 threads) : nthreads_(threads == 0 ? 1 : threads)
{
    if (nthreads_ == 1)
        return;
    impl_ = new Impl;
    impl_->workers.reserve(nthreads_ - 1);
    for (u32 w = 0; w < nthreads_ - 1; ++w)
        impl_->workers.emplace_back([this, w] { impl_->workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    if (!impl_)
        return;
    {
        std::lock_guard<std::mutex> g(impl_->m);
        impl_->stop = true;
    }
    impl_->work_cv.notify_all();
    for (auto &t : impl_->workers)
        t.join();
    delete impl_;
}

void
ThreadPool::run(u32 parts, const std::function<void(u32)> &fn)
{
    if (parts == 0)
        return;
    requireThat(parts <= nthreads_, "ThreadPool::run: parts > threads");

    // Nested call from inside a worker: execute inline (avoids
    // deadlock and oversubscription); the enclosing top-level run()
    // already holds the active-job count.
    if (t_in_pool_part) {
        for (u32 p = 0; p < parts; ++p)
            fn(p);
        return;
    }

    // Top-level job: counted so setGlobalThreadCount can detect (and
    // loudly refuse) a resize while this pool is mid-job. The inline
    // single-thread/single-part paths count too -- destroying the pool
    // object under a running job is just as fatal there.
    ActiveJobGuard active(g_active_jobs);

    if (!impl_ || parts == 1) {
        for (u32 p = 0; p < parts; ++p)
            fn(p);
        return;
    }

    std::lock_guard<std::mutex> run_guard(impl_->run_mutex);
    {
        std::lock_guard<std::mutex> g(impl_->m);
        impl_->fn = &fn;
        impl_->parts = parts;
        impl_->pending = static_cast<u32>(impl_->workers.size());
        impl_->error = nullptr;
        ++impl_->generation;
    }
    impl_->work_cv.notify_all();

    // The caller is part 0.
    t_in_pool_part = true;
    std::exception_ptr my_error;
    try {
        fn(0);
    } catch (...) {
        my_error = std::current_exception();
    }
    t_in_pool_part = false;

    std::unique_lock<std::mutex> lock(impl_->m);
    impl_->done_cv.wait(lock, [&] { return impl_->pending == 0; });
    std::exception_ptr err = impl_->error ? impl_->error : my_error;
    lock.unlock();
    if (err)
        std::rethrow_exception(err);
}

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;
// Read on every parallelFor: atomic, not mutex-guarded, so the default
// threads==1 fast path stays lock-free.
std::atomic<u32> g_threads{1};

} // namespace

u32
globalThreadCount()
{
    return g_threads.load(std::memory_order_relaxed);
}

void
setGlobalThreadCount(u32 n)
{
    // Fail loudly instead of corrupting the pool: resetting g_pool
    // joins (or, from a worker, deadlocks on) threads that are still
    // executing a job.
    internalCheck(!inParallelRegion(),
                  "setGlobalThreadCount: called from inside a parallel "
                  "region");
    std::lock_guard<std::mutex> g(g_pool_mutex);
    internalCheck(g_active_jobs.load(std::memory_order_acquire) == 0,
                  "setGlobalThreadCount: a parallelFor is active on "
                  "another thread");
    const u32 want = n == 0 ? 1 : n;
    if (g_pool && g_pool->threadCount() == want) {
        g_threads.store(want, std::memory_order_relaxed);
        return;
    }
    g_pool.reset(); // join old workers before spawning new ones
    g_threads.store(want, std::memory_order_relaxed);
    if (want > 1)
        g_pool = std::make_unique<ThreadPool>(want);
}

namespace {

/**
 * Pin the global pool *and* register the job in one g_pool_mutex
 * acquisition, so setGlobalThreadCount (which checks the counter
 * under the same mutex) can never destroy the pool between the lookup
 * and run() starting. Caller must pair with JobRelease. This is the
 * only way to reach the global pool: a public accessor returning the
 * bare pool would reopen exactly that lookup-vs-run window.
 */
ThreadPool &
acquireGlobalPoolForJob()
{
    std::lock_guard<std::mutex> g(g_pool_mutex);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(
            g_threads.load(std::memory_order_relaxed));
    g_active_jobs.fetch_add(1, std::memory_order_acq_rel);
    return *g_pool;
}

struct JobRelease
{
    ~JobRelease()
    {
        g_active_jobs.fetch_sub(1, std::memory_order_acq_rel);
    }
};

} // namespace

bool
inParallelRegion()
{
    return t_in_pool_part;
}

u32
activeParallelJobs()
{
    return g_active_jobs.load(std::memory_order_acquire);
}

void
parallelForRange(size_t begin, size_t end,
                 const std::function<void(size_t, size_t)> &body)
{
    if (begin >= end)
        return;
    const size_t len = end - begin;
    const u32 threads = inParallelRegion() ? 1 : globalThreadCount();
    const u32 parts =
        static_cast<u32>(std::min<size_t>(threads, len));
    if (parts <= 1) {
        body(begin, end);
        return;
    }
    ThreadPool &pool = acquireGlobalPoolForJob();
    JobRelease release;
    pool.run(parts, [&](u32 p) {
        // Deterministic static split: chunk p covers
        // [begin + p*len/parts, begin + (p+1)*len/parts).
        const size_t lo = begin + len * p / parts;
        const size_t hi = begin + len * (p + 1) / parts;
        if (lo < hi)
            body(lo, hi);
    });
}

void
parallelFor(size_t begin, size_t end,
            const std::function<void(size_t)> &body)
{
    parallelForRange(begin, end, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            body(i);
    });
}

} // namespace cross
