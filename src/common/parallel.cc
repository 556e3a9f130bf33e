#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"

namespace cross {

namespace {

/** Set while a thread runs a part of a pool job (workers and caller). */
thread_local bool t_in_job = false;

/** One parallelFor call: items [begin, begin + n) in parts parts. */
struct Job
{
    size_t begin = 0;
    size_t n = 0;
    u32 parts = 0;
    const std::function<void(size_t)> *body = nullptr;

    /** Run part p's items; return what it threw, if anything. */
    std::exception_ptr
    runPart(u32 p) const
    {
        std::exception_ptr err;
        t_in_job = true;
        try {
            const size_t hi = begin + n * (p + 1) / parts;
            for (size_t i = begin + n * p / parts; i < hi; ++i)
                (*body)(i);
        } catch (...) {
            err = std::current_exception();
        }
        t_in_job = false;
        return err;
    }
};

/** Workers 1..threads-1 and the one job slot they serve. */
struct Pool
{
    // The one job slot: a second caller queues here. Workers never
    // take it -- their nested parallelFor calls run inline.
    std::mutex slot;
    std::mutex m;
    std::condition_variable work_cv;
    std::condition_variable done_cv;
    // The current job, guarded by m. A worker sees a new job by the
    // generation changing; the job stays fixed until every part has
    // reported, so a worker runs its part from an unlocked copy.
    u64 generation = 0;
    Job job;
    u32 pending = 0;
    std::exception_ptr error;
    bool stop = false;
    std::vector<std::thread> workers;

    explicit Pool(u32 threads)
    {
        for (u32 part = 1; part < threads; ++part)
            workers.emplace_back([this, part] { work(part); });
    }
    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> g(m);
            stop = true;
        }
        work_cv.notify_all();
        for (auto &t : workers)
            t.join();
    }

    /** Run @p next (part 0 on the caller) and return its error. */
    std::exception_ptr
    run(const Job &next)
    {
        std::lock_guard<std::mutex> one_job(slot);
        {
            std::lock_guard<std::mutex> g(m);
            job = next;
            pending = next.parts - 1;
            ++generation;
        }
        work_cv.notify_all();
        const std::exception_ptr mine = next.runPart(0);
        std::unique_lock<std::mutex> lock(m);
        done_cv.wait(lock, [&] { return pending == 0; });
        // Hand a worker's error over instead of keeping a reference, so
        // the caller, not a later job, frees the exception.
        return error ? std::exchange(error, nullptr) : mine;
    }

    void
    work(u32 part)
    {
        u64 seen = 0;
        std::unique_lock<std::mutex> lock(m);
        for (;;) {
            work_cv.wait(lock, [&] { return stop || generation != seen; });
            if (stop)
                return;
            seen = generation;
            if (part >= job.parts)
                continue;
            const Job current = job;
            lock.unlock();
            const std::exception_ptr err = current.runPart(part);
            lock.lock();
            if (err && !error)
                error = err;
            if (--pending == 0)
                done_cv.notify_one();
        }
    }
};

// g_pool exists exactly when g_threads > 1. Both change only under
// g_pool_mutex, and a job registers in g_active_jobs under it too, so
// setGlobalThreadCount cannot destroy the workers a job still uses.
std::mutex g_pool_mutex;
std::unique_ptr<Pool> g_pool;
// Atomic, so the default threads == 1 path of parallelFor takes no lock.
std::atomic<u32> g_threads{1};
std::atomic<u32> g_active_jobs{0};

} // namespace

u32
globalThreadCount()
{
    return g_threads.load(std::memory_order_relaxed);
}

void
setGlobalThreadCount(u32 n)
{
    internalCheck(!inParallelRegion(),
                  "setGlobalThreadCount: called from inside a parallel "
                  "region");
    std::lock_guard<std::mutex> g(g_pool_mutex);
    internalCheck(g_active_jobs.load(std::memory_order_acquire) == 0,
                  "setGlobalThreadCount: a parallelFor is active on "
                  "another thread");
    const u32 want = std::max(n, 1u);
    if (want == globalThreadCount())
        return;
    g_pool.reset(); // join the old workers before spawning new ones
    if (want > 1)
        g_pool = std::make_unique<Pool>(want);
    g_threads.store(want, std::memory_order_relaxed);
}

bool
inParallelRegion()
{
    return t_in_job;
}

u32
activeParallelJobs()
{
    return g_active_jobs.load(std::memory_order_acquire);
}

void
parallelFor(size_t begin, size_t end,
            const std::function<void(size_t)> &body)
{
    const size_t n = end > begin ? end - begin : 0;
    Pool *pool = nullptr;
    Job job{begin, n, 0, &body};
    if (n > 1 && !t_in_job && globalThreadCount() > 1) {
        std::lock_guard<std::mutex> g(g_pool_mutex);
        if (g_pool) {
            pool = g_pool.get();
            job.parts = static_cast<u32>(
                std::min<size_t>(globalThreadCount(), n));
            g_active_jobs.fetch_add(1, std::memory_order_acq_rel);
        }
    }
    if (!pool) {
        for (size_t i = begin; i < end; ++i)
            body(i);
        return;
    }
    const std::exception_ptr err = pool->run(job);
    g_active_jobs.fetch_sub(1, std::memory_order_acq_rel);
    if (err)
        std::rethrow_exception(err);
}

} // namespace cross
