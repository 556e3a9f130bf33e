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

/**
 * One parallelFor call: items [begin, begin + n) in parts parts. It
 * lives on its caller's stack; the fields above the claim state stay
 * fixed while it runs, so a part runs from them unlocked.
 */
struct Job
{
    size_t begin = 0;
    size_t n = 0;
    u32 parts = 0;
    const std::function<void(size_t)> *body = nullptr;

    // Guarded by Pool::m. Parts [claimed, parts) are unclaimed (part 0
    // is the caller's), and while any are, the job is on the pool's
    // open list between older and newer.
    u32 claimed = 1;
    u32 worker_parts = 0; // parts workers claimed and still run
    std::exception_ptr worker_error{}; // the first one a worker part threw
    Job *older = nullptr;
    Job *newer = nullptr;

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

/**
 * Workers 1..threads-1 and the open jobs they share. Jobs of different
 * callers run side by side: an idle worker claims the next part of the
 * oldest open job, and a caller runs part 0 and then every part of its
 * own job that no worker has claimed, so it waits only for the parts
 * workers took, never for another caller's job. A caller returns only
 * after its job has left the open list and no worker still runs a part
 * of it, so no worker touches a Job after its caller's frame is gone.
 * Workers never start jobs -- their nested parallelFor calls run
 * inline.
 */
struct Pool
{
    std::mutex m;
    std::condition_variable work_cv;
    std::condition_variable done_cv;
    // Guarded by m: the intrusive FIFO of jobs with an unclaimed part,
    // so starting a job allocates nothing.
    Job *oldest = nullptr;
    Job *newest = nullptr;
    bool stop = false;
    std::vector<std::thread> workers;

    explicit Pool(u32 threads)
    {
        for (u32 w = 1; w < threads; ++w)
            workers.emplace_back([this] { work(); });
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

    /** Claim @p job's next part, unlinking the job once it has none
     *  left; m is held. */
    u32
    claim(Job &job)
    {
        const u32 p = job.claimed++;
        if (job.claimed == job.parts) {
            (job.older ? job.older->newer : oldest) = job.newer;
            (job.newer ? job.newer->older : newest) = job.older;
        }
        return p;
    }

    /** Run @p job, the caller taking part 0 and every part no worker
     *  claims, and return its first error, a worker's first. */
    std::exception_ptr
    run(Job &job)
    {
        {
            std::lock_guard<std::mutex> g(m);
            job.older = newest;
            (newest ? newest->newer : oldest) = &job;
            newest = &job;
        }
        for (u32 p = 1; p < job.parts; ++p)
            work_cv.notify_one();
        std::exception_ptr mine = job.runPart(0);
        std::unique_lock<std::mutex> lock(m);
        while (job.claimed < job.parts) {
            const u32 p = claim(job);
            lock.unlock();
            std::exception_ptr err = job.runPart(p);
            if (!mine)
                mine = std::move(err);
            lock.lock();
        }
        done_cv.wait(lock, [&] { return job.worker_parts == 0; });
        return job.worker_error ? job.worker_error : mine;
    }

    void
    work()
    {
        std::unique_lock<std::mutex> lock(m);
        for (;;) {
            work_cv.wait(lock, [&] { return stop || oldest; });
            if (stop)
                return;
            Job &job = *oldest;
            const u32 p = claim(job);
            ++job.worker_parts;
            lock.unlock();
            std::exception_ptr err = job.runPart(p);
            lock.lock();
            if (err && !job.worker_error)
                job.worker_error = std::move(err);
            if (--job.worker_parts == 0)
                done_cv.notify_all();
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
