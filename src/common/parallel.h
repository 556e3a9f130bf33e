/**
 * @file
 * parallelFor over a fixed set of worker threads: the one parallel
 * primitive. BatchEvaluator::run spreads a batch's items over it, and
 * every kernel inside an item is a plain loop over its limbs on the
 * thread that runs the item. The rules:
 *
 *  1. Static split: n items on T threads run as parts = min(T, n)
 *     contiguous parts, part p covering [begin + p*n/parts,
 *     begin + (p+1)*n/parts), each part on one thread. The caller
 *     runs part 0, an idle worker claims the next unclaimed part, and
 *     once part 0 is done the caller runs every part no worker has
 *     claimed. Which thread runs a part never changes an item's
 *     result, so a body that writes only its own item's outputs writes
 *     exactly the bytes the sequential loop writes.
 *  2. Jobs share the workers: parallelFor calls from different
 *     application threads run side by side, a worker serving the
 *     oldest job with an unclaimed part. A caller waits only for the
 *     parts of its own job that workers took, never for another
 *     caller's job.
 *  3. Inline: a nested call, a range of at most one item and a thread
 *     count of 1 (the default) run the plain loop on the caller,
 *     without touching the pool, so a batch of one never waits.
 *  4. A job's first exception (a worker's before the caller's) is
 *     rethrown on that job's own caller once all its parts are done.
 *  5. Resizing the pool or switching the SIMD path while a job runs
 *     throws instead of pulling state out from under it.
 */
#pragma once

#include <functional>

#include "common/types.h"

namespace cross {

/** Threads used by parallelFor / the batch engine. Default 1. */
u32 globalThreadCount();

/**
 * Resize the global pool (benches expose it as --threads); n == 0 is
 * clamped to 1. @throws std::logic_error from inside a parallel region
 * or while a pool job runs on another thread.
 */
void setGlobalThreadCount(u32 n);

/** True while this thread runs a part of a pool job. */
bool inParallelRegion();

/** Pool jobs running on any thread (no job ever queues behind another,
 *  and inline runs are not jobs); setGlobalThreadCount and
 *  nt::setSimdIsa refuse while > 0. */
u32 activeParallelJobs();

/** Run body(i) for every i in [begin, end) under the rules above. */
void parallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)> &body);

} // namespace cross
