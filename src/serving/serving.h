/**
 * @file
 * Async encrypted-inference serving engine: a futures-based submission
 * API over the existing thread pool, with dynamic batch forming,
 * multi-tenant weighted fairness and deadline-aware load shedding.
 *
 * The paper's throughput story is amortisation across batches
 * (Fig. 11b): the switching-key operands are streamed once and reused
 * by every ciphertext of a batch. BatchEvaluator delivers that for a
 * caller who already *has* a batch; this layer manufactures the
 * batches from many concurrent client streams, the way the ngraph
 * runtime split separates compile-once models from a scheduler-owning
 * runtime:
 *
 *  - submit() enqueues one encrypted request (a ciphertext plus the
 *    model to run it through, a 1-input/1-output
 *    graph::CompiledGraph) and returns a std::future<Ciphertext>
 *    immediately. The ciphertext must arrive at the model's input
 *    ledger level and scale (checked at submit). SubmitOptions
 *    optionally attaches a per-request deadline.
 *  - Every Stream belongs to a *tenant* (StreamOptions: tenant id +
 *    scheduling weight). Pending requests live in per-tenant queues;
 *    dispatchers pick the next request by weighted deficit-round-robin
 *    across tenants with an earliest-deadline-first order inside each
 *    tenant (drr_scheduler.h), so a low-weight tenant keeps its
 *    weighted share of service even under a saturating high-priority
 *    load, and the most urgent request of the tenant that is up is
 *    always served first.
 *  - The chosen request leads a batch; the rest of the batch is filled
 *    with requests for the same model from any tenant (each charged to
 *    its own tenant's DRR account). The model is exactly the
 *    rotation-key working set: every request of a model arrives at its
 *    one input level, so a batch touches the same (key, level)
 *    precomps and the LRU KeySwitchCache serves it from the resident
 *    set instead of thrashing between key sets. Batches are formed
 *    from whatever is queued when a dispatcher frees up ("continuous
 *    batching"), with no artificial delay at low load. CompiledGraph
 *    runs are reentrant, so several dispatchers may execute batches
 *    of one model at the same time.
 *  - Deadline-aware shedding: a submit whose deadline is infeasible --
 *    already in the past, or closer than the model's fastest measured
 *    run on this host (CompiledGraph::fastestRunMicros; 0, so no
 *    bound, until the model first runs) -- is rejected up front with
 *    DeadlineError; a queued request whose deadline passes while it
 *    waits is shed at dispatch time instead of wasting a batch slot.
 *    Both land in ServingStats (deadlineRejected / deadlineShed).
 *  - The queue is bounded: a submit() past maxQueueDepth is rejected
 *    with QueueFullError delivered through the returned future (the
 *    backpressure signal; the engine never blocks a submitter).
 *  - Requests read cached precomps only inside BatchEvaluator::run,
 *    whose own KeySwitchCache::ReaderGuard spans the batch, so
 *    retired precomp storage (LRU evictions under a byte budget) is
 *    reclaimed as soon as no batch is in flight -- open streams pin
 *    nothing.
 *
 * Results are bit-identical to running each request alone through
 * CompiledGraph::runSequential, whatever batches the dispatchers form
 * -- that is the compiled graph's conformance guarantee, and the
 * closed- and open-loop benches re-assert it end to end.
 *
 * Lifetime rules: the context, every submitted model and the key
 * material it references must outlive the engine's last in-flight
 * request; Streams must not outlive their engine. One engine per
 * context is the intended shape (the cache residency budget is
 * context-level). See docs/SERVING.md for the full semantics.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ckks/batch_evaluator.h"
#include "ckks/context.h"
#include "ckks/graph/compiler.h"
#include "common/types.h"
#include "serving/drr_scheduler.h"

namespace cross::serving {

/** The compiled-model layer lives under ckks::graph. */
namespace graph = cross::ckks::graph;

/** Base of every rejection the engine delivers through a future. */
class RejectedError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Backpressure: the bounded request queue was at maxQueueDepth. */
class QueueFullError : public RejectedError
{
  public:
    using RejectedError::RejectedError;
};

/** The engine stopped accepting before this request was queued. */
class ShutdownError : public RejectedError
{
  public:
    using RejectedError::RejectedError;
};

/**
 * Load shedding: the request's deadline was infeasible at submit time
 * (past, or closer than the model's fastest measured run), or passed
 * while the request waited in the queue.
 */
class DeadlineError : public RejectedError
{
  public:
    using RejectedError::RejectedError;
};

/**
 * Longest deadline (SubmitOptions::deadlineUs) and batch wait
 * (ServingConfig::maxBatchWaitMicros) the engine accepts: one year, in
 * microseconds. Anything longer is rejected as misuse, because
 * steady_clock arithmetic in nanoseconds overflows from about 2^53 us.
 */
inline constexpr u64 kMaxWaitMicros = 365ull * 24 * 3600 * 1000 * 1000;

/** Admission, batch-forming and scheduling knobs. */
struct ServingConfig
{
    /** Pending requests past this are rejected (QueueFullError). */
    size_t maxQueueDepth = 1024;
    /** Most requests coalesced into one formed batch. */
    size_t maxBatch = 64;
    /**
     * Batch-growing patience: after waking on a non-empty queue, a
     * dispatcher waits up to this long for the queue to reach maxBatch
     * before forming a batch from whatever is pending. 0 (the default)
     * keeps pure continuous batching -- no artificial delay. Under low
     * open-loop load a small wait trades that latency for larger
     * batches, i.e. more key-operand amortisation per launch. pause(),
     * resume() and shutdown() all cut the wait short. At most
     * kMaxWaitMicros.
     */
    u64 maxBatchWaitMicros = 0;
    /** Batch-forming/executing threads. Each executes one batch at a
     *  time through the shared global thread pool, so 1 (the default)
     *  already saturates the pool; more overlap batch forming with
     *  execution. */
    u32 dispatchers = 1;
};

/** Tenant identity and scheduling share of one stream. */
struct StreamOptions
{
    /** Tenant (fairness account) this stream's requests bill to. */
    u64 tenant = 0;
    /**
     * DRR weight of the tenant -- its service share per scheduling
     * round relative to other tenants (a weight-4 tenant is served 4
     * requests for every 1 of a weight-1 tenant when both are
     * backlogged). Must be >= 1. The tenant's weight is updated each
     * time a stream opens for it; the last setting wins.
     */
    u32 weight = 1;
};

/** Per-request submission options. */
struct SubmitOptions
{
    /**
     * Deadline, microseconds from submit time, at most kMaxWaitMicros;
     * 0 (the default) means best-effort (no deadline -- scheduled
     * after the tenant's deadline-bearing requests, FIFO among
     * themselves, never shed). Admission rejects (DeadlineError) a
     * deadline closer than model.fastestRunMicros(), the model's
     * fastest measured run: a model that has not run yet admits every
     * future deadline. Queued requests whose deadline passes are shed
     * at dispatch either way.
     */
    u64 deadlineUs = 0;
};

/** Per-tenant monotonic counters (a snapshot; see tenantStats()). */
struct TenantStats
{
    u64 submitted = 0; ///< requests admitted to this tenant's queue
    u64 rejected = 0;  ///< backpressure + shutdown + infeasible-deadline
    u64 completed = 0; ///< futures fulfilled with a result
    u64 failed = 0;    ///< futures fulfilled with an exception
    u64 shed = 0;      ///< deadline passed while queued (subset of failed)
};

/** Monotonic engine counters (a snapshot; see stats()). */
struct ServingStats
{
    u64 submitted = 0;        ///< requests admitted to the queue
    u64 rejected = 0;         ///< backpressure + shutdown + deadline rejects
    u64 completed = 0;        ///< futures fulfilled with a result
    u64 failed = 0;           ///< futures fulfilled with an exception
    u64 batches = 0;          ///< batches formed
    u64 batchedRequests = 0;  ///< requests across all formed batches
    u64 maxBatch = 0;         ///< largest batch formed
    u64 deadlineRejected = 0; ///< infeasible at submit (subset of rejected)
    u64 deadlineShed = 0;     ///< expired while queued (subset of failed)
};

/** Futures-based request broker over BatchEvaluator. */
class ServingEngine
{
  public:
    explicit ServingEngine(const ckks::CkksContext &ctx,
                           ServingConfig cfg = {});
    /** Drains the queue (shutdown()) before destruction. */
    ~ServingEngine();

    ServingEngine(const ServingEngine &) = delete;
    ServingEngine &operator=(const ServingEngine &) = delete;

    /**
     * One client's submission handle. Movable, not copyable; a
     * moved-from stream cannot submit.
     */
    class Stream
    {
      public:
        Stream(Stream &&other) noexcept
            : engine_(other.engine_), id_(other.id_),
              tenant_(other.tenant_)
        {
            other.engine_ = nullptr;
        }
        Stream &operator=(Stream &&other) noexcept
        {
            if (this != &other) {
                engine_ = other.engine_;
                id_ = other.id_;
                tenant_ = other.tenant_;
                other.engine_ = nullptr;
            }
            return *this;
        }
        Stream(const Stream &) = delete;
        Stream &operator=(const Stream &) = delete;

        u64 id() const { return id_; }
        /** Tenant this stream's requests bill to. */
        u64 tenant() const { return tenant_; }

      private:
        friend class ServingEngine;
        Stream(ServingEngine *engine, u64 id, u64 tenant)
            : engine_(engine), id_(id), tenant_(tenant)
        {
        }

        ServingEngine *engine_;
        u64 id_;
        u64 tenant_;
    };

    /**
     * Open a request stream (thread-safe). @p opts names the tenant
     * the stream bills to and sets that tenant's scheduling weight.
     * The default is tenant 0 at weight 1 -- a single-tenant engine
     * degenerates to the plain FIFO batch former.
     */
    Stream openStream(StreamOptions opts = {});

    /**
     * Submit one request: run @p input through @p model, a 1-input /
     * 1-output compiled graph (requests are single ciphertexts; the
     * engine forms the CtVec batches). Returns immediately; the future
     * resolves to the result ciphertext, or to QueueFullError /
     * ShutdownError / DeadlineError on rejection or shedding, or to
     * the evaluation error if the batch failed. The model must
     * outlive the future's completion.
     *
     * @throws std::invalid_argument on misuse detected at submit time
     *         (foreign/moved-from stream, a model that is not 1-in /
     *         1-out, an input off the model's input ledger, a
     *         deadline above kMaxWaitMicros).
     */
    std::future<ckks::Ciphertext> submit(Stream &stream,
                                         const graph::CompiledGraph &model,
                                         ckks::Ciphertext input,
                                         SubmitOptions opts = {});

    /** @name Dispatch gate. pause() lets requests accumulate (they
     *  still count against the queue bound); resume() releases the
     *  dispatchers. Pausing right after construction, before the first
     *  submit, holds every request until resume() -- deterministic
     *  batch forming. @{ */
    void pause();
    void resume();
    /** @} */

    /**
     * Stop accepting, run every already-queued request to completion
     * (shedding only requests whose deadline has already passed), and
     * join the dispatchers. Idempotent; called by the destructor.
     * Submissions during/after shutdown resolve to ShutdownError.
     */
    void shutdown();

    ServingStats stats() const;
    /** Per-tenant counter snapshot (tenants seen so far). */
    std::map<u64, TenantStats> tenantStats() const;
    /** Requests queued and not yet claimed by a dispatcher. */
    size_t queueDepth() const;

    const ckks::CkksContext &context() const { return ctx_; }

  private:
    using Clock = std::chrono::steady_clock;

    struct Request
    {
        const graph::CompiledGraph *model = nullptr;
        ckks::Ciphertext input;
        std::promise<ckks::Ciphertext> result;
        u64 tenant = 0;
    };

    void dispatchLoop();
    /** Move every expired entry out of the scheduler into @p shed,
     *  updating the shed counters. m_ must be held; the promises are
     *  fulfilled by the caller outside the lock. */
    void collectExpiredLocked(std::vector<Request> &shed);
    /** Form one batch: DRR/EDF leader + same-model fill. m_ held. */
    std::vector<Request> formBatchLocked();
    void execute(std::vector<Request> &reqs);

    const ckks::CkksContext &ctx_;
    const ServingConfig cfg_;
    ckks::BatchEvaluator batch_;

    mutable std::mutex m_;
    std::condition_variable cv_;
    /** Per-tenant EDF queues under weighted deficit-round-robin. */
    DrrScheduler<Request> sched_;
    bool paused_ = false;
    bool stopping_ = false;
    ServingStats stats_;
    std::map<u64, TenantStats> tenantStats_;

    std::atomic<u64> nextStream_{0};
    std::vector<std::thread> dispatchers_;
};

} // namespace cross::serving
