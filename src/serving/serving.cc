#include "serving/serving.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <optional>
#include <utility>

#include "ckks/schedule.h"
#include "common/check.h"

namespace cross::serving {

ServingEngine::ServingEngine(const ckks::CkksContext &ctx,
                             ServingConfig cfg)
    : ctx_(ctx), cfg_(cfg), batch_(ctx)
{
    requireThat(cfg_.maxQueueDepth > 0,
                "ServingEngine: maxQueueDepth must be positive");
    requireThat(cfg_.maxBatch > 0,
                "ServingEngine: maxBatch must be positive");
    requireThat(cfg_.dispatchers > 0,
                "ServingEngine: need at least one dispatcher");
    requireThat(cfg_.costScale > 0,
                "ServingEngine: costScale must be positive");
    paused_ = cfg_.startPaused;
    dispatchers_.reserve(cfg_.dispatchers);
    for (u32 i = 0; i < cfg_.dispatchers; ++i)
        dispatchers_.emplace_back([this] { dispatchLoop(); });
}

ServingEngine::~ServingEngine()
{
    shutdown();
}

ServingEngine::Stream
ServingEngine::openStream(StreamOptions opts)
{
    requireThat(opts.weight >= 1,
                "ServingEngine::openStream: tenant weight must be >= 1");
    {
        std::lock_guard<std::mutex> lock(m_);
        sched_.setWeight(opts.tenant, opts.weight);
    }
    return Stream(this, nextStream_.fetch_add(1) + 1, opts.tenant);
}

ServingEngine::BatchKey
ServingEngine::keyOf(const Request &r)
{
    return BatchKey{r.pipe ? static_cast<const void *>(r.pipe)
                           : static_cast<const void *>(r.model),
                    r.input.limbs(), std::bit_cast<u64>(r.input.scale)};
}

void
ServingEngine::checkStream(const Stream &stream) const
{
    requireThat(stream.engine_ == this,
                "ServingEngine::submit: stream does not belong to this "
                "engine (or was moved from)");
}

std::future<ckks::Ciphertext>
ServingEngine::submit(Stream &stream, const ckks::Pipeline &pipe,
                      ckks::Ciphertext input, SubmitOptions opts)
{
    checkStream(stream);
    // Ciphertext-operand stages reference a caller-sized rhs batch;
    // a dynamically formed batch has no matching rhs, so reject the
    // model shape at submit time rather than failing whole batches.
    for (const auto &st : pipe.stages())
        requireThat(st.rhs == nullptr,
                    "ServingEngine::submit: pipeline has a "
                    "ciphertext-operand stage; only plaintext/rotation "
                    "pipelines can be dynamically batched");
    Request r;
    r.pipe = &pipe;
    r.input = std::move(input);
    r.stream = stream.id_;
    r.tenant = stream.tenant_;
    if (opts.deadlineUs > 0) {
        r.hasDeadline = true;
        r.deadline =
            Clock::now() + std::chrono::microseconds(opts.deadlineUs);
    }
    return enqueue(std::move(r));
}

std::future<ckks::Ciphertext>
ServingEngine::submit(Stream &stream, graph::CompiledGraph &model,
                      ckks::Ciphertext input, SubmitOptions opts)
{
    checkStream(stream);
    requireThat(model.inputCount() == 1 && model.outputCount() == 1,
                "ServingEngine::submit: serving models must be "
                "1-input / 1-output graphs");
    Request r;
    r.model = &model;
    r.input = std::move(input);
    r.stream = stream.id_;
    r.tenant = stream.tenant_;
    if (opts.deadlineUs > 0) {
        r.hasDeadline = true;
        r.deadline =
            Clock::now() + std::chrono::microseconds(opts.deadlineUs);
    }
    return enqueue(std::move(r));
}

double
ServingEngine::modelEstimateUs(const Request &r) const
{
    if (r.input.limbs() < 1)
        return 0.0;
    const size_t level = r.input.limbs() - 1;
    const void *target = r.pipe ? static_cast<const void *>(r.pipe)
                                : static_cast<const void *>(r.model);
    const auto key = std::make_pair(target, level);
    {
        std::lock_guard<std::mutex> lock(m_);
        const auto it = estCache_.find(key);
        if (it != estCache_.end())
            return it->second;
    }
    // Pricing enumerates the whole kernel schedule -- keep it outside
    // the engine lock and memoise per (model, level).
    double us = 0.0;
    if (r.pipe) {
        if (cfg_.costModel)
            us = cfg_.costModel->pipelineLatencyUs(r.pipe->pipelineOps(),
                                                   level, 1);
    } else {
        // Compiled graphs carry their own schedule price (0 when the
        // graph was compiled without a device).
        switch (r.model->schedule()) {
          case graph::ScheduleKind::PerOp:
            us = r.model->perOpCostUs();
            break;
          case graph::ScheduleKind::Hoisted:
            us = r.model->hoistedCostUs();
            break;
          default:
            us = r.model->fusedCostUs();
            break;
        }
    }
    std::lock_guard<std::mutex> lock(m_);
    estCache_.emplace(key, us);
    return us;
}

double
ServingEngine::estimatePipelineUs(const ckks::Pipeline &pipe,
                                  size_t level) const
{
    if (!cfg_.costModel)
        return 0.0;
    return cfg_.costScale *
           cfg_.costModel->pipelineLatencyUs(pipe.pipelineOps(), level, 1);
}

std::future<ckks::Ciphertext>
ServingEngine::enqueue(Request r)
{
    requireThat(r.input.limbs() >= 1,
                "ServingEngine::submit: empty input ciphertext");
    std::future<ckks::Ciphertext> fut = r.result.get_future();
    // Admission control: a deadline the batch-latency estimate says we
    // cannot make is shed *now*, before it occupies a queue slot the
    // feasible requests need. Estimate outside the lock (it prices a
    // kernel schedule on a miss).
    double est_wall_us = 0.0;
    if (r.hasDeadline && cfg_.costModel)
        est_wall_us = cfg_.costScale * modelEstimateUs(r);
    {
        std::lock_guard<std::mutex> lock(m_);
        if (stopping_) {
            ++stats_.rejected;
            ++tenantStats_[r.tenant].rejected;
            r.result.set_exception(std::make_exception_ptr(ShutdownError(
                "ServingEngine: engine is shutting down")));
            return fut;
        }
        if (r.hasDeadline) {
            const auto earliest_finish =
                Clock::now() + std::chrono::microseconds(
                                   static_cast<u64>(est_wall_us));
            if (r.deadline < earliest_finish) {
                ++stats_.rejected;
                ++stats_.deadlineRejected;
                ++tenantStats_[r.tenant].rejected;
                r.result.set_exception(
                    std::make_exception_ptr(DeadlineError(
                        "ServingEngine: deadline infeasible at submit "
                        "(closer than the batch-latency estimate)")));
                return fut;
            }
        }
        if (sched_.size() >= cfg_.maxQueueDepth) {
            // Backpressure: reject-with-error, never block the
            // submitter -- a closed-loop client slows down, an
            // open-loop one sees the overload explicitly.
            ++stats_.rejected;
            ++tenantStats_[r.tenant].rejected;
            r.result.set_exception(std::make_exception_ptr(QueueFullError(
                "ServingEngine: request queue is full")));
            return fut;
        }
        ++stats_.submitted;
        ++tenantStats_[r.tenant].submitted;
        const u64 tenant = r.tenant;
        std::optional<Clock::time_point> deadline;
        if (r.hasDeadline)
            deadline = r.deadline;
        sched_.push(tenant, deadline, std::move(r));
    }
    cv_.notify_one();
    return fut;
}

void
ServingEngine::collectExpiredLocked(std::vector<Request> &shed)
{
    if (sched_.empty())
        return;
    for (auto &e : sched_.popExpired(Clock::now())) {
        ++stats_.failed;
        ++stats_.deadlineShed;
        ++tenantStats_[e.tenant].shed;
        shed.push_back(std::move(e.payload));
    }
}

std::vector<ServingEngine::Request>
ServingEngine::formBatchLocked()
{
    // The leader is the scheduler's pick: weighted DRR across tenants,
    // EDF inside the winning tenant. The rest of the batch is filled
    // with requests sharing the leader's (model, level, scale) from
    // any tenant -- they ride the same resident rotation-key working
    // set, and each one is charged to its own tenant's DRR account.
    auto leader = sched_.popNext();
    internalCheck(leader.has_value(),
                  "ServingEngine: batch forming on an empty scheduler");
    std::vector<Request> formed;
    formed.push_back(std::move(leader->payload));
    const BatchKey key = keyOf(formed.front());
    if (formed.size() < cfg_.maxBatch) {
        auto fill = sched_.popMatching(
            [&](const DrrScheduler<Request>::Entry &e) {
                return keyOf(e.payload) == key;
            },
            cfg_.maxBatch - formed.size());
        for (auto &e : fill)
            formed.push_back(std::move(e.payload));
    }
    ++stats_.batches;
    stats_.batchedRequests += formed.size();
    stats_.maxBatch = std::max<u64>(stats_.maxBatch, formed.size());
    return formed;
}

void
ServingEngine::dispatchLoop()
{
    for (;;) {
        std::vector<Request> formed;
        std::vector<Request> shed;
        {
            std::unique_lock<std::mutex> lock(m_);
            cv_.wait(lock, [&] {
                return stopping_ || (!paused_ && !sched_.empty());
            });
            if (sched_.empty()) {
                if (stopping_)
                    return; // drained
                continue;
            }
            // Shed before forming: a request whose deadline passed
            // while it waited must not spend a batch slot.
            collectExpiredLocked(shed);
            if (!sched_.empty() && cfg_.maxBatchWaitMicros > 0 &&
                !stopping_ && sched_.size() < cfg_.maxBatch) {
                // Batch-growing patience: hold the batch open up to
                // the knob so late arrivals join it. A full batch,
                // pause(), or shutdown() ends the wait early; the
                // queue can only grow while we hold the leader slot,
                // never drain (other dispatchers wait on cv_ too, but
                // a spurious-wake race is resolved by the re-checks
                // below).
                const auto deadline =
                    Clock::now() +
                    std::chrono::microseconds(cfg_.maxBatchWaitMicros);
                cv_.wait_until(lock, deadline, [&] {
                    return stopping_ || paused_ ||
                           sched_.size() >= cfg_.maxBatch;
                });
                // Deadlines kept ticking through the wait.
                collectExpiredLocked(shed);
            }
            if (!sched_.empty() && !(paused_ && !stopping_))
                formed = formBatchLocked();
        }
        // Promises are fulfilled outside the lock: a waiter woken by
        // set_exception may immediately call back into the engine.
        for (auto &r : shed)
            r.result.set_exception(std::make_exception_ptr(DeadlineError(
                "ServingEngine: deadline passed while queued")));
        if (!formed.empty())
            execute(formed);
        // An empty round (all shed / paused / spurious) loops back to
        // the gate, which also handles the stopping_ + drained exit.
    }
}

void
ServingEngine::execute(std::vector<Request> &reqs)
{
    ckks::CtVec inputs;
    inputs.reserve(reqs.size());
    for (auto &r : reqs)
        inputs.push_back(std::move(r.input));
    try {
        ckks::CtVec out;
        if (reqs.front().pipe) {
            out = batch_.run(inputs, *reqs.front().pipe);
        } else {
            graph::CompiledGraph *model = reqs.front().model;
            // One run at a time per model: CompiledGraph reuses its
            // value slots across runs, so two dispatchers must not
            // drive the same model concurrently.
            std::lock_guard<std::mutex> lock(modelLock(model));
            out = std::move(
                model->run(batch_, {std::move(inputs)}).front());
        }
        internalCheck(out.size() == reqs.size(),
                      "ServingEngine: batch result size mismatch");
        // Count before fulfilling: a client that observed its future
        // ready must already find itself in stats().completed.
        {
            std::lock_guard<std::mutex> lock(m_);
            stats_.completed += reqs.size();
            for (const auto &r : reqs)
                ++tenantStats_[r.tenant].completed;
        }
        for (size_t i = 0; i < reqs.size(); ++i)
            reqs[i].result.set_value(std::move(out[i]));
    } catch (...) {
        // The whole batch shares one failure: every member has the
        // same (model, level, scale), so a validation error for one
        // is a validation error for all.
        const std::exception_ptr err = std::current_exception();
        {
            std::lock_guard<std::mutex> lock(m_);
            stats_.failed += reqs.size();
        }
        for (auto &r : reqs)
            r.result.set_exception(err);
    }
}

std::mutex &
ServingEngine::modelLock(const void *model)
{
    std::lock_guard<std::mutex> lock(m_);
    auto &slot = modelLocks_[model];
    if (!slot)
        slot = std::make_unique<std::mutex>();
    return *slot;
}

void
ServingEngine::pause()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        paused_ = true;
    }
    // Wake dispatchers sitting in the batch-growing timed wait: its
    // predicate treats pause as "stop waiting, re-check the gate".
    cv_.notify_all();
}

void
ServingEngine::resume()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        paused_ = false;
    }
    cv_.notify_all();
}

void
ServingEngine::shutdown()
{
    std::vector<std::thread> workers;
    {
        std::lock_guard<std::mutex> lock(m_);
        stopping_ = true;
        paused_ = false; // a paused engine still drains
        workers.swap(dispatchers_);
    }
    cv_.notify_all();
    for (auto &t : workers)
        t.join();
}

ServingStats
ServingEngine::stats() const
{
    std::lock_guard<std::mutex> lock(m_);
    return stats_;
}

std::map<u64, TenantStats>
ServingEngine::tenantStats() const
{
    std::lock_guard<std::mutex> lock(m_);
    return tenantStats_;
}

size_t
ServingEngine::queueDepth() const
{
    std::lock_guard<std::mutex> lock(m_);
    return sched_.size();
}

} // namespace cross::serving
