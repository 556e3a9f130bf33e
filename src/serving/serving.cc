#include "serving/serving.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

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
    requireThat(cfg_.maxBatchWaitMicros <= kMaxWaitMicros,
                "ServingEngine: maxBatchWaitMicros above one year");
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

std::future<ckks::Ciphertext>
ServingEngine::submit(Stream &stream, const graph::CompiledGraph &model,
                      ckks::Ciphertext input, SubmitOptions opts)
{
    requireThat(stream.engine_ == this,
                "ServingEngine::submit: stream does not belong to this "
                "engine (or was moved from)");
    requireThat(model.inputCount() == 1 && model.outputCount() == 1,
                "ServingEngine::submit: serving models must be "
                "1-input / 1-output graphs");
    // Every queued request of a model sits at the model's one input
    // level and scale, so the model alone is the batch key.
    model.checkInput(0, input);
    requireThat(opts.deadlineUs <= kMaxWaitMicros,
                "ServingEngine::submit: deadline above one year");
    Request r;
    r.model = &model;
    r.input = std::move(input);
    r.tenant = stream.tenant_;
    std::optional<Clock::time_point> deadline;
    if (opts.deadlineUs > 0)
        deadline = Clock::now() + std::chrono::microseconds(opts.deadlineUs);
    std::future<ckks::Ciphertext> fut = r.result.get_future();
    {
        std::lock_guard<std::mutex> lock(m_);
        if (stopping_) {
            ++stats_.rejected;
            ++tenantStats_[r.tenant].rejected;
            r.result.set_exception(std::make_exception_ptr(ShutdownError(
                "ServingEngine: engine is shutting down")));
            return fut;
        }
        if (deadline) {
            // Admission control: a deadline closer than the model's
            // fastest measured run cannot be made, so it is shed *now*,
            // before it occupies a queue slot the feasible requests
            // need.
            const auto earliest_finish =
                Clock::now() +
                std::chrono::microseconds(model.fastestRunMicros());
            if (*deadline < earliest_finish) {
                ++stats_.rejected;
                ++stats_.deadlineRejected;
                ++tenantStats_[r.tenant].rejected;
                r.result.set_exception(
                    std::make_exception_ptr(DeadlineError(
                        "ServingEngine: deadline infeasible at submit "
                        "(closer than the model's fastest run)")));
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
        ++tenantStats_[e.tenant].failed;
        ++tenantStats_[e.tenant].shed;
        shed.push_back(std::move(e.payload));
    }
}

std::vector<ServingEngine::Request>
ServingEngine::formBatchLocked()
{
    // The leader is the scheduler's pick: weighted DRR across tenants,
    // EDF inside the winning tenant. The rest of the batch is filled
    // with requests for the leader's model from any tenant -- they
    // ride the same resident rotation-key working set, and each one is
    // charged to its own tenant's DRR account.
    auto leader = sched_.popNext();
    internalCheck(leader.has_value(),
                  "ServingEngine: batch forming on an empty scheduler");
    std::vector<Request> formed;
    formed.push_back(std::move(leader->payload));
    const graph::CompiledGraph *model = formed.front().model;
    if (formed.size() < cfg_.maxBatch) {
        auto fill = sched_.popMatching(
            [&](const DrrScheduler<Request>::Entry &e) {
                return e.payload.model == model;
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
        // CompiledGraph::run is reentrant: another dispatcher may be
        // running a batch of the same model right now.
        ckks::CtVec out = std::move(
            reqs.front().model->run(batch_, {std::move(inputs)}).front());
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
        // The whole batch shares one failure: every member runs the
        // same model at its one input level, so a validation error
        // for one is a validation error for all.
        const std::exception_ptr err = std::current_exception();
        {
            std::lock_guard<std::mutex> lock(m_);
            stats_.failed += reqs.size();
            for (const auto &r : reqs)
                ++tenantStats_[r.tenant].failed;
        }
        for (auto &r : reqs)
            r.result.set_exception(err);
    }
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
