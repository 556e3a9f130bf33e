#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <utility>

namespace setb {

using namespace cross;
using namespace cross::ckks;

namespace {

/** Median wall ms of model @p m at batch @p batch (pool items cycled). */
double
serveModelRunMs(ServeBench &s, size_t m, size_t batch, int reps)
{
    CtVec items;
    for (size_t i = 0; i < batch; ++i)
        items.push_back(s.inputs[m].cts[i % kPoolSize]);
    const std::vector<CtVec> in{std::move(items)};
    const BatchEvaluator be(s.rig.ctx);
    return medianSeconds(reps, [&] { (void)s.models[m]->run(be, in); }) *
           1e3;
}

/** Pool size for batch size @p batch: at least two distinct batches. */
size_t
poolSizeFor(size_t batch)
{
    return std::max(kPoolSize, 2 * batch);
}

} // namespace

std::unique_ptr<MlpBench>
setupMlp(u64 seed, size_t batch, Tally &tally, double &setup_s)
{
    const double t0 = nowSeconds();
    auto b = std::make_unique<MlpBench>(seed);
    InputGen gen(seed);
    b->mlp = Mlp::random(gen, kMlpDim);
    b->model = compileModel(b->rig, b->mlp.graph());
    const double built_s = nowSeconds() - t0;

    b->inputs = makeInputs(b->rig, b->mlp, gen, poolSizeFor(batch));
    b->batchSize = batch;
    for (size_t k = 0; (k + 1) * batch <= b->inputs.cts.size(); ++k) {
        CtVec items(b->inputs.cts.begin() + static_cast<long>(k * batch),
                    b->inputs.cts.begin() +
                        static_cast<long>((k + 1) * batch));
        b->batches.push_back({std::move(items)});
    }

    bool no_fault = false;
    const double warm_s = runMlpOnce(*b, 0, nullptr, tally, no_fault);
    setup_s = built_s + warm_s;
    return b;
}

double
runMlpOnce(MlpBench &b, size_t k, KernelLog *log, Tally &tally,
           bool &corrupt)
{
    const size_t idx = k % b.batches.size();
    const BatchEvaluator be(b.rig.ctx, log);
    const double t0 = nowSeconds();
    auto out = b.model->run(be, b.batches[idx]);
    const double dt = nowSeconds() - t0;
    for (size_t i = 0; i < out.at(0).size(); ++i) {
        tally.record(checkOutput(b.rig, std::move(out[0][i]),
                                 b.inputs.expected[idx * b.batchSize + i],
                                 corrupt));
        corrupt = false;
    }
    return dt;
}

Samples
measureMlp(MlpBench &b, double seconds, size_t min_samples, Tally &tally,
           bool &corrupt)
{
    Samples s;
    const double start = nowSeconds();
    for (size_t k = 0;; ++k) {
        const double el = nowSeconds() - start;
        if ((el >= seconds && s.latency_s.size() >= min_samples) ||
            el >= kMaxWindowSeconds)
            break;
        const double dt = runMlpOnce(b, k, nullptr, tally, corrupt);
        s.latency_s.push_back(dt);
        s.busy_s += dt;
        s.items += b.batchSize;
    }
    s.window_s = nowSeconds() - start;
    return s;
}

std::unique_ptr<ServeBench>
setupServe(u64 seed, Tally &tally, double &setup_s)
{
    const double t0 = nowSeconds();
    auto s = std::make_unique<ServeBench>(seed);
    InputGen gen(seed ^ 0x5e7eULL);
    for (size_t m = 0; m < 2; ++m) {
        s->layers[m] = DenseLayer::random(gen, kDenseDims[m]);
        s->models[m] = compileModel(s->rig, s->layers[m].graph());
    }
    const double built_s = nowSeconds() - t0;

    for (size_t m = 0; m < 2; ++m)
        s->inputs[m] = makeInputs(s->rig, s->layers[m], gen, kPoolSize);

    const BatchEvaluator be(s->rig.ctx);
    std::vector<CtVec> outs[2];
    const double t1 = nowSeconds();
    for (size_t m = 0; m < 2; ++m)
        outs[m] = s->models[m]->run(be, {{s->inputs[m].cts[0]}});
    setup_s = built_s + (nowSeconds() - t1);
    for (size_t m = 0; m < 2; ++m)
        tally.record(checkOutput(s->rig, outs[m].at(0).at(0),
                                 s->inputs[m].expected[0], false));
    return s;
}

LoopResult
closedLoop(ServeBench &s, double warmup_s, double window_s,
           size_t min_samples, Tally &tally, bool &corrupt, bool traced)
{
    serving::ServingConfig cfg;
    cfg.dispatchers = 2;
    cfg.maxQueueDepth = 4 * kStreams;
    // A completed batch's streams resubmit within about a millisecond;
    // holding the next batch open that long lets them coalesce instead
    // of splitting on whichever request lands first.
    cfg.maxBatchWaitMicros = 2000;
    serving::ServingEngine engine(s.rig.ctx, cfg);

    struct Client
    {
        serving::ServingEngine::Stream stream;
        std::future<Ciphertext> fut;
        size_t model = 0;
        size_t item = 0;
        u64 issued = 0;
        double submitted = 0.0;
        bool busy = false;
    };
    struct Span
    {
        double submitted, done;
        size_t model;
        u64 batchesSeen;
    };
    struct Check
    {
        Ciphertext ct;
        const std::vector<double> *expected;
    };

    std::vector<Client> clients;
    clients.reserve(kStreams);
    for (size_t i = 0; i < kStreams; ++i)
        clients.push_back(Client{engine.openStream(), {}, i % 2, 0, 0, 0.0,
                                 false});
    auto submit = [&](size_t i) {
        Client &c = clients[i];
        c.item = (i / 2 + c.issued++) % kPoolSize;
        c.submitted = nowSeconds();
        c.fut = engine.submit(c.stream, *s.models[c.model],
                              s.inputs[c.model].cts[c.item]);
        c.busy = true;
    };
    auto verify = [&](Check &chk) {
        tally.record(
            checkOutput(s.rig, std::move(chk.ct), *chk.expected, corrupt));
        corrupt = false;
    };

    LoopResult r;
    std::vector<Span> spans;
    std::deque<Check> pending;
    const double start = nowSeconds();
    const double rec_start = start + warmup_s;
    double rec_end = rec_start;
    bool stopping = false;
    size_t in_flight = 0;
    for (size_t i = 0; i < kStreams; ++i, ++in_flight)
        submit(i);

    while (in_flight > 0) {
        bool progressed = false;
        for (size_t i = 0; i < clients.size(); ++i) {
            Client &c = clients[i];
            if (!c.busy || c.fut.wait_for(std::chrono::seconds(0)) !=
                               std::future_status::ready)
                continue;
            const double done = nowSeconds();
            c.busy = false;
            --in_flight;
            progressed = true;
            try {
                pending.push_back(
                    {c.fut.get(), &s.inputs[c.model].expected[c.item]});
                if (!stopping && done >= rec_start) {
                    r.samples.latency_s.push_back(done - c.submitted);
                    ++r.samples.items;
                }
            } catch (const std::exception &) {
                tally.record(false); // refused or failed: not ok
            }
            if (traced)
                spans.push_back({c.submitted, done, c.model,
                                 engine.stats().batches});
            if (!stopping) {
                submit(i);
                ++in_flight;
            }
        }
        const double now = nowSeconds();
        if (!stopping &&
            ((now >= rec_start + window_s &&
              r.samples.latency_s.size() >= min_samples) ||
             now >= rec_start + kMaxWindowSeconds)) {
            stopping = true;
            rec_end = now;
        }
        if (!pending.empty() && (!progressed || pending.size() > kStreams)) {
            // Check one output while nothing is ready, or now when the
            // backlog would otherwise grow (and with it peak RSS).
            verify(pending.front());
            pending.pop_front();
            continue;
        }
        if (progressed)
            continue;
        const Client *oldest = nullptr;
        for (const Client &c : clients)
            if (c.busy && (!oldest || c.submitted < oldest->submitted))
                oldest = &c;
        if (oldest)
            oldest->fut.wait_for(std::chrono::microseconds(200));
    }
    for (Check &chk : pending)
        verify(chk);

    r.samples.window_s = rec_end - rec_start;
    r.samples.busy_s = r.samples.window_s;
    r.stats = engine.stats();
    r.spans = spans.size();
    engine.shutdown();
    return r;
}

void
servingLayerMetrics(ServeBench &s, const LoopResult &traced, Metrics &out,
                    Tally &tally)
{
    const auto &st = traced.stats;
    const double mean_batch =
        st.batches ? static_cast<double>(st.batchedRequests) /
                         static_cast<double>(st.batches)
                   : 0.0;
    out.add("serving.mean_batch", mean_batch, "count");
    out.add("serving.max_batch", static_cast<double>(st.maxBatch), "count");
    out.add("serving.batches", static_cast<double>(st.batches), "count");
    out.add("serving.rejected", static_cast<double>(st.rejected), "count");

    // The same requests one at a time on the same pool: both models in
    // turn over every pool input.
    const BatchEvaluator be(s.rig.ctx);
    double seq_s = 0.0;
    const size_t n_seq = 2 * kPoolSize;
    for (size_t i = 0; i < n_seq; ++i) {
        const size_t m = i % 2;
        const std::vector<CtVec> in{{s.inputs[m].cts[i / 2]}};
        const double t0 = nowSeconds();
        auto res = s.models[m]->run(be, in);
        seq_s += nowSeconds() - t0;
        tally.record(checkOutput(s.rig, std::move(res.at(0).at(0)),
                                 s.inputs[m].expected[i / 2], false));
    }
    const double seq_rps = static_cast<double>(n_seq) / seq_s;
    const double serve_rps = static_cast<double>(traced.samples.items) /
                             traced.samples.window_s;
    out.add("serving.vs_seq", serve_rps / seq_rps, "ratio");

    const size_t b = std::max<size_t>(
        1, static_cast<size_t>(std::lround(mean_batch)));
    const double run_ms =
        0.5 * (serveModelRunMs(s, 0, b, 3) + serveModelRunMs(s, 1, b, 3));
    out.add("serving.overhead_ms",
            median(traced.samples.latency_s) * 1e3 - run_ms, "ms");
}

} // namespace setb
