/**
 * @file
 * Closed-loop serving benchmark: hundreds of simulated client streams
 * drive the async ServingEngine (src/serving/) concurrently, each
 * stream submitting encrypted-inference requests one at a time and
 * waiting for its future before the next (closed loop). The dynamic
 * batch former coalesces whatever is queued across streams by model,
 * so under load the batch size self-tunes to
 * the number of in-flight streams -- the paper's Fig. 11b batching
 * amortisation, manufactured at the serving layer instead of handed
 * in by the caller.
 *
 * Reports per-request p50 / p99 latency and aggregate throughput,
 * plus the realised batch-forming statistics, as cross-bench-v1 JSON.
 * Every served result is verified bit-identical to the model's
 * sequential reference (CompiledGraph::runSequential, one request at
 * a time) before any number is reported. Runtime
 * config:
 *
 *     --streams <n>      concurrent client streams     (default 128)
 *     --requests <n>     requests per stream           (default 4)
 *     --threads <n>      thread-pool size              (default 4)
 *     --dispatchers <n>  batch-forming threads         (default 2)
 *     --wait-us <n>      batch-growing patience, us    (default 200)
 *                        (ServingConfig::maxBatchWaitMicros; 0 = pure
 *                        continuous batching)
 */
#include <algorithm>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/graph/compiler.h"
#include "ckks/keys.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "serving/serving.h"

namespace {

using namespace cross;
using namespace cross::ckks;

constexpr double kScale = 1ULL << 26;

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const size_t idx = std::min(
        sorted.size() - 1,
        static_cast<size_t>(p * static_cast<double>(sorted.size())));
    return sorted[idx];
}

bool
closedLoop(bench::Reporter &rep, u64 streams, u64 requests, u64 threads,
           u64 dispatchers, u64 wait_us)
{
    CkksContext ctx(CkksParams::testSet(1u << 10, 5, 2));
    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx, 0x5e21);
    CkksEncryptor encryptor(ctx, keygen.publicKey(), 0x5e22);

    // Two served models, rotate(rescale(x * 0.5), step) for steps 1
    // and 2, with distinct rotation-key working sets: the batch former
    // must group by model so the LRU residency cache serves each batch
    // from one resident key set.
    const auto half = graph::PlainOperand::base(
        std::vector<double>(encoder.slotCount(), 0.5));
    std::unique_ptr<graph::CompiledGraph> models[2];
    for (i64 step : {1, 2}) {
        graph::Graph g;
        g.rotate(g.rescale(g.multiplyPlain(g.input(), half)), step);
        graph::CompileOptions opts;
        opts.lowering.baseScale = kScale;
        opts.keygen = &keygen;
        models[step - 1] = graph::compileGraph(ctx, g, opts);
    }

    // Per-(stream, request) inputs.
    Rng rng(0x5e23);
    std::vector<CtVec> inputs(streams);
    for (u64 w = 0; w < streams; ++w) {
        for (u64 i = 0; i < requests; ++i) {
            std::vector<double> v(encoder.slotCount());
            for (auto &x : v)
                x = rng.real() * 2 - 1;
            inputs[w].push_back(encryptor.encrypt(
                encoder.encodeReal(v, kScale, ctx.qCount())));
        }
    }

    // Sequential reference: every request one at a time, one thread,
    // uncached precomps -- the bit-identity baseline and the
    // no-batching latency yardstick.
    setGlobalThreadCount(1);
    std::vector<CtVec> refs(streams);
    WallTimer t_seq;
    for (u64 w = 0; w < streams; ++w) {
        for (u64 i = 0; i < requests; ++i)
            refs[w].push_back(models[w % 2]
                                  ->runSequential(nullptr, {{inputs[w][i]}})
                                  .at(0)
                                  .at(0));
    }
    const double seq_s = t_seq.seconds();
    const double total = static_cast<double>(streams * requests);

    // Closed-loop clients: one outstanding request per stream.
    setGlobalThreadCount(static_cast<u32>(threads));
    serving::ServingConfig cfg;
    cfg.dispatchers = static_cast<u32>(dispatchers);
    cfg.maxQueueDepth = streams * requests;
    // Batch-growing patience: closed-loop arrivals are bursty right
    // after each batch completes, so a small wait lets the next batch
    // fill before launching (more key-operand amortisation per launch).
    cfg.maxBatchWaitMicros = wait_us;
    serving::ServingEngine engine(ctx, cfg);

    std::vector<std::vector<double>> lat_us(streams);
    std::vector<CtVec> got(streams);
    bool ok = true;
    std::mutex ok_m;
    WallTimer t_serve;
    {
        std::vector<std::thread> clients;
        clients.reserve(streams);
        for (u64 w = 0; w < streams; ++w) {
            clients.emplace_back([&, w] {
                auto stream = engine.openStream();
                const graph::CompiledGraph &model = *models[w % 2];
                for (u64 i = 0; i < requests; ++i) {
                    WallTimer t_req;
                    auto fut =
                        engine.submit(stream, model, inputs[w][i]);
                    try {
                        got[w].push_back(fut.get());
                    } catch (const std::exception &e) {
                        std::lock_guard<std::mutex> lock(ok_m);
                        std::cerr << "request failed: " << e.what()
                                  << "\n";
                        ok = false;
                        return;
                    }
                    lat_us[w].push_back(t_req.micros());
                }
            });
        }
        for (auto &t : clients)
            t.join();
    }
    const double serve_s = t_serve.seconds();
    engine.shutdown();
    setGlobalThreadCount(1);

    // Bit-identity to the sequential reference, request by request.
    for (u64 w = 0; ok && w < streams; ++w) {
        ok = got[w].size() == requests;
        for (u64 i = 0; ok && i < requests; ++i)
            ok = got[w][i].c0 == refs[w][i].c0 &&
                 got[w][i].c1 == refs[w][i].c1 &&
                 got[w][i].scale == refs[w][i].scale;
    }
    std::cout << "Bit-identical to sequential: "
              << (ok ? "yes" : "NO (BUG)") << "\n";
    if (!ok)
        return false;

    std::vector<double> all;
    for (const auto &l : lat_us)
        all.insert(all.end(), l.begin(), l.end());
    std::sort(all.begin(), all.end());
    const double p50 = percentile(all, 0.50);
    const double p99 = percentile(all, 0.99);
    const double rps = total / serve_s;
    const double seq_rps = total / seq_s;

    const auto st = engine.stats();
    const double mean_batch =
        st.batches ? static_cast<double>(st.batchedRequests) /
                         static_cast<double>(st.batches)
                   : 0.0;

    TablePrinter t("Closed-loop encrypted-inference serving (host CPU)");
    t.header({"Mode", "Streams", "Req/s", "p50 ms", "p99 ms",
              "mean batch", "max batch"});
    t.row({"sequential", "1", fmtF(seq_rps, 1),
           fmtF(seq_s * 1e3 / total, 2), fmtF(seq_s * 1e3 / total, 2),
           "1.0", "1"});
    t.row({"serving", std::to_string(streams), fmtF(rps, 1),
           fmtF(p50 / 1e3, 2), fmtF(p99 / 1e3, 2), fmtF(mean_batch, 1),
           std::to_string(st.maxBatch)});
    t.print(std::cout);
    std::cout << "Throughput vs sequential: " << fmtX(rps / seq_rps, 2)
              << " (" << st.batches << " batches formed, "
              << st.batchedRequests << " requests batched)\n";

    const std::vector<std::pair<std::string, std::string>> params = {
        {"streams", std::to_string(streams)},
        {"requests", std::to_string(requests)},
        {"threads", std::to_string(threads)},
        {"dispatchers", std::to_string(dispatchers)},
        {"wait_us", std::to_string(wait_us)}};
    auto with_metric = [&](const std::string &m) {
        auto p = params;
        p.emplace_back("metric", m);
        return p;
    };
    rep.addUs("serving/latency_p50", params, p50);
    rep.addUs("serving/latency_p99", params, p99);
    rep.addUs("serving/throughput", params, serve_s * 1e6 / total, rps);
    rep.addUs("serving/sequential", params, seq_s * 1e6 / total,
              seq_rps);
    rep.add("serving/batching", with_metric("mean_batch"), 0.0,
            mean_batch);
    rep.add("serving/batching", with_metric("max_batch"), 0.0,
            static_cast<double>(st.maxBatch));
    rep.add("serving/batching", with_metric("batches"), 0.0,
            static_cast<double>(st.batches));
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const u64 streams =
        bench::consumeUintFlag(argc, argv, "streams", 128);
    const u64 requests =
        bench::consumeUintFlag(argc, argv, "requests", 4);
    const u64 threads = bench::consumeUintFlag(argc, argv, "threads", 4);
    const u64 dispatchers =
        bench::consumeUintFlag(argc, argv, "dispatchers", 2);
    const u64 wait_us =
        bench::consumeUintFlag(argc, argv, "wait-us", 200);
    bench::Reporter rep(argc, argv, "serving_closed_loop");
    bench::banner(
        "Serving engine (closed loop)",
        "async encrypted-inference serving: dynamic batch forming "
        "across concurrent client streams, p50/p99 latency vs "
        "throughput, bit-identical to sequential",
        "host CPU (functional)");

    const bool ok = closedLoop(rep, streams == 0 ? 1 : streams,
                               requests == 0 ? 1 : requests,
                               threads == 0 ? 1 : threads,
                               dispatchers == 0 ? 1 : dispatchers,
                               wait_us);
    if (!ok) {
        rep.cancel(); // never ship numbers from a wrong result
        return 1;
    }
    return rep.flush() ? 0 : 1;
}
