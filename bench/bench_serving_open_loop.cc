/**
 * @file
 * Open-loop serving benchmark: Poisson arrivals across N tenants with
 * mixed scheduling weights drive the deadline- and tenant-aware
 * ServingEngine (src/serving/). Unlike the closed-loop bench, clients
 * submit at their offered arrival rate regardless of completions, so
 * the engine is exposed to real overload: the weighted
 * deficit-round-robin scheduler must keep every tenant at its weighted
 * share, the EDF order must serve urgent requests first, and deadline
 * admission control plus dispatch-time shedding must bound the work
 * wasted on requests that cannot make their deadline.
 *
 * Offered load is expressed relative to the measured sequential
 * service rate (load 2.0 = twice what a sequential evaluator could
 * sustain), and each tenant's offered share is proportional to its
 * scheduling weight -- so the Jain fairness index over
 * completed_t / weight_t is ~1 whenever no tenant is starved, and
 * drops below the checked-in tolerance band when one is (a 3-tenant
 * run with one starved tenant measures ~0.67).
 *
 * Deadline admission reads the served model's fastest measured run
 * (CompiledGraph::fastestRunMicros), which the engine's first
 * completed batch sets, so admission reasons in this host's wall-clock
 * terms with nothing to calibrate.
 *
 * Every completed result is verified bit-identical to the model's
 * sequential reference (CompiledGraph::runSequential, one request at
 * a time) before any number is reported. Emits
 * cross-bench-v1 records: serving/deadline_miss_rate,
 * serving/fairness_jain (tolerance-banded), and per-load p50/p99 /
 * throughput. Runtime config:
 *
 *     --tenants <n>         tenants, weights 4,2,1 cycling (default 3)
 *     --requests <n>        requests per weight unit per tenant per
 *                           load point (tenant t submits n x weight_t
 *                           requests)                      (default 24)
 *     --threads <n>         thread-pool size               (default 4)
 *     --dispatchers <n>     batch-forming threads          (default 2)
 *     --wait-us <n>         batch-growing patience, us     (default 200)
 *     --loads <csv>         offered loads, percent of the sequential
 *                           service rate                (default 50,200)
 *     --deadline-slack <n>  deadline = n x the sequential per-request
 *                           latency, on every other request (default 8)
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
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
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const size_t idx = std::min(
        sorted.size() - 1,
        static_cast<size_t>(p * static_cast<double>(sorted.size())));
    return sorted[idx];
}

std::vector<double>
parseLoads(const std::string &csv)
{
    std::vector<double> loads;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            loads.push_back(std::stod(item) / 100.0);
    if (loads.empty())
        loads.push_back(0.5);
    return loads;
}

/** Jain fairness index over per-tenant weighted throughput shares:
 *  (sum x)^2 / (n * sum x^2), 1.0 when every tenant gets exactly its
 *  weighted share, 1/n when one tenant receives everything. */
double
jainIndex(const std::vector<double> &shares)
{
    double sum = 0.0, sq = 0.0;
    for (const double x : shares) {
        sum += x;
        sq += x * x;
    }
    if (sq == 0.0)
        return 0.0;
    return sum * sum / (static_cast<double>(shares.size()) * sq);
}

struct LoadResult
{
    double p50_us = 0.0;
    double p99_us = 0.0;
    double rps = 0.0;
    double missRate = 0.0;
    double jain = 0.0;
    u64 completed = 0;
    u64 misses = 0;
    u64 queueFull = 0;
    u64 deadlineCarrying = 0;
    double meanBatch = 0.0;
    bool ok = true;
};

struct OpenLoopSetup
{
    CkksContext ctx;
    CkksEncoder encoder;
    KeyGenerator keygen;
    CkksEncryptor encryptor;
    std::unique_ptr<graph::CompiledGraph> model;
    std::vector<CtVec> inputs; ///< [tenant][request]
    std::vector<CtVec> refs;   ///< sequential-reference results
    std::vector<u32> weights;  ///< per-tenant DRR weight
    double seqPerReqUs = 0.0;  ///< measured sequential latency/request

    OpenLoopSetup(u64 tenants, u64 requests)
        : ctx(CkksParams::testSet(1u << 10, 5, 2)), encoder(ctx),
          keygen(ctx, 0x01e1), encryptor(ctx, keygen.publicKey(), 0x01e2)
    {
        // rotate(rescale(x * 0.5), 1).
        graph::Graph g;
        const auto half = graph::PlainOperand::base(
            std::vector<double>(encoder.slotCount(), 0.5));
        g.rotate(g.rescale(g.multiplyPlain(g.input(), half)), 1);
        graph::CompileOptions opts;
        opts.lowering.baseScale = kScale;
        opts.keygen = &keygen;
        model = graph::compileGraph(ctx, g, opts);

        // Mixed priorities: weights 4, 2, 1 cycling across tenants.
        const u32 cycle[3] = {4, 2, 1};
        for (u64 t = 0; t < tenants; ++t)
            weights.push_back(cycle[t % 3]);

        // Offered load is proportional to weight in both rate and
        // volume: tenant t submits requests x weight_t requests at
        // weight_t's share of the total arrival rate. A fair engine
        // then completes equal weighted shares (Jain ~ 1) at any load.
        Rng rng(0x01e3);
        inputs.resize(tenants);
        for (u64 t = 0; t < tenants; ++t) {
            for (u64 i = 0; i < requests * weights[t]; ++i) {
                std::vector<double> v(encoder.slotCount());
                for (auto &x : v)
                    x = rng.real() * 2 - 1;
                inputs[t].push_back(encryptor.encrypt(
                    encoder.encodeReal(v, kScale, ctx.qCount())));
            }
        }

        // Sequential reference: the bit-identity baseline and the
        // service-rate yardstick offered load is expressed against.
        setGlobalThreadCount(1);
        refs.resize(tenants);
        u64 total = 0;
        WallTimer t_seq;
        for (u64 t = 0; t < tenants; ++t) {
            for (const auto &ct : inputs[t])
                refs[t].push_back(
                    model->runSequential(nullptr, {{ct}}).at(0).at(0));
            total += inputs[t].size();
        }
        seqPerReqUs = t_seq.micros() / static_cast<double>(total);
    }
};

/**
 * One load point: every tenant runs an open-loop Poisson submitter
 * (exponential inter-arrivals at load x weight_t / sum(w) of the
 * sequential service rate) plus a drainer that measures each request's
 * submit-to-completion latency and classifies rejections.
 */
LoadResult
runLoad(OpenLoopSetup &s, double load, u64 requests, u64 threads,
        u64 dispatchers, u64 wait_us, u64 deadline_slack)
{
    const u64 tenants = s.weights.size();
    double weight_sum = 0.0;
    for (const u32 w : s.weights)
        weight_sum += w;
    // Offered load splits across tenants in proportion to weight, so a
    // fair engine completes shares proportional to weight at any load.
    const double total_rate = load / s.seqPerReqUs; // requests per us
    const double deadline_us =
        static_cast<double>(deadline_slack) * s.seqPerReqUs;

    setGlobalThreadCount(static_cast<u32>(threads));
    serving::ServingConfig cfg;
    cfg.dispatchers = static_cast<u32>(dispatchers);
    cfg.maxQueueDepth = static_cast<size_t>(requests * weight_sum);
    cfg.maxBatchWaitMicros = wait_us;
    serving::ServingEngine engine(s.ctx, cfg);

    struct Pending
    {
        u64 idx;
        bool hasDeadline;
        double submitUs;
        std::future<Ciphertext> fut;
    };

    LoadResult res;
    std::vector<std::vector<double>> lat_us(tenants);
    std::atomic<u64> misses{0}, queue_full{0}, deadline_total{0};
    std::atomic<bool> ok{true};
    std::mutex err_m;
    WallTimer t_load;
    {
        std::vector<std::thread> workers;
        for (u64 t = 0; t < tenants; ++t) {
            workers.emplace_back([&, t] {
                auto stream = engine.openStream(
                    {.tenant = t, .weight = s.weights[t]});
                const double rate =
                    total_rate * s.weights[t] / weight_sum;
                const double mean_gap_us = 1.0 / rate;
                const u64 reqs_t = requests * s.weights[t];
                Rng rng(0x01e4 + t);

                std::mutex q_m;
                std::condition_variable q_cv;
                std::deque<Pending> q;
                bool done = false;

                std::thread drainer([&] {
                    for (;;) {
                        Pending p;
                        {
                            std::unique_lock<std::mutex> lock(q_m);
                            q_cv.wait(lock,
                                      [&] { return done || !q.empty(); });
                            if (q.empty())
                                return;
                            p = std::move(q.front());
                            q.pop_front();
                        }
                        try {
                            const Ciphertext got = p.fut.get();
                            lat_us[t].push_back(t_load.micros() -
                                                p.submitUs);
                            const Ciphertext &ref = s.refs[t][p.idx];
                            if (!(got.c0 == ref.c0 && got.c1 == ref.c1 &&
                                  got.scale == ref.scale)) {
                                std::lock_guard<std::mutex> lock(err_m);
                                std::cerr << "tenant " << t << " request "
                                          << p.idx
                                          << ": result differs from the "
                                             "sequential reference\n";
                                ok = false;
                            }
                        } catch (const serving::DeadlineError &) {
                            ++misses;
                        } catch (const serving::QueueFullError &) {
                            ++queue_full;
                        } catch (const std::exception &e) {
                            std::lock_guard<std::mutex> lock(err_m);
                            std::cerr << "tenant " << t
                                      << " request failed: " << e.what()
                                      << "\n";
                            ok = false;
                        }
                    }
                });

                for (u64 i = 0; i < reqs_t; ++i) {
                    // Poisson arrivals: exponential inter-arrival gaps.
                    const double u = rng.real();
                    const double gap =
                        -std::log(1.0 - std::min(u, 0.999999)) *
                        mean_gap_us;
                    std::this_thread::sleep_for(std::chrono::microseconds(
                        static_cast<u64>(gap)));
                    serving::SubmitOptions opts;
                    if (i % 2 == 0) { // every other request has a deadline
                        opts.deadlineUs = static_cast<u64>(deadline_us);
                        ++deadline_total;
                    }
                    Pending p;
                    p.idx = i;
                    p.hasDeadline = opts.deadlineUs != 0;
                    p.submitUs = t_load.micros();
                    p.fut =
                        engine.submit(stream, *s.model, s.inputs[t][i], opts);
                    {
                        std::lock_guard<std::mutex> lock(q_m);
                        q.push_back(std::move(p));
                    }
                    q_cv.notify_one();
                }
                {
                    std::lock_guard<std::mutex> lock(q_m);
                    done = true;
                }
                q_cv.notify_one();
                drainer.join();
            });
        }
        for (auto &w : workers)
            w.join();
    }
    const double wall_s = t_load.seconds();
    const auto st = engine.stats();
    const auto ts = engine.tenantStats();
    engine.shutdown();
    setGlobalThreadCount(1);

    res.ok = ok;
    res.misses = misses;
    res.queueFull = queue_full;
    res.deadlineCarrying = deadline_total;
    res.completed = st.completed;
    res.missRate =
        deadline_total
            ? static_cast<double>(misses) / static_cast<double>(deadline_total)
            : 0.0;
    res.rps = wall_s > 0 ? static_cast<double>(st.completed) / wall_s : 0.0;
    res.meanBatch =
        st.batches ? static_cast<double>(st.batchedRequests) /
                         static_cast<double>(st.batches)
                   : 0.0;

    std::vector<double> shares;
    for (u64 t = 0; t < tenants; ++t) {
        const auto it = ts.find(t);
        const double completed =
            it == ts.end() ? 0.0 : static_cast<double>(it->second.completed);
        shares.push_back(completed / s.weights[t]);
    }
    res.jain = jainIndex(shares);

    std::vector<double> all;
    for (const auto &l : lat_us)
        all.insert(all.end(), l.begin(), l.end());
    std::sort(all.begin(), all.end());
    res.p50_us = percentile(all, 0.50);
    res.p99_us = percentile(all, 0.99);
    if (res.completed == 0) {
        std::cerr << "load " << load << ": no request completed\n";
        res.ok = false;
    }
    return res;
}

bool
openLoop(bench::Reporter &rep, u64 tenants, u64 requests, u64 threads,
         u64 dispatchers, u64 wait_us, const std::vector<double> &loads,
         u64 deadline_slack)
{
    OpenLoopSetup s(tenants, requests);
    std::cout << "Sequential latency: " << fmtF(s.seqPerReqUs / 1e3, 2)
              << " ms/request\n";

    TablePrinter t("Open-loop multi-tenant serving (host CPU)");
    t.header({"Load", "Offered r/s", "Done r/s", "p50 ms", "p99 ms",
              "Miss %", "Jain", "mean batch"});

    bool all_ok = true;
    std::vector<std::pair<double, LoadResult>> results;
    for (const double load : loads) {
        LoadResult r = runLoad(s, load, requests, threads, dispatchers,
                               wait_us, deadline_slack);
        all_ok = all_ok && r.ok;
        t.row({fmtF(load, 2), fmtF(load / s.seqPerReqUs * 1e6, 1),
               fmtF(r.rps, 1), fmtF(r.p50_us / 1e3, 2),
               fmtF(r.p99_us / 1e3, 2), fmtF(r.missRate * 100, 1),
               fmtF(r.jain, 3), fmtF(r.meanBatch, 1)});
        results.emplace_back(load, r);
    }
    t.print(std::cout);
    std::cout << "Fastest measured model run (admission bound): "
              << fmtF(static_cast<double>(s.model->fastestRunMicros()) / 1e3,
                      2)
              << " ms\n";
    std::cout << "Bit-identical to sequential: "
              << (all_ok ? "yes" : "NO (BUG)") << "\n";
    if (!all_ok)
        return false;

    for (const auto &[load, r] : results) {
        const std::vector<std::pair<std::string, std::string>> params = {
            {"load", fmtF(load, 2)},
            {"tenants", std::to_string(tenants)},
            {"requests", std::to_string(requests)},
            {"threads", std::to_string(threads)},
            {"dispatchers", std::to_string(dispatchers)},
            {"wait_us", std::to_string(wait_us)},
            {"deadline_slack", std::to_string(deadline_slack)}};
        rep.addUs("serving/open_loop_p50", params, r.p50_us);
        rep.addUs("serving/open_loop_p99", params, r.p99_us);
        rep.addUs("serving/open_loop_throughput", params,
                  r.rps > 0 ? 1e6 / r.rps : 0.0, r.rps);
        rep.add("serving/deadline_miss_rate", params, 0.0, r.missRate);
        rep.add("serving/fairness_jain", params, 0.0, r.jain);
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const u64 tenants = bench::consumeUintFlag(argc, argv, "tenants", 3);
    const u64 requests =
        bench::consumeUintFlag(argc, argv, "requests", 24);
    const u64 threads = bench::consumeUintFlag(argc, argv, "threads", 4);
    const u64 dispatchers =
        bench::consumeUintFlag(argc, argv, "dispatchers", 2);
    const u64 wait_us =
        bench::consumeUintFlag(argc, argv, "wait-us", 200);
    const u64 deadline_slack =
        bench::consumeUintFlag(argc, argv, "deadline-slack", 8);
    const std::vector<double> loads = parseLoads(
        bench::consumeStringFlag(argc, argv, "loads", "50,200"));
    bench::Reporter rep(argc, argv, "serving_open_loop");
    bench::banner(
        "Serving engine (open loop)",
        "Poisson arrivals across weighted tenants: deadline-aware "
        "admission + shedding, DRR fairness (Jain index), p50/p99 vs "
        "offered load, bit-identical to sequential",
        "host CPU (functional)");

    const bool ok =
        openLoop(rep, tenants == 0 ? 1 : tenants,
                 requests == 0 ? 1 : requests, threads == 0 ? 1 : threads,
                 dispatchers == 0 ? 1 : dispatchers, wait_us, loads,
                 deadline_slack == 0 ? 1 : deadline_slack);
    if (!ok) {
        rep.cancel(); // never ship numbers from a wrong result
        return 1;
    }
    return rep.flush() ? 0 : 1;
}
