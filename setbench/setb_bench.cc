/**
 * @file
 * Set-B benchmark driver: CKKS inference, batching and serving at the
 * paper's Set-B parameters (N = 2^13, 8 limbs, dnum 3).
 *
 *     setb_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Workloads:
 *   setb_mlp_single    compiled two-layer MLP, batch 1, 1-thread pool
 *   setb_mlp_batch     the same graph on batches of 8, 2-thread pool
 *   setb_serve_closed  ServingEngine, 2 dispatchers, 2-thread pool, 16
 *                      closed-loop streams over two dense-layer models
 *
 * --trace 0 prints the end-to-end metrics: setup_s, throughput,
 * latency_p50_ms, latency_tail_ms, ok_frac and peak_rss_mib. --trace 1
 * runs the workload traced against untraced, then the layer ledger
 * (ledger.h), and prints the per-layer metrics instead. The last line
 * of standard output is one JSON object: correct, attempted, failed and
 * metrics. --corrupt 1 perturbs the first checked output, which must
 * drive ok_frac below 1 (the self-test's fault injection).
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <malloc.h>
#include <stdexcept>
#include <string>

#include "bench_common.h"
#include "common/parallel.h"
#include "ledger.h"
#include "workloads.h"

namespace {

using namespace setb;
using cross::setGlobalThreadCount;

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool corrupt = false;
};

/** A gated workload: pool size and the tail percentile it reports. */
struct Spec
{
    const char *name;
    u32 threads;
    size_t batch;
    /** Tail percentile, in percent; the run keeps sampling until at
     *  least 10 samples lie beyond it. */
    u32 tailPct;
    bool serving;
};

constexpr Spec kSpecs[] = {
    {"setb_mlp_single", 1, 1, 90, false},
    {"setb_mlp_batch", 2, kBatch, 75, false},
    {"setb_serve_closed", 2, 1, 90, true},
};

/** Set-ups per gated run; setup_s is their median. */
constexpr int kSetups = 5;

/** Samples needed for >= 10 beyond the nearest-rank percentile. */
size_t
minSamples(u32 pct)
{
    return (1000 + (100 - pct) - 1) / (100 - pct);
}

const Spec &
specOf(const std::string &name)
{
    for (const Spec &s : kSpecs)
        if (name == s.name)
            return s;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + key);
        const std::string val = argv[++i];
        if (key == "--workload") {
            a.workload = val;
            have_workload = true;
        } else if (key == "--seed") {
            a.seed = std::stoull(val);
        } else if (key == "--seconds") {
            a.seconds = std::stod(val);
        } else if (key == "--trace") {
            a.trace = val == "1";
        } else if (key == "--corrupt") {
            a.corrupt = val == "1";
        } else {
            throw std::invalid_argument("unknown flag " + key);
        }
    }
    if (!have_workload)
        throw std::invalid_argument("--workload is required");
    if (!(a.seconds > 0))
        throw std::invalid_argument("--seconds must be positive");
    return a;
}

void
cacheMetrics(const cross::ckks::CkksContext &ctx, Metrics &m)
{
    const auto &c = ctx.keySwitchCache();
    m.add("ckks.cache_hits", static_cast<double>(c.hits()), "count");
    m.add("ckks.cache_misses", static_cast<double>(c.misses()), "count");
    m.add("ckks.cache_evictions", static_cast<double>(c.evictions()),
          "count");
    m.add("ckks.cache_resident_mib",
          static_cast<double>(c.residentBytes()) / (1024.0 * 1024.0), "MiB");
}

// ---- gated run (--trace 0) --------------------------------------------

void
gatedRun(const Args &a, const Spec &spec, Metrics &m, Tally &tally)
{
    bool corrupt = a.corrupt;
    const size_t need = minSamples(spec.tailPct);
    setGlobalThreadCount(spec.threads);
    std::vector<double> setups;
    Samples s;
    if (spec.serving) {
        std::unique_ptr<ServeBench> sb;
        for (int i = 0; i < kSetups; ++i) {
            sb.reset();
            double t = 0;
            sb = setupServe(a.seed, tally, t);
            setups.push_back(t);
        }
        s = closedLoop(*sb, 1.0, a.seconds, need, tally, corrupt, false)
                .samples;
        s.busy_s = s.window_s;
    } else {
        std::unique_ptr<MlpBench> mb;
        for (int i = 0; i < kSetups; ++i) {
            mb.reset();
            double t = 0;
            mb = setupMlp(a.seed, spec.batch, tally, t);
            setups.push_back(t);
        }
        s = measureMlp(*mb, a.seconds, need, tally, corrupt);
    }
    setGlobalThreadCount(1);

    std::vector<double> lat = s.latency_s;
    std::sort(lat.begin(), lat.end());
    const size_t rank = (spec.tailPct * lat.size() + 99) / 100;
    if (lat.empty() || lat.size() - rank < 10)
        throw std::runtime_error("too few samples for the tail percentile");
    std::cout << spec.name << ": " << lat.size() << " latency samples in "
              << s.window_s << " s; latency_tail_ms is p" << spec.tailPct
              << " (" << lat.size() - rank << " samples beyond it)\n";

    m.add("setup_s", median(setups), "s");
    m.add("throughput", static_cast<double>(s.items) / s.busy_s, "1/s");
    m.add("latency_p50_ms", median(lat) * 1e3, "ms");
    m.add("latency_tail_ms", lat[rank - 1] * 1e3, "ms");
    m.add("ok_frac",
          static_cast<double>(tally.attempted - tally.failed) /
              static_cast<double>(tally.attempted),
          "frac");
    m.add("peak_rss_mib", peakRssMib(), "MiB");
}

// ---- traced run (--trace 1) -------------------------------------------

/** Kernel seconds over thread-seconds of one CompiledGraph::run. */
double
coverage(const cross::ckks::KernelLog &log, double wall_s, u32 threads)
{
    return log.totalSeconds() / (wall_s * threads);
}

void
tracedMlp(const Args &a, const Spec &spec, Metrics &m, Tally &tally)
{
    bool corrupt = a.corrupt;
    setGlobalThreadCount(spec.threads);
    double setup_s = 0;
    auto mb = setupMlp(a.seed, spec.batch, tally, setup_s);
    // Untraced and traced runs alternate so both see the same host.
    std::vector<double> plain, traced, cov;
    const double start = nowSeconds();
    for (size_t k = 0; plain.size() < 10 || nowSeconds() - start <
                                                a.seconds / 3;
         ++k) {
        plain.push_back(runMlpOnce(*mb, k, nullptr, tally, corrupt));
        cross::ckks::KernelLog log;
        const double t = runMlpOnce(*mb, k, &log, tally, corrupt);
        traced.push_back(t);
        cov.push_back(coverage(log, t, spec.threads));
    }
    m.add("trace.overhead_frac", median(traced) / median(plain) - 1.0,
          "frac");
    m.add("graph.kernel_coverage", median(cov), "frac");
    cacheMetrics(mb->rig.ctx, m);
    mb.reset();

    // This workload runs no engine: a short closed loop supplies the
    // serving layer's numbers.
    setGlobalThreadCount(2);
    auto sb = setupServe(a.seed, tally, setup_s);
    const LoopResult loop = closedLoop(*sb, 0.5, 2.0, 0, tally, corrupt,
                                       true);
    servingLayerMetrics(*sb, loop, m, tally);
    setGlobalThreadCount(1);
}

void
tracedServe(const Args &a, Metrics &m, Tally &tally)
{
    bool corrupt = a.corrupt;
    setGlobalThreadCount(2);
    double setup_s = 0;
    auto sb = setupServe(a.seed, tally, setup_s);
    const double window = std::max(2.0, a.seconds / 4);
    const LoopResult plain =
        closedLoop(*sb, 1.0, window, 0, tally, corrupt, false);
    const LoopResult traced =
        closedLoop(*sb, 0.0, window, 0, tally, corrupt, true);
    const auto rate = [](const LoopResult &r) {
        return static_cast<double>(r.samples.items) / r.samples.window_s;
    };
    m.add("trace.overhead_frac", rate(plain) / rate(traced) - 1.0, "frac");
    cacheMetrics(sb->rig.ctx, m);

    // Coverage of each served model at the offline batch size.
    std::vector<double> cov;
    for (size_t model = 0; model < 2; ++model) {
        cross::ckks::CtVec items;
        for (size_t i = 0; i < kBatch; ++i)
            items.push_back(sb->inputs[model].cts[i % kPoolSize]);
        const std::vector<cross::ckks::CtVec> in{std::move(items)};
        cross::ckks::KernelLog log;
        const cross::ckks::BatchEvaluator be(sb->rig.ctx, &log);
        const double t0 = nowSeconds();
        (void)sb->models[model]->run(be, in);
        cov.push_back(coverage(log, nowSeconds() - t0, 2));
    }
    m.add("graph.kernel_coverage", median(cov), "frac");
    servingLayerMetrics(*sb, traced, m, tally);
    setGlobalThreadCount(1);
}

void
printJson(const Tally &tally, const Metrics &m)
{
    std::string out = "{\"correct\": ";
    out += tally.attempted > 0 && tally.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(tally.attempted);
    out += ", \"failed\": " + std::to_string(tally.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metric &x : m.all()) {
        if (!std::isfinite(x.value))
            throw std::runtime_error("metric " + x.name + " is not finite");
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", x.value);
        out += first ? "" : ", ";
        out += "\"" + x.name + "\": {\"value\": " + num + ", \"unit\": \"" +
               x.unit + "\"}";
        first = false;
    }
    out += "}}";
    std::cout << out << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    // One malloc arena for every thread. With glibc's default of one
    // arena per allocating thread, which dispatcher or pool worker
    // happened to allocate a batch's temporaries decided how much freed
    // memory sat stranded in other arenas: the serving workload's peak
    // RSS moved between 220 and 240 MiB from run to run. With one arena
    // it stays within 0.5 MiB of 203 MiB.
    mallopt(M_ARENA_MAX, 1);
    try {
        const Args a = parseArgs(argc, argv);
        const Spec &spec = specOf(a.workload);
        Metrics m;
        Tally tally;
        if (!a.trace) {
            gatedRun(a, spec, m, tally);
        } else {
            if (spec.serving)
                tracedServe(a, m, tally);
            else
                tracedMlp(a, spec, m, tally);
            ledgerMetrics(a.seed, m, tally);
        }
        printJson(tally, m);
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "setb_bench: " << e.what() << "\n";
        return 1;
    }
}
