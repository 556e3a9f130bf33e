/**
 * @file
 * Table IX: packed bootstrapping latency across TPU generations and the
 * v6e per-kernel breakdown, vs published FIDESlib / Cheddar / CraterLake.
 * Methodology: kernel-count x per-kernel simulated latency, no fusion
 * (the paper's own worst-case estimator).
 *
 * Part 2 (functional): the same schedule *executed* -- bootstrapGraph
 * compiled by graph::compileGraph on the host CPU (plaintext CtS/StC
 * stages, BSGS rotation keys served from the LRU residency cache), in
 * both graph shapes: Hoisted (one fused segment, each BSGS group a
 * slotSum sharing one ModUp, Halevi-Shoup style) and PerOp (each group
 * written as explicit rotate + add nodes, so every rotation pays its
 * own ModUp). Both run under the Fused schedule and are verified
 * bit-identical to the per-op graph's CompiledGraph::runSequential,
 * and kernel-for-kernel against their enumeration, before any number
 * is reported; the per-op run must also launch exactly the hoisted
 * run's saved ModUps more INTTs. Two trajectory records are emitted:
 * the functional-vs-estimated latency ratio (estimator fidelity; the
 * estimator prices the Hoisted kernel mode) and the hoisted-vs-per-op
 * wall-clock speedup. Runtime config:
 *
 *     --threads <n>   thread-pool size for the fused run  (default 2)
 *     --batch <n>     ciphertexts bootstrapped per batch  (default 2)
 */
#include <iostream>

#include "baselines/published.h"
#include "bench_util.h"
#include "ckks/batch_evaluator.h"
#include "ckks/bootstrap.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "tpu/sim.h"

namespace {

using namespace cross;

/** Uniform ciphertexts at each compiled input's (limbs, scale): the
 *  synthetic operands the bootstrap schedule executes on. */
std::vector<ckks::CtVec>
uniformInputs(const ckks::CkksContext &ctx,
              const std::vector<ckks::graph::InputSpec> &ledger,
              size_t batch, u64 seed)
{
    Rng rng(seed);
    std::vector<ckks::CtVec> inputs;
    for (const auto &spec : ledger) {
        ckks::CtVec v(batch);
        for (auto &ct : v) {
            ct.c0 = poly::RnsPoly::uniform(ctx.ring(), spec.limbs, true,
                                           rng);
            ct.c1 = poly::RnsPoly::uniform(ctx.ring(), spec.limbs, true,
                                           rng);
            ct.scale = spec.scale;
        }
        inputs.push_back(std::move(v));
    }
    return inputs;
}

bool
sameCalls(const std::vector<ckks::KernelCall> &got,
          const std::vector<ckks::KernelCall> &want)
{
    if (got.size() != want.size())
        return false;
    for (size_t i = 0; i < got.size(); ++i)
        if (!got[i].sameShape(want[i]))
            return false;
    return true;
}

u64
inttLaunches(const ckks::KernelLog &log)
{
    u64 n = 0;
    for (const auto &k : log.calls())
        n += k.kind == ckks::KernelKind::Intt;
    return n;
}

/**
 * Execute the full bootstrap schedule as compiled graphs on
 * test-profile parameters and report measured-vs-estimated latency.
 * Returns false when a result is not bit-identical to the sequential
 * reference, a kernel log diverges from its enumeration, or the INTT
 * difference between the two shapes is not the hoisted saves.
 */
bool
functionalBootstrap(bench::Reporter &rep, u64 threads, u64 batch)
{
    using namespace cross::ckks;
    // Test-profile chain: the full Set D (N = 2^16, 51 limbs) takes
    // hours on a CPU host; the schedule *shape* (op mix, level
    // trajectory, key working set) is what executes here.
    CkksContext ctx(CkksParams::testSet(1 << 9, 9, 2));
    BootstrapConfig cfg;
    cfg.ctsLevels = 2;
    cfg.stcLevels = 2;
    cfg.evalModDegree = 4;
    cfg.evalModIters = 1;
    cfg.plainMatrices = true;

    // The two graph shapes compiled over identical key material: fresh
    // KeyGenerators with the same seed draw the same keys in the same
    // derivation order, so the per-op and hoisted runs on the same
    // inputs can be compared bit for bit.
    const double scale = static_cast<double>(1ULL << 26);
    const auto compile = [&](BootstrapKernelMode mode, KeyGenerator &kg) {
        const BootstrapGraph bg =
            bootstrapGraph(ctx, cfg, scale, 0xb009, mode);
        graph::CompileOptions opts;
        opts.lowering = bg.lowering;
        opts.keygen = &kg;
        return graph::compileGraph(ctx, bg.graph, opts);
    };
    KeyGenerator keygen(ctx, 0x7ab1e9);
    const auto cg = compile(BootstrapKernelMode::PerOp, keygen);
    KeyGenerator keygen_h(ctx, 0x7ab1e9);
    const auto cg_h = compile(BootstrapKernelMode::Hoisted, keygen_h);
    const auto inputs =
        uniformInputs(ctx, cg->inputLedger(), batch, 0xb00a);
    const std::string he_ops =
        std::to_string(enumerateBootstrapOps(ctx.params(), cfg).size());

    // Sequential reference: the per-op graph on one thread with
    // one-shot keys. Its log is the per-op run's reference: that graph
    // runs segment by segment, so at a batch above 1 its log is not
    // batch copies of the per-item enumeration.
    setGlobalThreadCount(1);
    KernelLog seq_log;
    WallTimer t_seq;
    const auto seq = cg->runSequential(&seq_log, inputs).front();
    const double seq_s = t_seq.seconds();

    // The per-op graph with the key-switch residency cache.
    auto &cache = ctx.keySwitchCache();
    cache.clear();
    cache.resetStats();
    setGlobalThreadCount(static_cast<u32>(threads));
    KernelLog fused_log;
    BatchEvaluator batch_ev(ctx, &fused_log);
    WallTimer t_fused;
    const auto fused = cg->run(batch_ev, inputs).front();
    const double fused_s = t_fused.seconds();

    // The hoisted graph: every BSGS group shares one ModUp across its
    // rotation fan-out.
    KernelLog hoisted_log;
    BatchEvaluator batch_ev_h(ctx, &hoisted_log);
    WallTimer t_hoisted;
    const auto hoisted = cg_h->run(batch_ev_h, inputs).front();
    const double hoisted_s = t_hoisted.seconds();
    setGlobalThreadCount(1);

    bool identical = fused.size() == seq.size();
    for (size_t i = 0; identical && i < fused.size(); ++i)
        identical = fused[i].c0 == seq[i].c0 && fused[i].c1 == seq[i].c1;
    // Hoisting must not change a single bit either.
    bool hoisted_identical = hoisted.size() == seq.size();
    for (size_t i = 0; hoisted_identical && i < hoisted.size(); ++i)
        hoisted_identical = hoisted[i].c0 == seq[i].c0 &&
                            hoisted[i].c1 == seq[i].c1;

    // Kernel-for-kernel conformance of each run against its
    // enumeration: the per-op log against its sequential log (and at
    // batch 1 against the PerOp enumeration itself), the hoisted log
    // against batch copies of the Hoisted enumeration.
    const auto predicted = enumerateBootstrapKernels(
        ctx.params(), cfg, BootstrapKernelMode::PerOp);
    const bool log_ok =
        sameCalls(fused_log.calls(), seq_log.calls()) &&
        (batch != 1 || sameCalls(fused_log.calls(), predicted));
    const auto predicted_h = enumerateBootstrapKernels(
        ctx.params(), cfg, BootstrapKernelMode::Hoisted);
    bool hlog_ok =
        hoisted_log.calls().size() == batch * predicted_h.size();
    for (size_t i = 0; hlog_ok && i < hoisted_log.calls().size(); ++i)
        hlog_ok = hoisted_log.calls()[i].sameShape(
            predicted_h[i % predicted_h.size()]);
    // Every save is one ModUp, i.e. one INTT, the per-op run launched
    // and the hoisted run did not.
    const bool saves_ok = inttLaunches(fused_log) ==
        inttLaunches(hoisted_log) + hoisted_log.hoistedModUpSaves();

    // Estimated latency of the *same* params + config on the simulated
    // v6e (worst case, one core): the fidelity denominator. The
    // estimator prices the Hoisted kernel mode, so the hoisted functional
    // run is the fidelity numerator.
    lowering::Config lcfg;
    const auto est =
        estimateBootstrap(tpu::tpuV6e(), lcfg, ctx.params(), cfg);

    const double batch_d = static_cast<double>(batch);
    const double fused_us = fused_s * 1e6 / batch_d;
    const double hoisted_us = hoisted_s * 1e6 / batch_d;
    const double ratio = hoisted_us / est.totalUs;
    const double hoist_speedup = fused_s / hoisted_s;

    TablePrinter t("Functional bootstrap pipeline (test profile, "
                   "CPU host)");
    t.header({"Mode", "Threads", "Batch", "ms/bootstrap", "HE ops"});
    t.row({"sequential", "1", std::to_string(batch),
           fmtF(seq_s * 1e3 / batch_d, 1), he_ops});
    t.row({"fused per-op", std::to_string(threads),
           std::to_string(batch), fmtF(fused_s * 1e3 / batch_d, 1),
           he_ops});
    t.row({"fused hoisted", std::to_string(threads),
           std::to_string(batch), fmtF(hoisted_s * 1e3 / batch_d, 1),
           he_ops});
    t.print(std::cout);
    std::cout << "Bit-identical to sequential: per-op "
              << (identical ? "yes" : "NO (BUG)") << ", hoisted "
              << (hoisted_identical ? "yes" : "NO (BUG)")
              << "\nKernel log == enumerator: per-op "
              << (log_ok ? "yes" : "NO (BUG)") << ", hoisted "
              << (hlog_ok ? "yes" : "NO (BUG)")
              << "\nShared-ModUp saves (hoisted run): "
              << hoisted_log.hoistedModUpSaves() << ", per-op INTTs "
              << inttLaunches(fused_log) << " vs hoisted "
              << inttLaunches(hoisted_log)
              << (saves_ok ? "" : " (BUG: difference != saves)")
              << "; hoisted vs per-op speedup: " << fmtX(hoist_speedup)
              << "\nKey residency: " << cache.size() << " resident, "
              << cache.misses() << " built, " << cache.hits()
              << " cache-served, " << cache.evictions()
              << " evicted\nCPU-functional (hoisted) vs simulated-v6e "
                 "estimate (same params): "
              << fmtX(ratio)
              << " (trajectory metric: estimator fidelity)\n";

    const std::string n_str = std::to_string(ctx.degree());
    const std::string limbs_str = std::to_string(ctx.qCount());
    rep.addUs("table9/functional_bootstrap",
              {{"mode", "fused"},
               {"threads", std::to_string(threads)},
               {"batch", std::to_string(batch)},
               {"n", n_str},
               {"limbs", limbs_str},
               {"he_ops", he_ops}},
              fused_us, batch_d / fused_s);
    rep.addUs("table9/functional_bootstrap",
              {{"mode", "hoisted"},
               {"threads", std::to_string(threads)},
               {"batch", std::to_string(batch)},
               {"n", n_str},
               {"limbs", limbs_str},
               {"he_ops", he_ops}},
              hoisted_us, batch_d / hoisted_s);
    rep.add("table9/hoisted_vs_perop",
            {{"metric", "perop_wall_over_hoisted_wall"},
             {"threads", std::to_string(threads)},
             {"batch", std::to_string(batch)},
             {"n", n_str},
             {"limbs", limbs_str},
             {"modup_saves",
              std::to_string(hoisted_log.hoistedModUpSaves())}},
            0.0, hoist_speedup);
    rep.addUs("table9/functional_bootstrap",
              {{"mode", "sequential"},
               {"threads", "1"},
               {"batch", std::to_string(batch)},
               {"n", n_str},
               {"limbs", limbs_str},
               {"he_ops", he_ops}},
              seq_s * 1e6 / batch_d, batch_d / seq_s);
    rep.add("table9/functional_vs_estimated",
            {{"metric", "cpu_functional_over_v6e_estimate"},
             {"n", n_str},
             {"limbs", limbs_str}},
            0.0, ratio);
    return identical && hoisted_identical && log_ok && hlog_ok &&
           saves_ok;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cross;
    const u64 threads =
        bench::consumeUintFlag(argc, argv, "threads", 2);
    const u64 batch = bench::consumeUintFlag(argc, argv, "batch", 2);
    bench::Reporter rep(argc, argv, "table09_bootstrap");
    bench::banner("Table IX",
                  "packed CKKS bootstrapping latency + breakdown (Set D) "
                  "+ functional fused-pipeline bootstrap",
                  bench::kSimNote);

    const auto params = ckks::CkksParams::paperSet('D');
    lowering::Config cfg;

    TablePrinter t("Table IX: packed bootstrapping latency");
    t.header({"System", "Latency (ms)", "source"});
    for (const auto &b : baselines::table9Baselines())
        t.row({b.system, fmtF(b.latencyMs, 2), "published"});

    double v6e_ms = 0;
    ckks::BootstrapEstimate v6e_est;
    for (const auto &dev : tpu::allTpus()) {
        const auto est = ckks::estimateBootstrap(dev, cfg, params);
        // Bootstraps of independent ciphertexts run on all cores.
        const double ms = est.totalUs / 1000.0 / dev.defaultTcCount;
        t.row({dev.name + " (" + dev.vmSetup + ")", fmtF(ms, 1),
               "simulated"});
        rep.addUs("table9/bootstrap", {{"device", dev.name}}, ms * 1e3);
        if (dev.name == "TPUv6e") {
            v6e_ms = ms;
            v6e_est = est;
        }
    }
    for (const auto &b : baselines::table9PaperTpus())
        t.row({"paper " + b.system, fmtF(b.latencyMs, 1), "published"});
    t.print(std::cout);

    TablePrinter bd("v6e kernel breakdown (paper: Automorphism 35.64%, "
                    "VecModMul 25.55%, (I)NTT 16.87%, VecModAdd 15.29%, "
                    "BConv 6.65%)");
    bd.header({"Kernel", "share", "ms (one core)"});
    for (const auto &[k, us] : v6e_est.byKernelUs)
        bd.row({k, fmtPct(us / v6e_est.totalUs), fmtF(us / 1000, 1)});
    bd.print(std::cout);

    const double cheddar = baselines::table9Baselines()[1].latencyMs;
    const double craterlake = baselines::table9Baselines()[2].latencyMs;
    std::cout << "\nv6e-8 vs Cheddar (RTX4090): "
              << fmtX(cheddar / v6e_ms) << " (paper: 1.5x)\n"
              << "CraterLake (HE ASIC) vs v6e-8: "
              << fmtX(v6e_ms / craterlake)
              << " faster ASIC (paper: ~5x; Section V-E explains the "
                 "software gap: no fusion, unembeddable automorphism "
                 "permutations).\n"
              << "HE ops in pipeline: " << v6e_est.heOps
              << ", kernel launches: " << v6e_est.kernelLaunches << "\n\n";

    const u64 thr = threads == 0 ? 1 : threads;
    const u64 bat = batch == 0 ? 1 : batch;
    if (!functionalBootstrap(rep, thr, bat)) {
        rep.cancel(); // never ship numbers from a wrong result
        return 1;
    }
    return rep.flush() ? 0 : 1;
}
