/**
 * @file
 * Fig. 11b: batching, three ways.
 *
 * Part 1 (analytical): NTT throughput vs batch size on one TPUv6e
 * tensor core, normalised to batch 1, for parameter Sets A-D -- the
 * dispatch-amortisation rise and the VMEM-residency roll-off.
 *
 * Part 2 (functional): the same batching idea executed for real by the
 * BatchEvaluator on the host CPU: HE-Mult over a vector of ciphertexts
 * with one key-switch precomputation per batch and the batch items
 * spread across the thread pool (each item's kernels run as plain limb
 * loops on its own thread), versus the sequential
 * one-ciphertext-at-a-time evaluator. The batched run is swept over
 * thread counts {1, 2, 4} (plus --threads when different) against one
 * shared sequential baseline, so the JSON carries the host scaling
 * curve, not a single point.
 *
 * Part 3 (fused pipelines): the paper's batching wins amortise setup
 * across both items *and* operators. A Mult -> Rescale -> Rotate
 * pipeline (the bootstrap schedule's shape) is run three ways --
 * sequential evaluator loop, one single-stage batched run per
 * operator, and one fused three-stage BatchEvaluator::run with the
 * context-level key-switch residency cache -- and the fused-vs-unfused
 * amortisation is reported along with the cache's build/hit counters.
 *
 * Part 4 (residency roll-off): the functional mirror of the
 * VMEM-residency knee in the analytical curves. A Set-D-style
 * rotation-key working set (several keys x several levels) is replayed
 * under a sweep of KeySwitchCache byte budgets; as the budget drops
 * below the working set, LRU evictions force precomp re-streams on the
 * next pass -- hit rate rolls off exactly like batched NTT throughput
 * does when operands stop fitting VMEM. Runtime config:
 *
 *     --threads <n>   thread-pool size for the batched runs (default 4)
 *     --batch <n>     ciphertexts per batch               (default 8)
 *
 * All batched results are verified bit-identical to the sequential
 * ones before any number is reported.
 */
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "ckks/batch_evaluator.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keys.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "cross/lowering.h"
#include "tpu/sim.h"

namespace {

using namespace cross;

/** Analytical sweep (the original Fig. 11b reproduction). */
void
analyticalSweep(bench::Reporter &rep)
{
    const auto &dev = tpu::tpuV6e();
    lowering::Config cfg;
    lowering::Lowering lower(dev, cfg);

    struct Set
    {
        const char *name;
        u32 n;
    };
    const Set sets[] = {{"Set A (2^12)", 1u << 12},
                        {"Set B (2^13)", 1u << 13},
                        {"Set C (2^14)", 1u << 14},
                        {"Set D (2^16)", 1u << 16}};

    TablePrinter t("Fig. 11b: normalised #NTT/s on one TPUv6e core");
    std::vector<std::string> hdr = {"Batch"};
    for (const auto &s : sets)
        hdr.push_back(s.name);
    t.header(hdr);

    std::vector<double> base(4, 0);
    std::vector<u64> peak_batch(4, 1);
    std::vector<double> peak_thr(4, 0);
    for (u64 batch = 1; batch <= 128; batch *= 2) {
        std::vector<std::string> row = {std::to_string(batch)};
        for (size_t i = 0; i < 4; ++i) {
            const u32 r = std::min(128u, sets[i].n / 2);
            const auto kernel = lower.ntt(sets[i].n, r, 1);
            const auto run = tpu::runBatched(dev, kernel, batch);
            if (batch == 1)
                base[i] = run.itemsPerSec;
            if (run.itemsPerSec > peak_thr[i]) {
                peak_thr[i] = run.itemsPerSec;
                peak_batch[i] = batch;
            }
            row.push_back(fmtF(run.itemsPerSec / base[i], 2));
            rep.addUs("fig11b/ntt",
                      {{"set", sets[i].name},
                       {"batch", std::to_string(batch)}},
                      run.perItemUs, run.itemsPerSec);
        }
        t.row(row);
    }
    t.print(std::cout);

    std::cout << "\nOptimal batch / gain vs batch 1:";
    for (size_t i = 0; i < 4; ++i) {
        std::cout << "  " << sets[i].name << ": " << peak_batch[i] << " ("
                  << fmtX(peak_thr[i] / base[i], 1) << ")";
    }
    std::cout << "\nPaper (one v6e core): 32 (7.7x) / 16 (2.9x) / 16 "
                 "(1.5x) / 8 (1.4x). Shape: higher degrees peak at "
                 "smaller batches and gain less.\n";
}

/**
 * Functional batch engine: HE-Mult throughput, sequential
 * single-ciphertext evaluator (threads=1) vs BatchEvaluator swept over
 * thread counts {1, 2, 4} plus the --threads value. The context, keys,
 * inputs and sequential reference are built once; every swept point
 * reuses them, so the per-thread-count speedups are measured against
 * the same baseline on the same data. Returns false when any batched
 * result is not bit-identical to the sequential ones.
 */
bool
functionalBatch(bench::Reporter &rep, u64 threads, u64 batch)
{
    using namespace cross::ckks;
    // N = 2^14: paper Set C's degree, the acceptance point for the
    // batched engine. Test-profile limb chain keeps keygen quick.
    const u32 n = 1u << 14;
    CkksContext ctx(CkksParams::testSet(n, 6, 2));
    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx, 0x11b);
    CkksEncryptor encryptor(ctx, keygen.publicKey(), 0x11c);
    const auto rlk = keygen.relinKey();

    const double scale = static_cast<double>(1ULL << 26);
    Rng rng(0xf1911b);
    std::vector<Ciphertext> a, b;
    for (u64 i = 0; i < batch; ++i) {
        std::vector<Complex> va(encoder.slotCount()), vb(va.size());
        for (size_t s = 0; s < va.size(); ++s) {
            va[s] = Complex(rng.real() * 2 - 1, rng.real() * 2 - 1);
            vb[s] = Complex(rng.real() * 2 - 1, rng.real() * 2 - 1);
        }
        a.push_back(
            encryptor.encrypt(encoder.encode(va, scale, ctx.qCount())));
        b.push_back(
            encryptor.encrypt(encoder.encode(vb, scale, ctx.qCount())));
    }

    // Sequential reference: one ciphertext at a time, one thread, each
    // building its own precomp inside the timer (no sharing).
    setGlobalThreadCount(1);
    CkksEvaluator seq_ev(ctx);
    std::vector<Ciphertext> seq;
    seq.reserve(batch);
    WallTimer t_seq;
    for (u64 i = 0; i < batch; ++i) {
        seq.push_back(seq_ev.multiply(
            a[i], b[i],
            seq_ev.precomputeKeySwitch(rlk, a[i].limbs() - 1)));
    }
    const double seq_s = t_seq.seconds();

    const double seq_ips = static_cast<double>(batch) / seq_s;
    const std::string batch_str = std::to_string(batch);
    rep.addUs("fig11b/functional_mult",
              {{"mode", "sequential"},
               {"threads", "1"},
               {"batch", batch_str},
               {"n", std::to_string(n)}},
              seq_s * 1e6 / static_cast<double>(batch), seq_ips);

    // Thread sweep: the canonical {1, 2, 4} points plus whatever
    // --threads asked for, deduplicated and in order.
    std::vector<u64> sweep = {1, 2, 4};
    if (std::find(sweep.begin(), sweep.end(), threads) == sweep.end())
        sweep.push_back(threads);

    TablePrinter t("Functional batched HE-Mult (N = 2^14, CPU host)");
    t.header({"Mode", "Threads", "Batch", "ms/op", "ops/s", "vs seq"});
    t.row({"sequential", "1", batch_str,
           fmtF(seq_s * 1e3 / static_cast<double>(batch), 2),
           fmtF(seq_ips, 1), "1.00"});

    bool identical = true;
    BatchEvaluator batch_ev(ctx);
    Pipeline mult;
    mult.multiply(b, rlk);
    for (const u64 thr : sweep) {
        // Batched engine: shared precomputation + thread pool.
        setGlobalThreadCount(static_cast<u32>(thr));
        WallTimer t_batch;
        const auto par = batch_ev.run(a, mult);
        const double batch_s = t_batch.seconds();
        setGlobalThreadCount(1);

        bool same = par.size() == seq.size();
        for (size_t i = 0; same && i < par.size(); ++i)
            same = par[i].c0 == seq[i].c0 && par[i].c1 == seq[i].c1;
        identical = identical && same;

        const double batch_ips = static_cast<double>(batch) / batch_s;
        const double speedup = batch_ips / seq_ips;
        t.row({"batched", std::to_string(thr), batch_str,
               fmtF(batch_s * 1e3 / static_cast<double>(batch), 2),
               fmtF(batch_ips, 1), fmtF(speedup, 2)});
        rep.addUs("fig11b/functional_mult",
                  {{"mode", "batched"},
                   {"threads", std::to_string(thr)},
                   {"batch", batch_str},
                   {"n", std::to_string(n)}},
                  batch_s * 1e6 / static_cast<double>(batch), batch_ips);
        rep.add("fig11b/functional_mult_speedup",
                {{"metric", "batched_over_sequential"},
                 {"threads", std::to_string(thr)},
                 {"batch", batch_str},
                 {"n", std::to_string(n)}},
                0.0, speedup);
    }
    t.print(std::cout);
    std::cout << "Bit-identical to sequential (all thread counts): "
              << (identical ? "yes" : "NO (BUG)") << "\n";
    return identical;
}

/**
 * Fused pipeline engine: Mult -> Rescale -> Rotate over a batch, run
 * (a) sequentially per item per operator, (b) batched one operator at
 * a time (one single-stage pipeline each), (c) fused through one
 * BatchEvaluator::run with every (key, level) precomp served from the
 * context residency cache. Returns false when any batched result is
 * not bit-identical to sequential.
 */
bool
functionalPipeline(bench::Reporter &rep, u64 threads, u64 batch)
{
    using namespace cross::ckks;
    const u32 n = 1u << 14;
    CkksContext ctx(CkksParams::testSet(n, 6, 2));
    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx, 0x11d);
    CkksEncryptor encryptor(ctx, keygen.publicKey(), 0x11e);
    const auto rlk = keygen.relinKey();
    const u32 k = encoder.rotationAutomorphism(1);
    const auto rot_key = keygen.rotationKey(k);

    const double scale = static_cast<double>(1ULL << 26);
    Rng rng(0xf1911c);
    CtVec a, b;
    for (u64 i = 0; i < batch; ++i) {
        std::vector<Complex> va(encoder.slotCount()), vb(va.size());
        for (size_t s = 0; s < va.size(); ++s) {
            va[s] = Complex(rng.real() * 2 - 1, rng.real() * 2 - 1);
            vb[s] = Complex(rng.real() * 2 - 1, rng.real() * 2 - 1);
        }
        a.push_back(
            encryptor.encrypt(encoder.encode(va, scale, ctx.qCount())));
        b.push_back(
            encryptor.encrypt(encoder.encode(vb, scale, ctx.qCount())));
    }

    // Sequential reference: item by item, operator by operator, one
    // thread, a precomp built per key switch inside the timer (no
    // residency cache involvement).
    setGlobalThreadCount(1);
    CkksEvaluator seq_ev(ctx);
    CtVec seq;
    seq.reserve(batch);
    WallTimer t_seq;
    for (u64 i = 0; i < batch; ++i) {
        Ciphertext cur = seq_ev.multiply(
            a[i], b[i], seq_ev.precomputeKeySwitch(rlk, a[i].limbs() - 1));
        cur = seq_ev.rescale(cur);
        seq.push_back(seq_ev.rotate(
            cur, k, seq_ev.precomputeKeySwitch(rot_key, cur.limbs() - 1)));
    }
    const double seq_s = t_seq.seconds();

    auto &cache = ctx.keySwitchCache();

    // Unfused batched: one single-stage pipeline per operator, a
    // batch-wide barrier between operators and a fresh cache
    // (per-batch precomp build cost).
    setGlobalThreadCount(static_cast<u32>(threads));
    BatchEvaluator batch_ev(ctx);
    Pipeline mult, rescale, rotate;
    mult.multiply(b, rlk);
    rescale.rescale();
    rotate.rotate(k, rot_key);
    cache.clear();
    cache.resetStats();
    WallTimer t_unfused;
    const auto unfused = batch_ev.run(
        batch_ev.run(batch_ev.run(a, mult), rescale), rotate);
    const double unfused_s = t_unfused.seconds();

    // Fused: whole pipeline per item, precomps resident (already warm
    // from the unfused run -- exactly the cross-batch residency the
    // ROADMAP item asks for; the counters below prove no rebuild).
    const u64 misses_before = cache.misses();
    Pipeline pipeline;
    pipeline.multiply(b, rlk).rescale().rotate(k, rot_key);
    WallTimer t_fused;
    const auto fused = batch_ev.run(a, pipeline);
    const double fused_s = t_fused.seconds();
    const u64 fused_builds = cache.misses() - misses_before;
    setGlobalThreadCount(1);

    bool identical =
        unfused.size() == seq.size() && fused.size() == seq.size();
    for (size_t i = 0; identical && i < seq.size(); ++i) {
        identical = unfused[i].c0 == seq[i].c0 &&
            unfused[i].c1 == seq[i].c1 && fused[i].c0 == seq[i].c0 &&
            fused[i].c1 == seq[i].c1;
    }

    const double batch_d = static_cast<double>(batch);
    TablePrinter t("Fused Mult->Rescale->Rotate pipeline (N = 2^14, "
                   "CPU host)");
    t.header({"Mode", "Threads", "Batch", "ms/item", "items/s",
              "vs seq"});
    const struct
    {
        const char *mode;
        u64 thr;
        double secs;
    } rows[] = {{"sequential", 1, seq_s},
                {"batched-unfused", threads, unfused_s},
                {"batched-fused", threads, fused_s}};
    for (const auto &r : rows) {
        t.row({r.mode, std::to_string(r.thr), std::to_string(batch),
               fmtF(r.secs * 1e3 / batch_d, 2),
               fmtF(batch_d / r.secs, 1), fmtF(seq_s / r.secs, 2)});
        rep.addUs("fig11b/functional_pipeline",
                  {{"mode", r.mode},
                   {"threads", std::to_string(r.thr)},
                   {"batch", std::to_string(batch)},
                   {"n", std::to_string(n)}},
                  r.secs * 1e6 / batch_d, batch_d / r.secs);
    }
    t.print(std::cout);
    std::cout << "Bit-identical to sequential: "
              << (identical ? "yes" : "NO (BUG)")
              << "\nKey-switch residency: " << cache.size()
              << " resident (key, level) precomps, " << cache.misses()
              << " built total, " << cache.hits()
              << " served from cache; fused run built " << fused_builds
              << " (0 = fully resident across batches)\n";

    rep.add("fig11b/functional_pipeline_speedup",
            {{"metric", "fused_over_sequential"},
             {"threads", std::to_string(threads)},
             {"batch", std::to_string(batch)},
             {"n", std::to_string(n)}},
            0.0, seq_s / fused_s);
    rep.add("fig11b/functional_pipeline_speedup",
            {{"metric", "fused_over_unfused"},
             {"threads", std::to_string(threads)},
             {"batch", std::to_string(batch)},
             {"n", std::to_string(n)}},
            0.0, unfused_s / fused_s);
    return identical;
}

/**
 * Key-switch residency roll-off: replay a many-(key, level) rotation
 * working set under shrinking cache byte budgets. Two passes per
 * budget: the first builds, the second measures how much of the
 * working set stayed resident. Returns false when any bounded result
 * is not bit-identical to the unbounded reference.
 */
bool
residencySweep(bench::Reporter &rep, u64 batch)
{
    using namespace cross::ckks;
    CkksContext ctx(CkksParams::testSet(1 << 10, 8, 2));
    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx, 0x11f);
    CkksEncryptor encryptor(ctx, keygen.publicKey(), 0x120);

    // Set-D flavour: a pool of rotation keys exercised at several
    // levels -> keys x levels resident precomps when unbounded.
    constexpr size_t kKeys = 6;
    const std::vector<size_t> kLevels = {7, 5, 3};
    std::vector<u32> ks;
    std::vector<SwitchKey> keys;
    keys.reserve(kKeys);
    for (size_t j = 0; j < kKeys; ++j) {
        ks.push_back(
            encoder.rotationAutomorphism(static_cast<i64>(j + 1)));
        keys.push_back(keygen.rotationKey(ks.back()));
    }

    const double scale = static_cast<double>(1ULL << 26);
    Rng rng(0xf1911d);
    setGlobalThreadCount(1);
    CkksEvaluator ev(ctx);
    std::vector<CtVec> inputs; // one batch per level
    for (size_t level : kLevels) {
        CtVec v;
        for (u64 i = 0; i < batch; ++i) {
            std::vector<Complex> slots(encoder.slotCount());
            for (auto &x : slots)
                x = Complex(rng.real() * 2 - 1, rng.real() * 2 - 1);
            v.push_back(ev.reduceToLimbs(
                encryptor.encrypt(
                    encoder.encode(slots, scale, ctx.qCount())),
                level + 1));
        }
        inputs.push_back(std::move(v));
    }

    auto &cache = ctx.keySwitchCache();
    BatchEvaluator batch_ev(ctx);
    std::vector<Pipeline> rotations(kKeys);
    for (size_t j = 0; j < kKeys; ++j)
        rotations[j].rotate(ks[j], keys[j]);
    // One replay step rotates one level's batch by one key.
    const size_t steps = kLevels.size() * kKeys;
    // The measurement pass walks the working set in reverse: BSGS
    // stages revisit their most recent keys first (StC follows CtS at
    // adjacent levels), and a forward cyclic scan is LRU's pathological
    // 0%-hit case rather than the roll-off being measured.
    const auto replay = [&](bool reversed) {
        std::vector<CtVec> out;
        for (size_t p = 0; p < steps; ++p) {
            const size_t v = reversed ? steps - 1 - p : p;
            out.push_back(
                batch_ev.run(inputs[v / kKeys], rotations[v % kKeys]));
        }
        return out;
    };
    // got (possibly reversed) must equal the forward reference.
    const auto matches = [&](const std::vector<CtVec> &got,
                             const std::vector<CtVec> &ref,
                             bool reversed) {
        if (got.size() != ref.size())
            return false;
        for (size_t g = 0; g < got.size(); ++g) {
            const auto &r = ref[reversed ? ref.size() - 1 - g : g];
            if (got[g].size() != r.size())
                return false;
            for (size_t i = 0; i < got[g].size(); ++i)
                if (!(got[g][i].c0 == r[i].c0 &&
                      got[g][i].c1 == r[i].c1))
                    return false;
        }
        return true;
    };

    // Unbounded reference: working set size + correctness baseline.
    cache.clear();
    cache.resetStats();
    const auto reference = replay(false);
    const size_t working_set = cache.residentBytes();

    TablePrinter t("Key-switch residency roll-off (LRU byte budget, "
                   "2nd pass over a " +
                   std::to_string(kKeys) + "-key x " +
                   std::to_string(kLevels.size()) +
                   "-level working set)");
    t.header({"Budget", "resident KB", "hit rate", "rebuilds",
              "evictions"});

    bool identical = true;
    const struct
    {
        const char *name;
        double frac;
    } budgets[] = {{"unbounded", 0.0}, {"100%", 1.0}, {"50%", 0.5},
                   {"25%", 0.25},      {"12.5%", 0.125}};
    for (const auto &b : budgets) {
        const size_t budget = static_cast<size_t>(
            b.frac * static_cast<double>(working_set));
        cache.clear();
        cache.resetStats();
        cache.setByteBudget(budget);
        const auto first = replay(false);
        const u64 builds = cache.misses();
        cache.resetStats();
        const auto second = replay(true); // steady-state residency
        const u64 rebuilds = cache.misses();
        // Rate per replay step: run() looks the precomp up once per
        // item, so a step misses at most once (its first item) and
        // every later item hits the entry just built.
        const double hit_rate = 1.0 -
            static_cast<double>(rebuilds) / static_cast<double>(steps);

        identical = identical && matches(first, reference, false) &&
            matches(second, reference, true);

        t.row({b.name, fmtF(static_cast<double>(cache.residentBytes()) /
                                1024.0, 0),
               fmtPct(hit_rate), std::to_string(rebuilds),
               std::to_string(cache.evictions())});
        rep.add("fig11b/residency_sweep",
                {{"budget", b.name},
                 {"keys", std::to_string(kKeys)},
                 {"levels", std::to_string(kLevels.size())},
                 {"batch", std::to_string(batch)},
                 {"builds_cold", std::to_string(builds)},
                 {"rebuilds_warm", std::to_string(rebuilds)},
                 {"evictions", std::to_string(cache.evictions())}},
                0.0, hit_rate);
    }
    cache.setByteBudget(0);
    t.print(std::cout);
    std::cout << "Bit-identical across all budgets: "
              << (identical ? "yes" : "NO (BUG)")
              << "\nShape: hit rate holds at 100% budget and rolls off "
                 "as the working set stops fitting -- the functional "
                 "mirror of the Fig. 11b VMEM knee.\n";
    return identical;
}

} // namespace

int
main(int argc, char **argv)
{
    const u64 threads =
        cross::bench::consumeUintFlag(argc, argv, "threads", 4);
    const u64 batch = cross::bench::consumeUintFlag(argc, argv, "batch", 8);
    bench::Reporter rep(argc, argv, "fig11b_batch_sweep");
    bench::banner("Figure 11b",
                  "batching: analytical NTT sweep + functional "
                  "BatchEvaluator HE-Mult + fused operator pipeline",
                  bench::kSimNote);

    analyticalSweep(rep);

    std::cout << "\n";
    const u64 thr = threads == 0 ? 1 : threads;
    const u64 bat = batch == 0 ? 1 : batch;
    bool ok = functionalBatch(rep, thr, bat);
    std::cout << "\n";
    ok = functionalPipeline(rep, thr, bat) && ok;
    std::cout << "\n";
    ok = residencySweep(rep, bat) && ok;
    if (!ok) {
        rep.cancel(); // never ship numbers from a wrong result
        return 1;
    }
    return rep.flush() ? 0 : 1;
}
