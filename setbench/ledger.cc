#include "ledger.h"

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bfv/bfv.h"
#include "ckks/evaluator.h"
#include "common/parallel.h"
#include "nt/modvec.h"
#include "poly/ntt_ct.h"
#include "workloads.h"

namespace setb {

using namespace cross;
using namespace cross::ckks;

namespace {

constexpr u32 kSweep[] = {1, 2, 4};

std::string
tName(const std::string &base, u32 threads)
{
    return base + ".t" + std::to_string(threads);
}

/** Median microseconds per call, over @p batches timed groups of
 *  @p calls back-to-back calls (for kernels too short to time singly). */
template <class F>
double
perCallUs(int calls, int batches, F &&fn)
{
    return medianSeconds(batches, [&] {
               for (int i = 0; i < calls; ++i)
                   fn();
           }) *
           1e6 / calls;
}

// ---- host and thread pool -------------------------------------------

/** Wall seconds for @p threads threads to each run the same spin loop. */
double
spinSeconds(u32 threads, u64 iters)
{
    std::atomic<u64> sink{0};
    std::vector<std::thread> ts;
    const double t0 = nowSeconds();
    for (u32 t = 0; t < threads; ++t) {
        ts.emplace_back([&sink, iters, t] {
            u64 x = 0x9e3779b97f4a7c15ULL + t;
            for (u64 i = 0; i < iters; ++i) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            sink += x;
        });
    }
    for (auto &th : ts)
        th.join();
    return nowSeconds() - t0;
}

void
hostAndPool(Metrics &out)
{
    constexpr u64 kIters = 20'000'000;
    for (u32 k : {2u, 4u}) {
        // Effective cores: k copies of the loop against one, measured
        // back to back so both see the same neighbours.
        std::vector<double> cap;
        for (int rep = 0; rep < 5; ++rep) {
            const double one = spinSeconds(1, kIters);
            cap.push_back(k * one / spinSeconds(k, kIters));
        }
        out.add(tName("host.parallel_capacity", k), median(cap), "cores");
    }
    for (u32 k : {2u, 4u}) {
        setGlobalThreadCount(k);
        std::vector<double> us;
        for (int i = 0; i < 2000; ++i) {
            const double t0 = nowSeconds();
            parallelFor(0, k, [](size_t) {});
            us.push_back((nowSeconds() - t0) * 1e6);
        }
        out.add(tName("parallel.fork_join_us", k), median(us), "us");
    }
    setGlobalThreadCount(1);
}

// ---- nt / poly / rns ------------------------------------------------

void
kernels(CkksRig &rig, InputGen &gen, Metrics &out)
{
    const poly::Ring &ring = rig.ctx.ring();
    const u32 n = ring.degree();
    const u32 q = static_cast<u32>(ring.modulus(0));
    std::vector<u32> a(n), b(n), dst(n);
    for (u32 i = 0; i < n; ++i) {
        a[i] = static_cast<u32>(gen.next() % q);
        b[i] = static_cast<u32>(gen.next() % q);
    }
    const nt::Montgomery &mont = ring.basis().mont(0);
    out.add("nt.modvec_mul_us", perCallUs(200, 15, [&] {
                nt::mulMontVec(dst.data(), a.data(), b.data(), n, mont);
            }),
            "us");
    out.add("poly.ntt_fwd_us", perCallUs(50, 15, [&] {
                poly::forwardInPlace(a.data(), ring.tables(0));
            }),
            "us");
    out.add("poly.ntt_inv_us", perCallUs(50, 15, [&] {
                poly::inverseInPlace(a.data(), ring.tables(0));
            }),
            "us");

    // ModUp BConv of digit 0 at the top level: 3 limbs to the 5
    // complement limbs plus the 3 auxiliary limbs.
    const size_t top = rig.ctx.qCount() - 1;
    const rns::BasisConversion &conv = rig.ctx.modUpConv(0, top);
    rns::LimbMatrix in(conv.from().size(), std::vector<u32>(n));
    for (size_t i = 0; i < in.size(); ++i)
        for (u32 &v : in[i])
            v = static_cast<u32>(gen.next() % conv.from().modulus(i));
    rns::LimbMatrix res;
    for (u32 t : kSweep) {
        setGlobalThreadCount(t);
        out.add(tName("rns.bconv_us", t),
                perCallUs(5, 15, [&] { conv.apply(in, res); }), "us");
    }
    setGlobalThreadCount(1);
}

// ---- CKKS evaluator and batch engine ---------------------------------

void
evaluatorAndBatch(CkksRig &rig, InputGen &gen, Metrics &out)
{
    const size_t slots = rig.encoder.slotCount();
    std::vector<double> va(slots), vb(slots);
    for (size_t i = 0; i < slots; ++i) {
        va[i] = gen.uniform(-1, 1);
        vb[i] = gen.uniform(-1, 1);
    }
    const Ciphertext a = rig.encrypt(va);
    const Ciphertext b = rig.encrypt(vb);
    const Plaintext pt =
        rig.encoder.encodeReal(vb, kScale, rig.ctx.qCount());
    const SwitchKey rlk = rig.keygen.relinKey();
    const u32 g = rig.encoder.rotationAutomorphism(1);
    const SwitchKey rot = rig.keygen.rotationKey(g);

    const CkksEvaluator ev(rig.ctx);
    const size_t top = rig.ctx.qCount() - 1;
    const KeySwitchPrecomp &pre_rlk = ev.precomputeKeySwitchCached(rlk, top);
    const KeySwitchPrecomp &pre_rot = ev.precomputeKeySwitchCached(rot, top);
    const Ciphertext prod = ev.multiply(a, b, pre_rlk);

    constexpr int kReps = 7;
    out.add("ckks.modup_us",
            medianSeconds(kReps, [&] { (void)ev.hoistedModUp(a.c1); }) * 1e6,
            "us");
    out.add("ckks.keyswitch_us",
            medianSeconds(kReps,
                          [&] { (void)ev.keySwitch(a.c1, pre_rot); }) *
                1e6,
            "us");
    out.add("ckks.rescale_us",
            medianSeconds(kReps, [&] { (void)ev.rescale(prod); }) * 1e6,
            "us");
    out.add("ckks.mult_plain_us",
            medianSeconds(kReps, [&] { (void)ev.multiplyPlain(a, pt); }) *
                1e6,
            "us");
    for (u32 t : kSweep) {
        setGlobalThreadCount(t);
        out.add(tName("ckks.mult_relin_us", t),
                medianSeconds(kReps,
                              [&] { (void)ev.multiply(a, b, pre_rlk); }) *
                    1e6,
                "us");
        out.add(tName("ckks.rotate_us", t),
                medianSeconds(kReps,
                              [&] { (void)ev.rotate(a, g, pre_rot); }) *
                    1e6,
                "us");
    }

    // The MLP's diagonal term as one fused pipeline (rotate, plaintext
    // multiply, rescale) over a batch of 8, against looping the scalar
    // evaluator over the same items and stages.
    const CtVec items(kBatch, a);
    Pipeline pipe;
    pipe.rotate(g, rot).multiplyPlain(pt).rescale();
    const BatchEvaluator batch(rig.ctx);
    for (u32 t : kSweep) {
        setGlobalThreadCount(t);
        const double run_s =
            medianSeconds(3, [&] { (void)batch.run(items, pipe); });
        const double seq_s = medianSeconds(3, [&] {
            for (const Ciphertext &ct : items)
                (void)ev.rescale(
                    ev.multiplyPlain(ev.rotate(ct, g, pre_rot), pt));
        });
        out.add(tName("batch.run_ms", t), run_s * 1e3, "ms");
        out.add(tName("batch.vs_seq", t), seq_s / run_s, "ratio");
    }
    setGlobalThreadCount(1);
}

// ---- graph compiler and runtime --------------------------------------

const char *
kernelFamily(KernelKind k)
{
    switch (k) {
      case KernelKind::Ntt: return "ntt";
      case KernelKind::Intt: return "intt";
      case KernelKind::BConv: return "bconv";
      case KernelKind::Automorphism: return "automorphism";
      case KernelKind::VecModMul:
      case KernelKind::VecModMulConst:
      case KernelKind::VecModAdd:
      case KernelKind::VecModSub: return "vecmod";
    }
    return "vecmod";
}

/** Kernel-family counts and seconds of one log. */
struct KernelTotals
{
    std::map<std::string, double> count, seconds;

    explicit KernelTotals(const KernelLog &log)
    {
        for (const char *f : {"ntt", "intt", "bconv", "vecmod",
                              "automorphism"})
            count[f] = seconds[f] = 0.0;
        for (const KernelCall &c : log.calls()) {
            count[kernelFamily(c.kind)] += 1;
            seconds[kernelFamily(c.kind)] += c.seconds;
        }
    }
};

void
graphLayer(u64 seed, Metrics &out, Tally &tally)
{
    double setup_s = 0.0;
    auto mb = setupMlp(seed, kBatch, tally, setup_s);
    CkksRig &rig = mb->rig;

    // Compile alone, with caller-owned keys, so key generation (its
    // own layer) stays out of graph.compile_ms.
    const SwitchKey rlk = rig.keygen.relinKey();
    std::map<u32, SwitchKey> rot_keys;
    // The diagonal steps 1..d-1 and the replicating step -d.
    const i64 d = static_cast<i64>(kMlpDim);
    std::vector<i64> steps{-d};
    for (i64 step = 1; step < d; ++step)
        steps.push_back(step);
    for (i64 step : steps) {
        const u32 g = rig.encoder.rotationAutomorphism(step);
        rot_keys.emplace(g, rig.keygen.rotationKey(g));
    }
    const graph::Graph g = mb->mlp.graph();
    graph::CompileOptions opts;
    opts.lowering.baseScale = kScale;
    opts.relinKey = &rlk;
    opts.rotationKeys = &rot_keys;
    opts.schedule = graph::ScheduleKind::Fused;
    out.add("graph.compile_ms", medianSeconds(3, [&] {
                (void)graph::compileGraph(rig.ctx, g, opts);
            }) * 1e3,
            "ms");
    out.add("graph.segments",
            static_cast<double>(mb->model->segmentCount()), "count");

    const std::vector<CtVec> one{{mb->inputs.cts[0]}};
    const BatchEvaluator be(rig.ctx);
    for (u32 t : kSweep) {
        setGlobalThreadCount(t);
        out.add("graph.run_ms.b1" + std::string(".t") + std::to_string(t),
                medianSeconds(3, [&] { (void)mb->model->run(be, one); }) *
                    1e3,
                "ms");
        out.add("graph.run_ms.b8" + std::string(".t") + std::to_string(t),
                medianSeconds(2, [&] {
                    (void)mb->model->run(be, mb->batches[0]);
                }) * 1e3,
                "ms");
    }
    setGlobalThreadCount(1);

    // Kernel accounting of one MLP request (batch 1, 1 thread), read
    // from a KernelLog passed in; the counts repeat exactly.
    KernelLog log;
    const BatchEvaluator traced(rig.ctx, &log);
    auto res = mb->model->run(traced, one);
    tally.record(checkOutput(rig, std::move(res.at(0).at(0)),
                             mb->inputs.expected[0], false));
    const KernelTotals kt(log);
    for (const char *f : {"ntt", "intt", "bconv", "vecmod", "automorphism"})
        out.add(std::string("ckks.kernels.") + f, kt.count.at(f), "count");
    for (const char *f : {"ntt", "intt", "bconv", "vecmod"})
        out.add(std::string("ckks.kernel_ms.") + f, kt.seconds.at(f) * 1e3,
                "ms");
    out.add("ckks.hoisted_modup_saves",
            static_cast<double>(log.hoistedModUpSaves()), "count");
}

// ---- BFV --------------------------------------------------------------

void
bfvLayer(u64 seed, Metrics &out, Tally &tally)
{
    using namespace cross::bfv;
    const BfvContext ctx(BfvParams::testSet(1 << 13, 8, 17));
    const BfvEncoder enc(ctx);
    BfvKeyGenerator keygen(ctx, seed * 2 + 3);
    const BfvPublicKey pk = keygen.publicKey();
    const BfvSwitchKey rlk = keygen.relinKey();
    const BfvSwitchKey rot = keygen.rotationKey(5);
    const u64 t = ctx.plainModulus();

    Rng rng(seed * 2 + 4);
    std::vector<u64> va(ctx.degree()), vb(ctx.degree());
    for (size_t i = 0; i < va.size(); ++i) {
        va[i] = rng.uniform(t);
        vb[i] = rng.uniform(t);
    }
    const BfvEvaluator ev(ctx);
    const BfvCiphertext ca = ev.encrypt(enc.encode(va), pk, rng);
    const BfvCiphertext cb = ev.encrypt(enc.encode(vb), pk, rng);

    // Two multiplies: the first logged (kernel split), both timed and
    // checked slot-wise against the exact product mod t.
    KernelLog log;
    const BfvEvaluator logged(ctx, &log);
    std::vector<double> mult_s;
    for (int rep = 0; rep < 2; ++rep) {
        const double t0 = nowSeconds();
        const BfvCiphertext prod =
            rep == 0 ? logged.multiply(ca, cb, rlk) : ev.multiply(ca, cb, rlk);
        mult_s.push_back(nowSeconds() - t0);
        const auto got = enc.decode(ev.decrypt(prod, keygen.secretKey()));
        bool ok = got.size() == va.size();
        for (size_t i = 0; ok && i < va.size(); ++i)
            ok = got[i] == va[i] * vb[i] % t;
        tally.record(ok);
    }
    out.add("bfv.mult_ms", median(mult_s) * 1e3, "ms");
    out.add("bfv.rotate_ms",
            medianSeconds(3, [&] { (void)ev.rotate(ca, 5, rot); }) * 1e3,
            "ms");
    const KernelTotals kt(log);
    for (const char *f : {"bconv", "ntt", "intt", "vecmod"})
        out.add(std::string("bfv.kernel_ms.") + f, kt.seconds.at(f) * 1e3,
                "ms");
}

} // namespace

void
ledgerMetrics(u64 seed, Metrics &out, Tally &tally)
{
    hostAndPool(out);
    {
        CkksRig rig(seed);
        InputGen gen(seed ^ 0x1ed9e7ULL);
        kernels(rig, gen, out);
        evaluatorAndBatch(rig, gen, out);
    }
    graphLayer(seed, out, tally);
    bfvLayer(seed, out, tally);
}

} // namespace setb
