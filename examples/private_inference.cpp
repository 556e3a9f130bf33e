/**
 * @file
 * Private inference: a miniature encrypted neural-network layer built as
 * an operator graph (ckks::graph), compiled down to fused batch
 * pipelines, and run for real with the functional CKKS backend --
 * followed by the cost estimate of the paper's full MNIST workload on
 * the simulated TPUs.
 *
 * The layer computes y = square(W x + b) on encrypted x: a
 * diagonal-packed matrix-vector product (rotations + plaintext
 * multiplies), bias add, and the square activation (ct-ct multiply) --
 * the exact operator mix that HE CNN inference decomposes into
 * (Section V-D). The graph is described once
 * (workloads::denseSquareLayerGraph) and the compiled execution is
 * verified bit-identical against the hand-rolled operator loop this
 * example used to run -- the loop is kept below as the reference.
 * The compiled matVec shares one ModUp across its rotations, so its
 * kernel log is the schedule enumerator's, d - 2 ModUps short of the
 * loop's.
 *
 * Build & run:  ./build/examples/private_inference
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

#include "ckks/batch_evaluator.h"
#include "ckks/context.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/graph/compiler.h"
#include "ckks/keys.h"
#include "ckks/schedule.h"
#include "common/parallel.h"
#include "tpu/sim.h"
#include "workloads/ml_workloads.h"

namespace {

using cross::ckks::Ciphertext;
using cross::ckks::KernelLog;

bool
samePoly(const cross::poly::RnsPoly &a, const cross::poly::RnsPoly &b)
{
    if (a.limbCount() != b.limbCount())
        return false;
    for (size_t i = 0; i < a.limbCount(); ++i) {
        if (a.limb(i) != b.limb(i))
            return false;
    }
    return true;
}

bool
sameCiphertext(const Ciphertext &a, const Ciphertext &b)
{
    return a.scale == b.scale && samePoly(a.c0, b.c0) &&
           samePoly(a.c1, b.c1);
}

size_t
inttCount(const KernelLog &log)
{
    size_t n = 0;
    for (const auto &k : log.calls())
        n += k.kind == cross::ckks::KernelKind::Intt;
    return n;
}

bool
sameLog(const KernelLog &a, const KernelLog &b)
{
    if (a.calls().size() != b.calls().size())
        return false;
    for (size_t i = 0; i < a.calls().size(); ++i) {
        if (!a.calls()[i].sameShape(b.calls()[i]))
            return false;
    }
    return true;
}

void
check(bool cond, const char *what)
{
    if (!cond) {
        std::fprintf(stderr, "FAILED: %s\n", what);
        std::exit(1);
    }
}

} // namespace

int
main()
{
    using namespace cross;
    using namespace cross::ckks;

    // A 4x4 weight matrix applied to a length-4 encrypted input via the
    // diagonal method: y_i = sum_j W[i][j] x_j.
    const size_t dim = 4;
    const std::vector<std::vector<double>> w = {
        {0.5, -0.1, 0.2, 0.0},
        {0.1, 0.3, -0.2, 0.4},
        {-0.3, 0.2, 0.1, 0.1},
        {0.2, 0.0, 0.4, -0.5},
    };
    const std::vector<double> bias = {0.05, -0.05, 0.1, 0.0};
    const std::vector<double> x = {0.8, -0.4, 0.6, 0.2};

    CkksContext ctx(CkksParams::testSet(1 << 11, 5, 2));
    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx, 99);
    CkksEncryptor enc(ctx, keygen.publicKey(), 5);
    CkksDecryptor dec(ctx, keygen.secretKey());
    const auto rlk = keygen.relinKey();
    // Rotation keys, shared by the reference loop and the compiled
    // graph (same key bits => comparable ciphertext bits).
    std::map<u32, SwitchKey> rot_keys;
    for (size_t d = 1; d < dim; ++d) {
        const u32 g = encoder.rotationAutomorphism(static_cast<i64>(d));
        rot_keys.emplace(g, keygen.rotationKey(g));
    }

    const double scale = static_cast<double>(1ULL << 26);
    // Replicate x so rotations wrap within the block: [x, x].
    std::vector<double> packed;
    for (int rep = 0; rep < 2; ++rep)
        packed.insert(packed.end(), x.begin(), x.end());
    const auto ct =
        enc.encrypt(encoder.encodeReal(packed, scale, ctx.qCount()));

    // ---- Reference: the hand-rolled operator loop (diagonal method:
    // y = sum_d diag_d(W) * rot(x, d), rescale, bias, square). ----
    KernelLog ref_log;
    const CkksEvaluator ev(ctx, &ref_log);
    Ciphertext acc;
    bool first = true;
    for (size_t d = 0; d < dim; ++d) {
        std::vector<double> diag(packed.size(), 0.0);
        for (size_t i = 0; i < dim; ++i)
            diag[i] = w[i][(i + d) % dim];
        const auto pt_diag =
            encoder.encodeReal(diag, scale, ctx.qCount());

        Ciphertext term;
        if (d == 0) {
            term = ev.multiplyPlain(ct, pt_diag);
        } else {
            const u32 g = encoder.rotationAutomorphism(
                static_cast<i64>(d));
            term = ev.multiplyPlain(ev.rotate(ct, g, rot_keys.at(g)),
                                    pt_diag);
        }
        if (first) {
            acc = term;
            first = false;
        } else {
            acc = ev.add(acc, term);
        }
    }
    acc = ev.rescale(acc);
    std::vector<double> bias_packed;
    for (int rep = 0; rep < 2; ++rep)
        bias_packed.insert(bias_packed.end(), bias.begin(), bias.end());
    const auto pt_bias =
        encoder.encodeReal(bias_packed, acc.scale, acc.limbs());
    acc = ev.addPlain(acc, pt_bias);
    const auto ref_out = ev.rescale(ev.multiply(acc, acc, rlk));

    // ---- The same layer as an operator graph, compiled to fused
    // batch pipelines. ----
    const auto layer = workloads::denseSquareLayerGraph(w, bias, 2);
    graph::CompileOptions copts;
    copts.lowering.baseScale = scale;
    copts.relinKey = &rlk;
    copts.rotationKeys = &rot_keys;
    const auto compiled = graph::compileGraph(ctx, layer, copts);

    // The compiled graph must reproduce the hand-rolled loop's
    // ciphertext bits at 1 thread and at CROSS_TEST_THREADS (default
    // 4). Its kernel schedule is the enumerator's: the matVec's
    // dim - 1 rotations share one ModUp, so it launches dim - 2 fewer
    // INTTs than the loop, each credited as a save.
    KernelLog want_log;
    for (const auto &op : compiled->ops()) {
        for (const auto &k : enumerateKernels(
                 std::vector<PipelineOp>{{op.op, op.fanin, op.weighted}},
                 ctx.params(), op.level))
            want_log.add(k.kind, k.n, k.limbs, k.limbsOut);
    }
    const char *env = std::getenv("CROSS_TEST_THREADS");
    const long many =
        std::clamp(env ? std::strtol(env, nullptr, 10) : 4L, 1L, 256L);
    KernelLog graph_log;
    std::vector<CtVec> outs;
    for (long threads : {1L, many}) {
        setGlobalThreadCount(static_cast<u32>(threads));
        graph_log.clear();
        const BatchEvaluator batch(ctx, &graph_log);
        outs = compiled->run(batch, {{ct}});
        check(sameCiphertext(outs.at(0).at(0), ref_out),
              "graph-compiled layer is bit-identical to the hand-rolled "
              "loop");
        check(sameLog(graph_log, want_log),
              "graph-compiled layer logs the enumerated kernel schedule");
        check(graph_log.hoistedModUpSaves() == dim - 2 &&
                  inttCount(graph_log) + (dim - 2) == inttCount(ref_log),
              "the matVec's rotations share one ModUp");
    }
    setGlobalThreadCount(1);
    const Ciphertext &out = outs.at(0).at(0);

    const auto &plan = compiled->keyPlan();
    std::printf("graph-compiled y = square(Wx + b): %zu ops, %zu fused "
                "segment(s)\n",
                compiled->ops().size(), compiled->segmentCount());
    std::printf("key working set: %zu precomp(s), %.1f KiB%s\n",
                plan.entries.size(),
                static_cast<double>(plan.totalBytes) / 1024.0,
                plan.fitsResidency ? " (resident)" : " (over budget)");
    std::printf("verified bit-identical to the hand-rolled operator "
                "loop at 1 and %ld threads, with %llu ModUp(s) saved by "
                "hoisting\n\n",
                many,
                static_cast<unsigned long long>(
                    graph_log.hoistedModUpSaves()));

    const auto slots = encoder.decode(dec.decrypt(out));
    std::printf("encrypted y = square(Wx + b):\n");
    double max_err = 0;
    for (size_t i = 0; i < dim; ++i) {
        double lin = bias[i];
        for (size_t j = 0; j < dim; ++j)
            lin += w[i][j] * x[j];
        const double expect = lin * lin;
        const double got = slots[i].real();
        max_err = std::max(max_err, std::abs(got - expect));
        std::printf("  y[%zu] = % .5f   (plaintext % .5f)\n", i, got,
                    expect);
    }
    std::printf("max error: %.2e (scheme noise at scale 2^26)\n\n",
                max_err);

    // Full MNIST workload on the simulated accelerators -- the
    // estimator schedule is derived from the same graph machinery
    // (workloads::mnistInferenceGraph -> enumerateGraphOps).
    std::printf("Paper workload: MNIST CNN (batch 64, N = 2^13, L = 18) "
                "estimated per device:\n");
    lowering::Config cfg;
    const auto wload = workloads::mnistInference();
    for (const auto &d : tpu::allTpus()) {
        const auto est = workloads::estimateWorkload(
            wload, d, cfg, d.defaultTcCount);
        std::printf("  %-8s (%u cores): %7.1f ms/image\n",
                    d.name.c_str(), d.defaultTcCount,
                    est.perItemUs / 1000.0);
    }
    std::printf("(paper: 270 ms/image on v6e-8, 10x over Orion)\n");
    return 0;
}
