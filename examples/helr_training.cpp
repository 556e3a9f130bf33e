/**
 * @file
 * Encrypted logistic regression (HELR-style): one real gradient-descent
 * iteration on encrypted data, with the latency-dominant encrypted part
 * built as an operator graph (ckks::graph), compiled to fused batch
 * pipelines, and verified bit-identical and kernel-log-equal against
 * the hand-rolled operator sequence this example used to run (kept
 * below as the reference). Then the paper's full HELR iteration is
 * estimated on the simulated TPUs.
 *
 * The model trains w for P(y=1|x) = sigma(w . x) with a degree-3
 * polynomial sigmoid approximation sigma(t) ~ 0.5 + 0.197 t - 0.004 t^3
 * (the approximation HELR [30] uses); everything on the server side is
 * ciphertext arithmetic.
 *
 * Build & run:  ./build/examples/helr_training
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "ckks/batch_evaluator.h"
#include "ckks/context.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/graph/compiler.h"
#include "ckks/keys.h"
#include "common/rng.h"
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

    // Tiny dataset: 8 samples x 4 features, labels in {-1, +1} mapped so
    // a single packed ciphertext holds all z_i = w . x_i values.
    const size_t samples = 8, feats = 4;
    Rng rng(7);
    std::vector<std::vector<double>> xs(samples,
                                        std::vector<double>(feats));
    std::vector<double> ys(samples);
    std::vector<double> true_w = {0.8, -0.5, 0.3, 0.1};
    for (size_t i = 0; i < samples; ++i) {
        double dot = 0;
        for (size_t j = 0; j < feats; ++j) {
            xs[i][j] = rng.real() * 2 - 1;
            dot += true_w[j] * xs[i][j];
        }
        ys[i] = dot > 0 ? 1.0 : -1.0;
    }
    std::vector<double> w(feats, 0.0); // current model

    CkksContext ctx(CkksParams::testSet(1 << 11, 6, 2));
    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx, 11);
    CkksEncryptor enc(ctx, keygen.publicKey(), 3);
    CkksDecryptor dec(ctx, keygen.secretKey());
    const auto rlk = keygen.relinKey();
    const double scale = static_cast<double>(1ULL << 26);

    // Client packs z_i = w . x_i per sample (the inner products are a
    // rotate-accumulate on the server in the full protocol; here we focus
    // the encrypted part on the non-linear gradient step).
    std::vector<double> z(samples), y_slots(samples);
    for (size_t i = 0; i < samples; ++i) {
        z[i] = 0;
        for (size_t j = 0; j < feats; ++j)
            z[i] += w[j] * xs[i][j];
        y_slots[i] = ys[i];
    }
    const auto ct_z =
        enc.encrypt(encoder.encodeReal(z, scale, ctx.qCount()));
    const auto pt_y = encoder.encodeReal(y_slots, scale, ctx.qCount());

    // ---- Reference: the hand-rolled operator sequence for
    // g_i = 0.5 - 0.197 * (y_i z_i) + 0.004 * (y_i z_i)^3. ----
    KernelLog ref_log;
    const CkksEvaluator ev(ctx, &ref_log);
    auto ct_yz = ev.rescale(ev.multiplyPlain(ct_z, pt_y));
    auto ct_yz2 = ev.rescale(ev.multiply(
        ct_yz, ct_yz, ev.precomputeKeySwitch(rlk, ct_yz.limbs() - 1)));
    auto ct_yz_low = ev.reduceToLimbs(ct_yz, ct_yz2.limbs());
    ct_yz_low.scale = ct_yz.scale;
    auto ct_yz3 = ev.rescale(ev.multiply(
        ct_yz2, ct_yz_low, ev.precomputeKeySwitch(rlk, ct_yz2.limbs() - 1)));

    std::vector<double> half(samples, 0.5);
    auto lin = ev.multiplyPlain(
        ct_yz, encoder.encodeReal(std::vector<double>(samples, -0.197),
                                  scale, ct_yz.limbs()));
    lin = ev.rescale(lin);
    auto cub = ev.multiplyPlain(
        ct_yz3, encoder.encodeReal(std::vector<double>(samples, 0.004),
                                   scale, ct_yz3.limbs()));
    cub = ev.rescale(cub);

    lin = ev.reduceToLimbs(lin, cub.limbs());
    lin.scale = cub.scale;
    auto ref_g = ev.add(lin, cub);
    const auto pt_half = encoder.encodeReal(half, ref_g.scale,
                                            ref_g.limbs());
    ref_g = ev.addPlain(ref_g, pt_half);

    // ---- The same computation as an operator graph: label-mask
    // multiply + the degree-3 Polynomial macro. ----
    const auto grad_graph = workloads::helrGradientGraph(y_slots);
    graph::CompileOptions copts;
    copts.lowering.baseScale = scale;
    copts.relinKey = &rlk;
    const auto compiled = graph::compileGraph(ctx, grad_graph, copts);

    KernelLog graph_log;
    const BatchEvaluator batch(ctx, &graph_log);
    const auto outs = compiled->run(batch, {{ct_z}});
    const Ciphertext &g = outs.at(0).at(0);

    check(sameCiphertext(g, ref_g),
          "graph-compiled gradient is bit-identical to the hand-rolled "
          "sequence");
    check(sameLog(graph_log, ref_log),
          "graph-compiled gradient logs the hand-rolled kernel "
          "schedule");
    std::printf("graph-compiled sigmoid gradient: %zu ops, %zu fused "
                "segment(s), verified bit-identical + kernel-log-equal "
                "to the hand-rolled sequence\n\n",
                compiled->ops().size(), compiled->segmentCount());

    // Decrypt the per-sample gradient coefficients and finish the update
    // on the client (full HELR keeps this encrypted too; the encrypted
    // part above is the latency-dominant portion).
    const auto g_slots = encoder.decode(dec.decrypt(g));
    const double lr = 1.0;
    for (size_t j = 0; j < feats; ++j) {
        double grad = 0;
        for (size_t i = 0; i < samples; ++i)
            grad += g_slots[i].real() * ys[i] * xs[i][j];
        w[j] += lr * grad / samples;
    }

    // Did the encrypted iteration move the model the right way?
    int correct = 0;
    for (size_t i = 0; i < samples; ++i) {
        double dot = 0;
        for (size_t j = 0; j < feats; ++j)
            dot += w[j] * xs[i][j];
        correct += (dot > 0 ? 1.0 : -1.0) == ys[i];
    }
    std::printf("one encrypted HELR iteration on %zu samples:\n", samples);
    std::printf("  learned w = [% .3f % .3f % .3f % .3f]\n", w[0], w[1],
                w[2], w[3]);
    std::printf("  training accuracy after 1 step: %d/%zu\n", correct,
                samples);

    // The paper-scale workload on the simulated devices -- the
    // schedule comes from workloads::helrIterationGraph through the
    // same graph lowering the compiled run above used.
    std::printf("\nHELR full iteration (batch 1024, 196 features) "
                "estimated on one tensor core:\n");
    lowering::Config cfg;
    const auto wload = workloads::helrIteration();
    for (const auto &d : tpu::allTpus()) {
        const auto est = workloads::estimateWorkload(wload, d, cfg, 1);
        std::printf("  %-8s %8.1f ms/iteration\n", d.name.c_str(),
                    est.totalUs / 1000.0);
    }
    std::printf("(paper: 84 ms per iteration on one TPUv6e core)\n");
    return 0;
}
