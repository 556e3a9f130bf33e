/**
 * @file
 * Cross-module integration tests: multi-level encrypted pipelines that
 * exercise level-dependent key switching (fewer active digits at lower
 * levels), rotation-based reductions, double rescaling, evaluator error
 * paths, and the consistency between the functional pipeline and the TPU
 * cost model at every level it visits.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "ckks/batch_evaluator.h"
#include "ckks/bootstrap.h"
#include "ckks/context.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/graph/compiler.h"
#include "ckks/keys.h"
#include "ckks/schedule.h"
#include "common/parallel.h"
#include "common/rng.h"

#include "test_util.h"

namespace cross::ckks {
namespace {

constexpr double kScale = static_cast<double>(1ULL << 26);

class PipelineFixture : public ::testing::Test
{
  protected:
    PipelineFixture()
        : ctx(CkksParams::testSet(1 << 10, 7, 3)), encoder(ctx),
          keygen(ctx, 1234), encryptor(ctx, keygen.publicKey(), 55),
          decryptor(ctx, keygen.secretKey()), evaluator(ctx),
          rlk(keygen.relinKey())
    {
    }

    std::vector<Complex>
    randomSlots(u64 seed, double mag)
    {
        Rng rng(seed);
        std::vector<Complex> v(encoder.slotCount());
        for (auto &x : v)
            x = Complex((rng.real() * 2 - 1) * mag, 0);
        return v;
    }

    CkksContext ctx;
    CkksEncoder encoder;
    KeyGenerator keygen;
    CkksEncryptor encryptor;
    CkksDecryptor decryptor;
    CkksEvaluator evaluator;
    SwitchKey rlk;
};

TEST_F(PipelineFixture, MultiplyAtReducedLevels)
{
    // Key switching at levels where the number of active digits shrinks
    // below dnum -- the path Table VIII's level sweep exercises.
    const auto a = randomSlots(1, 0.9);
    auto ct = encryptor.encrypt(
        encoder.encode(a, kScale, ctx.qCount()));
    std::vector<Complex> expect = a;

    // Repeatedly square and rescale while the scale budget lasts
    // (Delta = 2^26 vs 28-bit primes loses ~2 bits per level).
    while (ct.limbs() > 4) {
        ct = evaluator.rescale(evaluator.multiply(
            ct, ct, evaluator.precomputeKeySwitch(rlk, ct.limbs() - 1)));
        for (auto &e : expect)
            e *= e;
    }
    const auto decoded = encoder.decode(decryptor.decrypt(ct));
    for (size_t i = 0; i < 8; ++i)
        EXPECT_LT(std::abs(decoded[i] - expect[i]), 0.2)
            << "slot " << i; // error grows with depth; magnitude check
}

TEST_F(PipelineFixture, RotateAfterRescale)
{
    const u32 k = encoder.rotationAutomorphism(2);
    const auto rot_key = keygen.rotationKey(k);
    const auto a = randomSlots(2, 0.8);
    auto ct = encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    ct = evaluator.rescale(evaluator.multiply(
        ct, ct, evaluator.precomputeKeySwitch(rlk, ct.limbs() - 1)));
    // Rotation now happens with fewer limbs (and fewer digits).
    const auto rot = evaluator.rotate(
        ct, k, evaluator.precomputeKeySwitch(rot_key, ct.limbs() - 1));
    const auto decoded = encoder.decode(decryptor.decrypt(rot));
    const size_t half = encoder.slotCount();
    for (size_t i = 0; i < 8; ++i) {
        const Complex expect = a[(i + 2) % half] * a[(i + 2) % half];
        EXPECT_LT(std::abs(decoded[i] - expect), 5e-2);
    }
}

TEST_F(PipelineFixture, RotateAccumulateInnerProduct)
{
    // The rotate-accumulate tree every HE ML workload uses: after log2(w)
    // rotations and adds, slot 0 holds the sum of the first w slots.
    const size_t w = 8;
    std::vector<Complex> a(encoder.slotCount(), Complex(0, 0));
    double expect_sum = 0;
    Rng rng(3);
    for (size_t i = 0; i < w; ++i) {
        a[i] = Complex(rng.real(), 0);
        expect_sum += a[i].real();
    }
    auto ct = encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    for (size_t step = w / 2; step >= 1; step /= 2) {
        const u32 k =
            encoder.rotationAutomorphism(static_cast<i64>(step));
        const auto key = evaluator.precomputeKeySwitch(keygen.rotationKey(k),
                                                       ct.limbs() - 1);
        ct = evaluator.add(ct, evaluator.rotate(ct, k, key));
    }
    const auto decoded = encoder.decode(decryptor.decrypt(ct));
    EXPECT_LT(std::abs(decoded[0].real() - expect_sum), 1e-2);
}

TEST_F(PipelineFixture, WeightedLinearCombination)
{
    const auto a = randomSlots(4, 0.5);
    const auto b = randomSlots(5, 0.5);
    const auto ca =
        encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    const auto cb =
        encryptor.encrypt(encoder.encode(b, kScale, ctx.qCount()));
    // 0.25*a + 0.75*b via plaintext multiplies at matching scales.
    std::vector<double> wa(encoder.slotCount(), 0.25);
    std::vector<double> wb(encoder.slotCount(), 0.75);
    auto ta = evaluator.rescale(evaluator.multiplyPlain(
        ca, encoder.encodeReal(wa, kScale, ctx.qCount())));
    auto tb = evaluator.rescale(evaluator.multiplyPlain(
        cb, encoder.encodeReal(wb, kScale, ctx.qCount())));
    const auto sum = evaluator.add(ta, tb);
    const auto decoded = encoder.decode(decryptor.decrypt(sum));
    for (size_t i = 0; i < 8; ++i) {
        const Complex expect = a[i] * 0.25 + b[i] * 0.75;
        EXPECT_LT(std::abs(decoded[i] - expect), 1e-2);
    }
}

TEST_F(PipelineFixture, EvaluatorErrorPaths)
{
    const auto a = randomSlots(6, 0.5);
    auto ca = encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    auto cb = ca;
    cb.scale *= 2.0;
    EXPECT_THROW((void)evaluator.add(ca, cb), std::invalid_argument);
    EXPECT_THROW((void)evaluator.addPlain(
                     ca, encoder.encode(a, kScale * 4, ctx.qCount())),
                 std::invalid_argument);
    // Level-mismatched plaintext operands fail fast (scalar paths):
    // a short plaintext would silently truncate the ciphertext chain.
    EXPECT_THROW((void)evaluator.addPlain(
                     ca, encoder.encode(a, kScale, ctx.qCount() - 1)),
                 std::invalid_argument);
    EXPECT_THROW((void)evaluator.multiplyPlain(
                     ca, encoder.encode(a, kScale, ctx.qCount() - 1)),
                 std::invalid_argument);

    auto tiny = evaluator.reduceToLimbs(ca, 1);
    EXPECT_THROW((void)evaluator.rescale(tiny), std::invalid_argument);
    EXPECT_THROW((void)evaluator.reduceToLimbs(ca, 0),
                 std::invalid_argument);
    EXPECT_THROW((void)evaluator.reduceToLimbs(ca, 99),
                 std::invalid_argument);
}

TEST_F(PipelineFixture, ScheduleMatchesAtEveryLevel)
{
    // The enumerator contract must hold at reduced levels too, where the
    // digit structure changes.
    KernelLog log;
    CkksEvaluator ev(ctx, &log);
    const auto a = randomSlots(7, 0.5);
    auto ct = encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    while (ct.limbs() > 2) {
        const auto pre = ev.precomputeKeySwitch(rlk, ct.limbs() - 1);
        log.clear();
        const auto prod = ev.multiply(ct, ct, pre);
        const auto predicted =
            enumerateKernels(HeOp::Mult, ctx.params(), ct.limbs() - 1);
        ASSERT_EQ(log.calls().size(), predicted.size())
            << "level " << ct.limbs() - 1;
        for (size_t i = 0; i < predicted.size(); ++i)
            EXPECT_TRUE(log.calls()[i].sameShape(predicted[i]))
                << "level " << ct.limbs() - 1 << " kernel " << i;
        ct = ev.rescale(prod);
    }
}

TEST(DoubleRescaling, ParamsAndEvaluator)
{
    // Section V-A: a 56-bit logical level maps to two 28-bit sub-moduli.
    const auto p = CkksParams::doubleRescaled(1 << 10, 3, 56, 2);
    EXPECT_EQ(p.limbs, 6u);

    CkksContext ctx(p);
    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx, 9);
    CkksEncryptor enc(ctx, keygen.publicKey(), 10);
    CkksDecryptor dec(ctx, keygen.secretKey());
    CkksEvaluator ev(ctx);
    const auto rlk =
        ev.precomputeKeySwitch(keygen.relinKey(), ctx.qCount() - 1);

    Rng rng(11);
    std::vector<Complex> a(encoder.slotCount());
    for (auto &x : a)
        x = Complex(rng.real() - 0.5, 0);
    // Wide logical levels need a wide scale: 2^54 spans two sub-moduli.
    const double wide_scale = std::ldexp(1.0, 54);
    const auto ct =
        enc.encrypt(encoder.encode(a, wide_scale, ctx.qCount()));
    // One logical rescale is two rescales, each dropping one limb.
    const auto rescaled = ev.rescale(ev.rescale(ev.multiply(ct, ct, rlk)));
    EXPECT_EQ(rescaled.limbs(), ctx.qCount() - 2);
    const auto decoded = encoder.decode(dec.decrypt(rescaled));
    for (size_t i = 0; i < 8; ++i)
        EXPECT_LT(std::abs(decoded[i] - a[i] * a[i]), 1e-2);
    // The remaining scale is wide again (~2^52), ready for another level.
    EXPECT_GT(rescaled.scale, std::ldexp(1.0, 48));
}

TEST(DoubleRescaling, CompiledGraphMatchesSequentialAndEnumerator)
{
    // rescale(rescale(x * x)) over the 6-limb chain: one fused segment
    // whose batch run equals the sequential reference bit for bit and
    // logs, per item, the enumerator's Mult + Rescale + Rescale.
    const auto p = CkksParams::doubleRescaled(1 << 10, 3, 56, 2);
    CkksContext ctx(p);
    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx, 14);
    CkksEncryptor enc(ctx, keygen.publicKey(), 15);
    CkksDecryptor dec(ctx, keygen.secretKey());

    graph::Graph g;
    const auto x = g.input();
    g.rescale(g.rescale(g.multiply(x, x)));
    const double wide_scale = std::ldexp(1.0, 54);
    graph::CompileOptions opts;
    opts.lowering.baseScale = wide_scale;
    opts.keygen = &keygen;
    const auto compiled = graph::compileGraph(ctx, g, opts);
    EXPECT_EQ(compiled->segmentCount(), 1u);

    Rng rng(16);
    std::vector<std::vector<Complex>> vals(2);
    CtVec input;
    for (auto &v : vals) {
        v.resize(encoder.slotCount());
        for (auto &c : v)
            c = Complex(rng.real() - 0.5, 0);
        input.push_back(
            enc.encrypt(encoder.encode(v, wide_scale, ctx.qCount())));
    }

    setGlobalThreadCount(testutil::testThreads());
    KernelLog log;
    const auto outs = compiled->run(BatchEvaluator(ctx, &log), {input});
    setGlobalThreadCount(1);
    const auto seq = compiled->runSequential(nullptr, {input});

    const auto one = enumerateKernels(
        {{HeOp::Mult}, {HeOp::Rescale}, {HeOp::Rescale}}, p, 5);
    ASSERT_EQ(log.calls().size(), 2 * one.size());
    for (size_t i = 0; i < log.calls().size(); ++i)
        EXPECT_TRUE(log.calls()[i].sameShape(one[i % one.size()])) << i;
    for (size_t i = 0; i < input.size(); ++i) {
        const Ciphertext &got = outs.at(0).at(i);
        const Ciphertext &want = seq.at(0).at(i);
        EXPECT_TRUE(got.c0 == want.c0 && got.c1 == want.c1 &&
                    got.scale == want.scale)
            << "item " << i;
        EXPECT_EQ(got.limbs(), ctx.qCount() - 2);
        const auto decoded = encoder.decode(dec.decrypt(got));
        for (size_t j = 0; j < 8; ++j)
            EXPECT_LT(std::abs(decoded[j] - vals[i][j] * vals[i][j]), 1e-2);
    }
}

TEST(DoubleRescaling, RejectsWhenTooFewLimbs)
{
    // A logical rescale of a 2-limb item would leave no limb: the
    // batch walk rejects the second rescale before any work runs.
    const auto p = CkksParams::doubleRescaled(1 << 9, 1, 56, 1);
    CkksContext ctx(p);
    KeyGenerator keygen(ctx, 12);
    CkksEncoder encoder(ctx);
    CkksEncryptor enc(ctx, keygen.publicKey(), 13);
    std::vector<Complex> a(4, Complex(0.1, 0));
    const CtVec in = {enc.encrypt(encoder.encode(a, kScale, ctx.qCount()))};
    ASSERT_EQ(in[0].limbs(), 2u);
    Pipeline pipe;
    pipe.rescale().rescale();
    try {
        (void)BatchEvaluator(ctx).run(in, pipe);
        ADD_FAILURE() << "a rescale past the chain was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("BatchEvaluator::run"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CostModelIntegration, LevelSweepMonotonic)
{
    // Simulated HE-Mult latency must grow monotonically with level for
    // every device -- the property behind Table VIII's parameter sweep.
    const auto p = CkksParams::paperSet('C');
    lowering::Config cfg;
    for (const auto &dev : tpu::allTpus()) {
        HeOpCostModel model(dev, cfg, p);
        double prev = 0;
        for (size_t lvl = 2; lvl < p.limbs; lvl += 4) {
            const double us = model.opLatencyUs(HeOp::Mult, lvl);
            EXPECT_GT(us, prev) << dev.name << " level " << lvl;
            prev = us;
        }
    }
}

TEST(CostModelIntegration, BootstrapKernelsMatchOpEnumeration)
{
    // The hoisted kernel schedule must stay consistent with the op-level
    // enumeration: same rotation stages, strictly fewer NTT launches.
    const auto p = CkksParams::paperSet('D');
    const BootstrapConfig cfg;
    const auto ops = enumerateBootstrapOps(p, cfg);
    const auto hoisted = enumerateBootstrapKernels(
        p, cfg, BootstrapKernelMode::Hoisted);
    const auto per_op = enumerateBootstrapKernels(
        p, cfg, BootstrapKernelMode::PerOp);

    // Every rotation branch performs exactly one Automorphism launch,
    // hoisted or not.
    u64 op_rotations = 0;
    for (const auto &bop : ops)
        op_rotations +=
            bop.op == HeOp::LinearTransform ? bop.fanin
            : bop.op == HeOp::Rotate    ? u64{1}
                                        : u64{0};
    u64 hoisted_autos = 0, per_op_autos = 0;
    for (const auto &k : hoisted)
        hoisted_autos += k.kind == KernelKind::Automorphism;
    for (const auto &k : per_op)
        per_op_autos += k.kind == KernelKind::Automorphism;
    EXPECT_EQ(op_rotations, hoisted_autos);
    EXPECT_EQ(op_rotations, per_op_autos);

    // Hoisting shares the ModUp per group: exactly sum(fanin - 1)
    // fewer INTT launches, and strictly less NTT limb-work.
    u64 expected_saves = 0;
    for (const auto &bop : ops)
        if (bop.op == HeOp::LinearTransform)
            expected_saves += bop.fanin - 1;
    u64 hoisted_intt = 0, per_op_intt = 0;
    u64 hoisted_ntt = 0, per_op_ntt = 0;
    for (const auto &k : hoisted) {
        hoisted_intt += k.kind == KernelKind::Intt;
        if (k.kind == KernelKind::Ntt)
            hoisted_ntt += k.limbs;
    }
    for (const auto &k : per_op) {
        per_op_intt += k.kind == KernelKind::Intt;
        if (k.kind == KernelKind::Ntt)
            per_op_ntt += k.limbs;
    }
    EXPECT_GT(expected_saves, 0u);
    EXPECT_EQ(per_op_intt - hoisted_intt, expected_saves);
    EXPECT_LT(hoisted_ntt, per_op_ntt);
}

} // namespace
} // namespace cross::ckks
