/**
 * @file
 * Randomized property tests for Halevi-Shoup hoisted rotations (the
 * shared decomposition of CkksEvaluator::hoistedModUp and the batch
 * engine's LinearTransform stage): over a sweep of random
 * rotation-index fan-outs, weighted and unweighted terms, mixed
 * ciphertext levels, batch sizes and thread counts, the hoisted
 * fan-out must be bit-identical to the same rotations executed
 * independently, while performing exactly fanout-1 fewer ModUps
 * (observed as the INTT-launch delta and as
 * KernelLog::hoistedModUpSaves).
 *
 * A textbook key switch built from public pieces
 * (testref::textbookKeySwitch: LimbMatrix BConv, RnsPoly::automorphism,
 * pointwise products and sums, ModDown by hand) pins keySwitch, rotate,
 * the hoisted fan-out and multiply bit for bit at every level, so a
 * gather or accumulation slip in the fused inner product cannot hide
 * behind comparisons that all run it. It runs on
 * a 6-limb dnum-2 context and on an 8-limb dnum-3 one, whose top level
 * sums three digits as Set-B's does.
 *
 * Thread count comes from CROSS_TEST_THREADS (default 4) so the
 * TSan/ASan CI shards (ctest -L hoisting) exercise the shared
 * decomposition under real concurrency.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ckks/batch_evaluator.h"
#include "ckks/context.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/graph/compiler.h"
#include "ckks/kernel_log.h"
#include "ckks/keys.h"
#include "ckks/schedule.h"
#include "common/parallel.h"
#include "common/rng.h"

#include "test_refs.h"
#include "test_util.h"

namespace cross::ckks {
namespace {

using poly::RnsPoly;
using testref::textbookKeySwitch;
using testutil::testThreads;

/** Rotation by @p auto_idx from the textbook key switch of c1. */
Ciphertext
textbookRotate(const CkksContext &ctx, const Ciphertext &ct, u32 auto_idx,
               const KeySwitchPrecomp &pre)
{
    Ciphertext r;
    std::tie(r.c0, r.c1) =
        textbookKeySwitch(ctx.hybridKeySwitch(), ct.c1, pre, auto_idx);
    r.c0.addInPlace(ct.c0.automorphism(auto_idx));
    r.scale = ct.scale;
    return r;
}

/** Tensor product of same-level @p a and @p b, relinearised. */
Ciphertext
textbookMultiply(const CkksContext &ctx, const Ciphertext &a,
                 const Ciphertext &b, const KeySwitchPrecomp &pre)
{
    const auto product = [](const RnsPoly &x, const RnsPoly &y) {
        RnsPoly p = x;
        p.mulPointwiseInPlace(y);
        return p;
    };
    Ciphertext r;
    r.c0 = product(a.c0, b.c0);
    r.c1 = product(a.c0, b.c1);
    r.c1.addInPlace(product(a.c1, b.c0));
    const auto [k0, k1] = textbookKeySwitch(ctx.hybridKeySwitch(),
                                            product(a.c1, b.c1), pre, 1);
    r.c0.addInPlace(k0);
    r.c1.addInPlace(k1);
    r.scale = a.scale * b.scale;
    return r;
}

class HoistingFixture : public ::testing::Test
{
  protected:
    static constexpr double kScale = 1 << 26;

    explicit HoistingFixture(
        const CkksParams &params = CkksParams::testSet(1 << 9, 6, 2))
        : ctx(params), encoder(ctx), keygen(ctx, 0x715),
          encryptor(ctx, keygen.publicKey(), 0x716)
    {
    }

    ~HoistingFixture() override { setGlobalThreadCount(1); }

    Ciphertext
    encryptRandom(Rng &rng)
    {
        std::vector<double> v(encoder.slotCount());
        for (auto &x : v)
            x = rng.real() * 2 - 1;
        return encryptor.encrypt(
            encoder.encodeReal(v, kScale, ctx.qCount()));
    }

    /** Rotation key for a left-rotation step, built once per step. */
    const SwitchKey &
    keyForStep(i64 step)
    {
        const u32 g = encoder.rotationAutomorphism(step);
        auto it = keys.find(g);
        if (it == keys.end())
            it = keys.emplace(g, keygen.rotationKey(g)).first;
        return it->second;
    }

    static size_t
    inttCount(const KernelLog &log)
    {
        size_t n = 0;
        for (const auto &c : log.calls())
            if (c.kind == KernelKind::Intt)
                ++n;
        return n;
    }

    static void
    expectBitIdentical(const Ciphertext &a, const Ciphertext &b,
                       const char *what)
    {
        EXPECT_TRUE(a.c0 == b.c0) << what;
        EXPECT_TRUE(a.c1 == b.c1) << what;
        EXPECT_DOUBLE_EQ(a.scale, b.scale) << what;
    }

    /**
     * At every level: keySwitch, multiply, rotate, a hoisted fan-out of
     * three over one shared decomposition and the conjugation each
     * equal the textbook steps, and precompBytes sizes the
     * relinearisation precomp exactly.
     */
    void
    expectTextbookKeySwitchAtEveryLevel(u64 seed)
    {
        Rng rng(seed);
        setGlobalThreadCount(1);
        const CkksEvaluator ev(ctx);
        const SwitchKey relin = keygen.relinKey();
        const u32 conj = encoder.conjugationAutomorphism();
        ASSERT_EQ(conj, 2 * ctx.degree() - 1);
        const SwitchKey conj_key = keygen.rotationKey(conj);
        for (size_t limbs = 1; limbs <= ctx.qCount(); ++limbs) {
            const size_t level = limbs - 1;
            SCOPED_TRACE("level " + std::to_string(level));
            const Ciphertext a = ev.reduceToLimbs(encryptRandom(rng), limbs);
            const Ciphertext b = ev.reduceToLimbs(encryptRandom(rng), limbs);
            const auto relin_pre = ev.precomputeKeySwitch(relin, level);
            EXPECT_EQ(ctx.hybridKeySwitch().precompBytes(level),
                      relin_pre.paramBytes());

            const auto [k0, k1] = ev.keySwitch(a.c1, relin_pre);
            const auto [r0, r1] = textbookKeySwitch(ctx.hybridKeySwitch(),
                                                    a.c1, relin_pre, 1);
            EXPECT_TRUE(k0 == r0) << "keySwitch c0";
            EXPECT_TRUE(k1 == r1) << "keySwitch c1";

            expectBitIdentical(ev.multiply(a, b, relin_pre),
                               textbookMultiply(ctx, a, b, relin_pre),
                               "multiply");

            const HoistedDecomp dec = ev.hoistedModUp(a.c1);
            for (i64 step : {1, 3, 7}) {
                const u32 g = encoder.rotationAutomorphism(step);
                const auto pre =
                    ev.precomputeKeySwitch(keyForStep(step), level);
                const Ciphertext ref = textbookRotate(ctx, a, g, pre);
                expectBitIdentical(ev.rotate(a, g, pre), ref, "rotate");
                expectBitIdentical(ev.applyHoistedRotation(a, dec, g, pre),
                                   ref, "hoisted branch");
            }

            const auto conj_pre = ev.precomputeKeySwitch(conj_key, level);
            const Ciphertext conj_ref =
                textbookRotate(ctx, a, conj, conj_pre);
            expectBitIdentical(ev.rotate(a, conj, conj_pre), conj_ref,
                               "conjugation");
            expectBitIdentical(
                ev.applyHoistedRotation(a, dec, conj, conj_pre), conj_ref,
                "hoisted conjugation");
        }
    }

    CkksContext ctx;
    CkksEncoder encoder;
    KeyGenerator keygen;
    CkksEncryptor encryptor;
    std::map<u32, SwitchKey> keys;
};

TEST_F(HoistingFixture, SharedDecompReusableAcrossTheWholeFanOut)
{
    // The decomposition is rotation-independent: applying it per
    // branch (the LinearTransform stage's execution pattern) equals the
    // scalar rotate, branch by branch, over random fan-outs of random
    // steps at random levels.
    Rng rng(0x7157);
    setGlobalThreadCount(1);
    const CkksEvaluator ev(ctx);
    for (int trial = 0; trial < 6; ++trial) {
        const size_t fanout = rng.range(2, 5);
        std::vector<i64> steps;
        while (steps.size() < fanout) {
            const i64 s = static_cast<i64>(
                rng.range(1, encoder.slotCount() - 1));
            if (std::find(steps.begin(), steps.end(), s) == steps.end())
                steps.push_back(s);
        }
        const size_t limbs = rng.range(2, ctx.qCount());
        const Ciphertext ct = ev.reduceToLimbs(encryptRandom(rng), limbs);
        const HoistedDecomp dec = ev.hoistedModUp(ct.c1);
        for (i64 s : steps) {
            const u32 g = encoder.rotationAutomorphism(s);
            const auto pre = ev.precomputeKeySwitch(keyForStep(s), limbs - 1);
            expectBitIdentical(ev.applyHoistedRotation(ct, dec, g, pre),
                               ev.rotate(ct, g, pre), "shared decomp");
        }
    }
}

TEST_F(HoistingFixture, KeySwitchMatchesTextbookReferenceBitForBit)
{
    // At every level of the 6-limb, dnum-2 context (levels 3 and 4 end
    // in a partial digit).
    expectTextbookKeySwitchAtEveryLevel(0x7e47);
}

/** 8 limbs in 3 digits: the top level sums three digits, as Set-B's
 *  does, which the 6-limb, dnum-2 context never reaches. */
class HoistingDnum3Fixture : public HoistingFixture
{
  protected:
    HoistingDnum3Fixture()
        : HoistingFixture(CkksParams::testSet(1 << 9, 8, 3))
    {
    }
};

TEST_F(HoistingDnum3Fixture, KeySwitchMatchesTextbookReferenceBitForBit)
{
    ASSERT_EQ(ctx.hybridKeySwitch().activeDigits(ctx.qCount() - 1), 3u);
    expectTextbookKeySwitchAtEveryLevel(0x7e43);
}

TEST_F(HoistingFixture, LinearTransformStageMatchesPerOpLoopBitIdentically)
{
    // Random sweep over the one hoisted stage: 0-5 rotation terms,
    // weighted or unweighted (each count runs both ways), on batches of
    // 1-3 items at mixed levels (a one-item batch runs on the caller's
    // thread, a larger one runs items in parallel). The
    // per-op loop -- rotate, multiplyPlain, add, each rotation with its
    // own ModUp -- is the reference, computed once at 1 thread.
    Rng rng(0x11ea7);
    for (size_t trial = 0; trial < 12; ++trial) {
        const size_t terms = trial % 6;
        const bool weighted = (trial + trial / 6) % 2 == 0;
        SCOPED_TRACE(testing::Message() << "trial " << trial << ": "
                                        << terms << " terms, "
                                        << (weighted ? "" : "un")
                                        << "weighted");
        std::vector<u32> idx;
        std::vector<const SwitchKey *> key;
        while (idx.size() < terms) {
            const i64 s = static_cast<i64>(
                rng.range(1, encoder.slotCount() - 1));
            const u32 g = encoder.rotationAutomorphism(s);
            if (std::find(idx.begin(), idx.end(), g) != idx.end())
                continue;
            idx.push_back(g);
            key.push_back(&keyForStep(s));
        }
        // One plaintext per term, identity first, at the top level so
        // it covers every item's level.
        std::vector<Plaintext> pts;
        for (size_t t = 0; weighted && t <= terms; ++t) {
            std::vector<double> v(encoder.slotCount());
            for (auto &x : v)
                x = rng.real() * 2 - 1;
            pts.push_back(encoder.encodeReal(v, kScale, ctx.qCount()));
        }
        const auto pt = [&](size_t t) {
            return weighted ? &pts[t] : nullptr;
        };

        setGlobalThreadCount(1);
        const CkksEvaluator plain_ev(ctx);
        CtVec items;
        for (size_t i = 0; i <= trial % 3; ++i)
            items.push_back(plain_ev.reduceToLimbs(
                encryptRandom(rng), rng.range(2, ctx.qCount())));

        KernelLog per_log;
        CtVec want;
        std::vector<KernelCall> enumerated;
        Pipeline p;
        std::vector<RotateBranch> branches;
        for (size_t b = 0; b < terms; ++b)
            branches.push_back({idx[b], key[b], pt(b + 1)});
        p.linearTransform(branches, pt(0));
        {
            const CkksEvaluator ev(ctx, &per_log);
            for (const Ciphertext &ct : items) {
                Ciphertext acc = weighted ? ev.multiplyPlain(ct, pts[0])
                                          : ct;
                for (size_t b = 0; b < terms; ++b) {
                    Ciphertext t = ev.rotate(
                        ct, idx[b],
                        ev.precomputeKeySwitch(*key[b], ct.limbs() - 1));
                    if (weighted)
                        t = ev.multiplyPlain(t, pts[b + 1]);
                    acc = ev.add(acc, t);
                }
                want.push_back(acc);
                const auto calls = enumerateKernels(
                    p.pipelineOps(), ctx.params(), ct.limbs() - 1);
                enumerated.insert(enumerated.end(), calls.begin(),
                                  calls.end());
            }
        }

        const size_t saves = terms > 0 ? terms - 1 : 0;
        for (u32 threads : {1u, testThreads()}) {
            setGlobalThreadCount(threads);
            auto &cache = ctx.keySwitchCache();
            cache.clear();
            cache.resetStats();
            KernelLog log;
            const BatchEvaluator batch(ctx, &log);
            const CtVec got = batch.run(items, p);
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < got.size(); ++i)
                expectBitIdentical(got[i], want[i], "stage output");

            ASSERT_EQ(log.calls().size(), enumerated.size());
            for (size_t c = 0; c < enumerated.size(); ++c)
                EXPECT_TRUE(log.calls()[c].sameShape(enumerated[c]))
                    << "call " << c;
            EXPECT_EQ(log.hoistedModUpSaves(), saves * items.size());
            EXPECT_EQ(inttCount(per_log) - inttCount(log),
                      log.hoistedModUpSaves());
            if (terms == 0) {
                // Only the identity term: no ModUp, no key precomp.
                EXPECT_EQ(inttCount(log), 0u);
                EXPECT_EQ(cache.misses(), 0u);
            }
        }
    }
    setGlobalThreadCount(1);
}

TEST_F(HoistingFixture, OneByOneMatVecCompilesWithoutRotationKeys)
{
    // A 1 x 1 matVec is a LinearTransform with only its identity term:
    // it compiles with no rotation key source at all, launches no
    // ModUp and equals one multiplyPlain.
    graph::Graph g;
    g.matVec(g.input(), {{0.75}}, 1);
    graph::CompileOptions opts;
    opts.lowering.baseScale = kScale;
    const auto compiled = graph::compileGraph(ctx, g, opts);
    EXPECT_TRUE(compiled->keyPlan().entries.empty());

    Rng rng(0x1b1);
    const Ciphertext ct = encryptRandom(rng);
    setGlobalThreadCount(1);
    const CkksEvaluator ev(ctx);
    const auto want = ev.multiplyPlain(
        ct, encoder.encodeReal(std::vector<double>{0.75}, kScale,
                               ctx.qCount()));
    KernelLog log;
    const BatchEvaluator batch(ctx, &log);
    const auto got = compiled->run(batch, {{ct}});
    expectBitIdentical(got.at(0).at(0), want, "1 x 1 matVec");
    EXPECT_EQ(inttCount(log), 0u);
    EXPECT_EQ(log.hoistedModUpSaves(), 0u);
}

} // namespace
} // namespace cross::ckks
