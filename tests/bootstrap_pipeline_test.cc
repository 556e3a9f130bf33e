/**
 * @file
 * The executable bootstrap schedule: bootstrapGraph() compiled by
 * graph::compileGraph must lower the full enumerateBootstrapOps
 * schedule -- under either plainMatrices setting -- to one fused
 * segment whose ops() equal the enumeration, whose run() is
 * bit-identical to runSequential at any thread count, and whose merged
 * KernelLog equals enumerateBootstrapKernels(Hoisted) kernel for
 * kernel. The PerOp graph (each BSGS group written as explicit rotate
 * + add nodes) is the per-op reference: bit-identical results, its
 * own enumeration, and exactly the hoisted run's saved ModUps more.
 * Also covers the unweighted LinearTransform stage (slot-summation
 * rotation tree, checked semantically against a decrypted slot sum,
 * and a fan-in checked against the per-op rotate + add loop), the
 * LRU-bounded key residency under the bootstrap's many-(key, level)
 * working set, and the pipeline's fail-fast plaintext operand guards.
 *
 * Thread count comes from CROSS_TEST_THREADS (default 4) so the TSan
 * CI job (ctest -L bootstrap) exercises the bounded cache's eviction
 * path with real concurrency.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
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

using testutil::testThreads;

/** Small-but-deep bootstrap config whose level guards never bind at
 *  9 limbs (asserted by bootstrapGraph). */
BootstrapConfig
smallBootstrapConfig(bool plain_matrices = true)
{
    BootstrapConfig cfg;
    cfg.ctsLevels = 2;
    cfg.stcLevels = 2;
    cfg.evalModDegree = 4;
    cfg.evalModIters = 1;
    cfg.plainMatrices = plain_matrices;
    return cfg;
}

void
expectEqual(const CtVec &a, const CtVec &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(a[i].c0 == b[i].c0) << "item " << i;
        EXPECT_TRUE(a[i].c1 == b[i].c1) << "item " << i;
        EXPECT_DOUBLE_EQ(a[i].scale, b[i].scale) << "item " << i;
    }
}

void
expectSameCalls(const std::vector<KernelCall> &got,
                const std::vector<KernelCall> &want,
                const char *what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(got[i].sameShape(want[i]))
            << what << " kernel " << i << ": got "
            << kernelKindName(got[i].kind) << "(" << got[i].limbs << "->"
            << got[i].limbsOut << "), want "
            << kernelKindName(want[i].kind) << "(" << want[i].limbs
            << "->" << want[i].limbsOut << ")";
    }
}

u64
countKind(const std::vector<KernelCall> &calls, KernelKind kind)
{
    u64 c = 0;
    for (const auto &k : calls)
        c += k.kind == kind;
    return c;
}

/** Shared-ModUp saves of one bootstrap item: sum(fanin - 1) over the
 *  BSGS groups. */
u64
bootstrapSaves(const CkksParams &params, const BootstrapConfig &cfg)
{
    u64 saves = 0;
    for (const auto &bop : enumerateBootstrapOps(params, cfg))
        if (bop.op == HeOp::LinearTransform)
            saves += bop.fanin - 1;
    return saves;
}

/** @p copies back-to-back copies of the per-item kernel schedule. */
std::vector<KernelCall>
repeated(const std::vector<KernelCall> &per_item, size_t copies)
{
    std::vector<KernelCall> v;
    for (size_t c = 0; c < copies; ++c)
        v.insert(v.end(), per_item.begin(), per_item.end());
    return v;
}

/** Uniform ciphertexts at each compiled input's (limbs, scale): the
 *  synthetic operands the schedule executes on. */
std::vector<CtVec>
uniformInputs(const CkksContext &ctx,
              const std::vector<graph::InputSpec> &ledger, size_t batch,
              u64 seed)
{
    Rng rng(seed);
    std::vector<CtVec> inputs;
    for (const graph::InputSpec &spec : ledger) {
        CtVec v(batch);
        for (Ciphertext &ct : v) {
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

class BootstrapGraphFixture : public ::testing::Test
{
  protected:
    static constexpr double kScale = 1 << 26;
    static constexpr size_t kBatch = 2;

    BootstrapGraphFixture()
        : ctx(CkksParams::testSet(1 << 9, 9, 2)), keygen(ctx, 0xb007)
    {
    }

    ~BootstrapGraphFixture() override
    {
        setGlobalThreadCount(1);
        ctx.keySwitchCache().setByteBudget(0);
    }

    /** The bootstrap graph of @p mode's shape, compiled Fused. */
    std::unique_ptr<graph::CompiledGraph>
    compileBootstrap(const BootstrapConfig &cfg, BootstrapKernelMode mode,
                     KeyGenerator &kg, u64 seed)
    {
        const BootstrapGraph bg =
            bootstrapGraph(ctx, cfg, kScale, seed, mode);
        graph::CompileOptions opts;
        opts.lowering = bg.lowering;
        opts.keygen = &kg;
        return graph::compileGraph(ctx, bg.graph, opts);
    }

    CkksContext ctx;
    KeyGenerator keygen;
};

// ---------------------------------------------------------------------
// The acceptance criterion: full schedule, one fused segment
// ---------------------------------------------------------------------
TEST_F(BootstrapGraphFixture,
       FullScheduleExecutesAndMatchesEnumeratorAtAnyThreadCount)
{
    for (bool plain : {true, false}) {
        SCOPED_TRACE(plain ? "plaintext matrices" : "ciphertext matrices");
        const auto cfg = smallBootstrapConfig(plain);
        const auto cg = compileBootstrap(cfg, BootstrapKernelMode::Hoisted,
                                         keygen, 0xb1);
        const auto inputs =
            uniformInputs(ctx, cg->inputLedger(), kBatch, 0xb2);

        // One fused segment executing exactly the enumerated schedule.
        EXPECT_EQ(cg->segmentCount(), 1u);
        const auto want_ops = enumerateBootstrapOps(ctx.params(), cfg);
        ASSERT_EQ(cg->ops().size(), want_ops.size());
        for (size_t i = 0; i < want_ops.size(); ++i) {
            const auto &op = cg->ops()[i];
            EXPECT_TRUE((BootstrapOp{op.op, op.level, op.fanin} ==
                         want_ops[i]))
                << "op " << i;
        }

        // Per-item kernels == the Hoisted bootstrap enumeration; the
        // sequential log is batch-many copies of it. Every BSGS group
        // shares one ModUp, and the save counter accounts for each.
        const u64 saves = kBatch * bootstrapSaves(ctx.params(), cfg);
        ASSERT_GT(saves, 0u);
        setGlobalThreadCount(1);
        KernelLog seq_log;
        const auto seq = cg->runSequential(&seq_log, inputs);
        ASSERT_EQ(seq.size(), 1u);
        const auto expected = repeated(
            enumerateBootstrapKernels(ctx.params(), cfg,
                                      BootstrapKernelMode::Hoisted),
            kBatch);
        expectSameCalls(seq_log.calls(), expected, "sequential");
        EXPECT_EQ(seq_log.hoistedModUpSaves(), saves);

        for (u32 threads : {1u, testThreads()}) {
            setGlobalThreadCount(threads);
            KernelLog fused_log;
            BatchEvaluator batch(ctx, &fused_log);
            const auto fused = cg->run(batch, inputs);
            ASSERT_EQ(fused.size(), 1u);
            expectEqual(fused[0], seq[0]);
            expectSameCalls(fused_log.calls(), expected, "fused");
            EXPECT_EQ(fused_log.hoistedModUpSaves(), saves);
        }
        setGlobalThreadCount(1);
    }
}

// ---------------------------------------------------------------------
// Per-op reference: same results, its own enumeration, more ModUps
// ---------------------------------------------------------------------
TEST_F(BootstrapGraphFixture, PerOpGraphMatchesHoistedBitIdentically)
{
    for (bool plain : {true, false}) {
        SCOPED_TRACE(plain ? "plaintext matrices" : "ciphertext matrices");
        const auto cfg = smallBootstrapConfig(plain);
        // Two generators with the same seed draw identical key material
        // in the compiler's fixed derivation order, so the two compiled
        // graphs differ only in how their rotation groups execute.
        KeyGenerator kg_per(ctx, 0xb007);
        KeyGenerator kg_hoist(ctx, 0xb007);
        const auto per = compileBootstrap(cfg, BootstrapKernelMode::PerOp,
                                          kg_per, 0xb7);
        const auto hoist = compileBootstrap(
            cfg, BootstrapKernelMode::Hoisted, kg_hoist, 0xb7);
        // The per-op rotations fan out from each group input, so the
        // graph splits into segments; its inputs are the hoisted one's.
        EXPECT_GT(per->segmentCount(), hoist->segmentCount());
        ASSERT_EQ(per->inputLedger().size(), hoist->inputLedger().size());

        // A single item runs the PerOp enumeration itself.
        setGlobalThreadCount(1);
        KernelLog item_log;
        (void)per->runSequential(
            &item_log, uniformInputs(ctx, per->inputLedger(), 1, 0xb9));
        expectSameCalls(item_log.calls(),
                        enumerateBootstrapKernels(
                            ctx.params(), cfg, BootstrapKernelMode::PerOp),
                        "per-op item");

        // A batch runs segment by segment, so the sequential log (not
        // batch copies of the enumeration) is the batched run's
        // reference.
        const auto inputs =
            uniformInputs(ctx, per->inputLedger(), kBatch, 0xb8);
        KernelLog seq_log;
        const auto seq = per->runSequential(&seq_log, inputs)[0];
        for (u32 threads : {1u, testThreads()}) {
            setGlobalThreadCount(threads);
            KernelLog log;
            BatchEvaluator batch(ctx, &log);
            expectEqual(per->run(batch, inputs)[0], seq);
            expectSameCalls(log.calls(), seq_log.calls(), "per-op fused");
            EXPECT_EQ(log.hoistedModUpSaves(), 0u);
        }

        // The hoisted graph: bit-identical, launching exactly the saved
        // ModUps fewer.
        KernelLog log;
        BatchEvaluator batch(ctx, &log);
        expectEqual(hoist->run(batch, inputs)[0], seq);
        EXPECT_EQ(log.hoistedModUpSaves(),
                  kBatch * bootstrapSaves(ctx.params(), cfg));
        EXPECT_EQ(countKind(seq_log.calls(), KernelKind::Intt) -
                      countKind(log.calls(), KernelKind::Intt),
                  log.hoistedModUpSaves());
        setGlobalThreadCount(1);
    }
}

TEST_F(BootstrapGraphFixture, RejectsChainWhoseLevelGuardsBind)
{
    // A second EvalMod refinement round reaches the guard that stops
    // the walk's level decrement, so an execution (one limb per
    // rescale) would leave the enumerated levels.
    auto cfg = smallBootstrapConfig();
    cfg.evalModIters = 2;
    try {
        (void)bootstrapGraph(ctx, cfg, kScale, 1);
        ADD_FAILURE() << "a guard-binding schedule was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("level guards bound"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(BootstrapGraphFixture, ResidencyStaysWithinByteBudget)
{
    const auto cg = compileBootstrap(smallBootstrapConfig(),
                                     BootstrapKernelMode::Hoisted, keygen,
                                     0xb2);
    const auto inputs = uniformInputs(ctx, cg->inputLedger(), kBatch, 0xb3);
    auto &cache = ctx.keySwitchCache();

    // Unbounded runs: the schedule's full (key, level) working set --
    // the BSGS pool at every CtS/StC level plus the relin key at every
    // mult level -- is exactly the compiler's key plan. A second run is
    // served entirely from resident entries (each pair built exactly
    // once, ever).
    setGlobalThreadCount(1);
    cache.clear();
    cache.resetStats();
    BatchEvaluator batch(ctx);
    const auto unbounded = cg->run(batch, inputs)[0];
    const size_t working_set = cache.residentBytes();
    const u64 builds = cache.misses();
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(builds, cg->keyPlan().entries.size());
    EXPECT_EQ(working_set, cg->keyPlan().totalBytes);
    expectEqual(cg->run(batch, inputs)[0], unbounded);
    EXPECT_EQ(cache.misses(), builds); // fully resident across runs

    // Set-D-style roll-off: half the working set forces evictions but
    // must neither change results nor overshoot the budget, at any
    // thread count.
    const size_t budget = working_set / 2;
    for (u32 threads : {1u, testThreads()}) {
        setGlobalThreadCount(threads);
        cache.clear();
        cache.resetStats();
        cache.setByteBudget(budget);
        expectEqual(cg->run(batch, inputs)[0], unbounded);
        EXPECT_LE(cache.residentBytes(), budget);
        EXPECT_GT(cache.evictions(), 0u);
        // The bootstrap touches each (key, level) pair once per run,
        // so the first bounded run builds exactly the working set; the
        // *next* run must rebuild whatever rolled out -- the re-stream
        // cost the Fig. 11b roll-off models.
        EXPECT_EQ(cache.misses(), builds);
        expectEqual(cg->run(batch, inputs)[0], unbounded);
        EXPECT_GT(cache.misses(), builds); // re-build after evict
        EXPECT_LE(cache.residentBytes(), budget);
    }
    setGlobalThreadCount(1);
    cache.setByteBudget(0);
}

// ---------------------------------------------------------------------
// Branching-DAG stage: slot-summation rotation tree
// ---------------------------------------------------------------------
TEST_F(BootstrapGraphFixture, LinearTransformTreeSumsSlots)
{
    CkksContext small(CkksParams::testSet(1 << 8, 3, 2));
    CkksEncoder encoder(small);
    KeyGenerator kg(small, 0xacc);
    CkksEncryptor encryptor(small, kg.publicKey(), 0xacd);
    CkksDecryptor decryptor(small, kg.secretKey());

    const size_t slots = encoder.slotCount();
    // All slots hold 1/slots, so the slot sum is exactly 1 everywhere.
    std::vector<double> v(slots, 1.0 / static_cast<double>(slots));
    CtVec input = {encryptor.encrypt(
        encoder.encodeReal(v, kScale, small.qCount()))};

    // log2(slots) rounds of cur += rotate(cur, 2^r): a balanced
    // summation tree, each round one single-branch DAG stage.
    std::vector<u32> ks;
    std::vector<SwitchKey> keys;
    for (size_t step = 1; step < slots; step *= 2)
        ks.push_back(encoder.rotationAutomorphism(
            static_cast<i64>(step)));
    keys.reserve(ks.size()); // stages point at the keys: no realloc
    Pipeline tree;
    for (u32 k : ks) {
        keys.push_back(kg.rotationKey(k));
        tree.linearTransform({{k, &keys.back()}});
    }

    // Sequential reference (one-shot keys) for bit-identity + log.
    setGlobalThreadCount(1);
    KernelLog seq_log;
    CkksEvaluator ev(small, &seq_log);
    Ciphertext cur = input[0];
    for (size_t r = 0; r < ks.size(); ++r)
        cur = ev.add(cur, ev.rotate(cur, ks[r], keys[r]));

    for (u32 threads : {1u, testThreads()}) {
        setGlobalThreadCount(threads);
        KernelLog log;
        BatchEvaluator batch(small, &log);
        const auto out = batch.run(input, tree);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_TRUE(out[0].c0 == cur.c0);
        EXPECT_TRUE(out[0].c1 == cur.c1);
        expectSameCalls(log.calls(), seq_log.calls(), "tree");

        // Semantics: every slot now holds the full slot sum (== 1).
        const auto decoded =
            encoder.decode(decryptor.decrypt(out[0]));
        for (size_t s = 0; s < 8; ++s)
            EXPECT_NEAR(decoded[s].real(), 1.0, 1e-2) << "slot " << s;
    }
    setGlobalThreadCount(1);

    // Schedule + costing mirror the executed kernels stage for stage.
    const auto specs = tree.pipelineOps();
    ASSERT_EQ(specs.size(), ks.size());
    for (const auto &spec : specs) {
        EXPECT_EQ(spec.op, HeOp::LinearTransform);
        EXPECT_EQ(spec.fanin, 1u);
    }
    const auto predicted =
        enumerateKernels(specs, small.params(), small.qCount() - 1);
    expectSameCalls(seq_log.calls(), predicted, "enumerator");
}

TEST_F(BootstrapGraphFixture, LinearTransformFanInMatchesSequential)
{
    CkksContext small(CkksParams::testSet(1 << 8, 3, 2));
    CkksEncoder encoder(small);
    KeyGenerator kg(small, 0xfa0);
    CkksEncryptor encryptor(small, kg.publicKey(), 0xfa1);

    CtVec input;
    for (int i = 0; i < 3; ++i) {
        std::vector<double> v(encoder.slotCount(),
                              0.25 + 0.1 * static_cast<double>(i));
        input.push_back(encryptor.encrypt(
            encoder.encodeReal(v, kScale, small.qCount())));
    }

    // One stage, three fan-in branches: out = in + rot1 + rot2 + rot3.
    const u32 k1 = encoder.rotationAutomorphism(1);
    const u32 k2 = encoder.rotationAutomorphism(2);
    const u32 k3 = encoder.rotationAutomorphism(5);
    const auto key1 = kg.rotationKey(k1);
    const auto key2 = kg.rotationKey(k2);
    const auto key3 = kg.rotationKey(k3);
    Pipeline p;
    p.linearTransform({{k1, &key1}, {k2, &key2}, {k3, &key3}});

    // The per-op reference: every branch rotates (its own ModUp) and
    // folds back in branch order.
    setGlobalThreadCount(1);
    KernelLog seq_log;
    CkksEvaluator ev(small, &seq_log);
    CtVec seq;
    for (const auto &ct : input) {
        Ciphertext acc = ct;
        acc = ev.add(acc, ev.rotate(ct, k1, key1));
        acc = ev.add(acc, ev.rotate(ct, k2, key2));
        acc = ev.add(acc, ev.rotate(ct, k3, key3));
        seq.push_back(acc);
    }

    // The stage shares one ModUp across its three branches: per item
    // its log is the enumerated fan-in, with two INTT launches (and
    // two shared-ModUp saves) fewer than the loop's.
    EXPECT_EQ(p.pipelineOps()[0].fanin, 3u);
    const auto stage = enumerateKernels(p.pipelineOps(), small.params(),
                                        small.qCount() - 1);
    for (u32 threads : {1u, testThreads()}) {
        setGlobalThreadCount(threads);
        KernelLog log;
        BatchEvaluator batch(small, &log);
        expectEqual(batch.run(input, p), seq);
        expectSameCalls(log.calls(), repeated(stage, input.size()),
                        "fanin");
        EXPECT_EQ(countKind(log.calls(), KernelKind::Intt) +
                      2 * input.size(),
                  countKind(seq_log.calls(), KernelKind::Intt));
        EXPECT_EQ(log.hoistedModUpSaves(), 2 * input.size());
    }
    setGlobalThreadCount(1);
}

// ---------------------------------------------------------------------
// Plaintext stages: fail-fast guards
// ---------------------------------------------------------------------
TEST_F(BootstrapGraphFixture, RunRejectsMismatchedPlaintextOperands)
{
    CkksEncoder encoder(ctx);
    CkksEncryptor encryptor(ctx, keygen.publicKey(), 0x9e2);
    std::vector<double> v(encoder.slotCount(), 0.3);
    CtVec input = {encryptor.encrypt(
        encoder.encodeReal(v, kScale, ctx.qCount()))};
    setGlobalThreadCount(1);
    BatchEvaluator batch(ctx);

    // Scale-mismatched addPlain operand: rejected before execution.
    const auto wrong_scale =
        encoder.encodeReal(v, kScale * 4, ctx.qCount());
    Pipeline bad_scale;
    bad_scale.addPlain(wrong_scale);
    EXPECT_THROW(batch.run(input, bad_scale), std::invalid_argument);

    // Plaintext chain shorter than the ciphertext's: level mismatch.
    const auto short_pt =
        encoder.encodeReal(v, kScale, ctx.qCount() - 2);
    Pipeline bad_level;
    bad_level.multiplyPlain(short_pt);
    EXPECT_THROW(batch.run(input, bad_level), std::invalid_argument);

    // A valid single-operand pipeline still runs.
    const auto good = encoder.encodeReal(v, kScale, ctx.qCount());
    Pipeline ok;
    ok.addPlain(good).multiplyPlain(good);
    EXPECT_NO_THROW(batch.run(input, ok));
}

// ---------------------------------------------------------------------
// Estimator consistency of the plaintext-matrix schedule
// ---------------------------------------------------------------------
TEST_F(BootstrapGraphFixture, PlainMatricesShrinkKeySwitchWork)
{
    const auto p = ctx.params();
    auto cfg = smallBootstrapConfig();
    cfg.plainMatrices = false;
    const auto ct_ops = enumerateBootstrapOps(p, cfg);
    const auto ct_kernels =
        enumerateBootstrapKernels(p, cfg, BootstrapKernelMode::PerOp);
    cfg.plainMatrices = true;
    const auto pt_ops = enumerateBootstrapOps(p, cfg);
    const auto pt_kernels =
        enumerateBootstrapKernels(p, cfg, BootstrapKernelMode::PerOp);

    // Same op count and level trajectory, different operand kinds.
    ASSERT_EQ(ct_ops.size(), pt_ops.size());
    for (size_t i = 0; i < ct_ops.size(); ++i)
        EXPECT_EQ(ct_ops[i].level, pt_ops[i].level) << "op " << i;

    // Plaintext matrices skip the relinearisation key switch, so the
    // BConv count must drop strictly.
    EXPECT_LT(countKind(pt_kernels, KernelKind::BConv),
              countKind(ct_kernels, KernelKind::BConv));
}

} // namespace
} // namespace cross::ckks
