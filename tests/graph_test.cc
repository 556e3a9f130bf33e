/**
 * @file
 * Tests for the operator-graph IR and its compiler (src/ckks/graph/):
 * graph-compiled workloads must be bit-identical to the hand-rolled
 * operator sequences they replace, at any thread count, with merged
 * KernelLogs equal to those sequences' (or, where a matVec's rotations
 * share one ModUp, to the schedule enumerator's, d - 2 INTTs short of
 * the per-op loop); the level/scale ledger must fail fast at compile
 * time on misuse; the key working-set plan must match the residency
 * cache's observed footprint; the structural enumerator used by
 * the workload estimators must agree with the compiled schedule (the
 * no-drift guarantee); and concurrent runs of one compiled graph must
 * each match its sequential reference, leaving the fastest run's wall
 * time behind.
 *
 * Thread count comes from CROSS_TEST_THREADS (default 4) so the
 * TSan/ASan CI shards (ctest -L graph) exercise the compiled pipelines
 * with real concurrency.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <tuple>
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
#include "common/rng.h"
#include "common/timer.h"
#include "workloads/ml_workloads.h"

#include "test_util.h"

namespace cross::ckks::graph {
namespace {

using testutil::testThreads;

class GraphFixture : public ::testing::Test
{
  protected:
    static constexpr double kScale = 1 << 26;

    GraphFixture()
        : ctx(CkksParams::testSet(1 << 9, 6, 2)), encoder(ctx),
          keygen(ctx, 0x61), encryptor(ctx, keygen.publicKey(), 0x62)
    {
    }

    ~GraphFixture() override { setGlobalThreadCount(1); }

    Ciphertext
    encryptReal(const std::vector<double> &v)
    {
        return encryptor.encrypt(
            encoder.encodeReal(v, kScale, ctx.qCount()));
    }

    CtVec
    encryptBatch(size_t count, u64 seed)
    {
        Rng rng(seed);
        CtVec cts;
        for (size_t i = 0; i < count; ++i) {
            std::vector<double> v(encoder.slotCount());
            for (auto &x : v)
                x = rng.real() * 2 - 1;
            cts.push_back(encryptReal(v));
        }
        return cts;
    }

    static void
    expectEqual(const CtVec &a, const CtVec &b)
    {
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_TRUE(a[i].c0 == b[i].c0) << "item " << i;
            EXPECT_TRUE(a[i].c1 == b[i].c1) << "item " << i;
            EXPECT_DOUBLE_EQ(a[i].scale, b[i].scale) << "item " << i;
        }
    }

    static void
    expectSameLog(const KernelLog &got, const KernelLog &want)
    {
        ASSERT_EQ(got.calls().size(), want.calls().size());
        for (size_t i = 0; i < got.calls().size(); ++i) {
            EXPECT_TRUE(got.calls()[i].sameShape(want.calls()[i]))
                << "call " << i << ": got "
                << kernelKindName(got.calls()[i].kind) << "("
                << got.calls()[i].limbs << "->"
                << got.calls()[i].limbsOut << "), want "
                << kernelKindName(want.calls()[i].kind) << "("
                << want.calls()[i].limbs << "->"
                << want.calls()[i].limbsOut << ")";
        }
    }

    /** The private-inference layer weights, scaled-down fixture. */
    static std::vector<std::vector<double>>
    layerWeights()
    {
        return {
            {0.5, -0.1, 0.2, 0.0},
            {0.1, 0.3, -0.2, 0.4},
            {-0.3, 0.2, 0.1, 0.1},
            {0.2, 0.0, 0.4, -0.5},
        };
    }

    static std::vector<double>
    layerBias()
    {
        return {0.05, -0.05, 0.1, 0.0};
    }

    /** Rotation keys for steps 1..dim-1 (diagonal method). */
    std::map<u32, SwitchKey>
    layerRotationKeys(size_t dim)
    {
        std::map<u32, SwitchKey> keys;
        for (size_t d = 1; d < dim; ++d) {
            const u32 g =
                encoder.rotationAutomorphism(static_cast<i64>(d));
            keys.emplace(g, keygen.rotationKey(g));
        }
        return keys;
    }

    /** Hand-rolled y = square(Wx + b): the operator loop the example
     *  originally executed, kept verbatim as the reference. */
    Ciphertext
    handRolledLayer(const Ciphertext &ct,
                    const std::map<u32, SwitchKey> &rot_keys,
                    const SwitchKey &rlk, KernelLog *log)
    {
        setGlobalThreadCount(1);
        const CkksEvaluator ev(ctx, log);
        const auto bias = layerBias();
        Ciphertext acc = ev.rescale(handRolledMatVec(ev, ct, rot_keys));
        std::vector<double> bias_packed;
        for (int rep = 0; rep < 2; ++rep)
            bias_packed.insert(bias_packed.end(), bias.begin(),
                               bias.end());
        acc = ev.addPlain(acc, encoder.encodeReal(bias_packed, acc.scale,
                                                  acc.limbs()));
        return ev.rescale(ev.multiply(
            acc, acc, ev.precomputeKeySwitch(rlk, acc.limbs() - 1)));
    }

    /** The layer's W x by the diagonal method at replicate 2, per op:
     *  multiplyPlain + rotate (each with its own ModUp) + add. */
    Ciphertext
    handRolledMatVec(const CkksEvaluator &ev, const Ciphertext &ct,
                     const std::map<u32, SwitchKey> &rot_keys)
    {
        const auto w = layerWeights();
        const size_t dim = w.size();
        Ciphertext acc;
        for (size_t d = 0; d < dim; ++d) {
            std::vector<double> diag(dim * 2, 0.0);
            for (size_t i = 0; i < dim; ++i)
                diag[i] = w[i][(i + d) % dim];
            const auto pt =
                encoder.encodeReal(diag, kScale, ctx.qCount());
            Ciphertext term;
            if (d == 0) {
                term = ev.multiplyPlain(ct, pt);
            } else {
                const u32 g = encoder.rotationAutomorphism(
                    static_cast<i64>(d));
                term = ev.multiplyPlain(
                    ev.rotate(ct, g,
                              ev.precomputeKeySwitch(rot_keys.at(g),
                                                     ct.limbs() - 1)),
                    pt);
            }
            acc = d == 0 ? term : ev.add(acc, term);
        }
        return acc;
    }

    /** Hand-rolled HELR gradient g = 0.5 - 0.197 yz + 0.004 (yz)^3. */
    Ciphertext
    handRolledGradient(const Ciphertext &ct_z,
                       const std::vector<double> &y_slots,
                       const SwitchKey &rlk, KernelLog *log)
    {
        setGlobalThreadCount(1);
        const CkksEvaluator ev(ctx, log);
        const size_t samples = y_slots.size();
        const auto pt_y =
            encoder.encodeReal(y_slots, kScale, ctx.qCount());
        auto yz = ev.rescale(ev.multiplyPlain(ct_z, pt_y));
        auto yz2 = ev.rescale(ev.multiply(
            yz, yz, ev.precomputeKeySwitch(rlk, yz.limbs() - 1)));
        auto yz_low = ev.reduceToLimbs(yz, yz2.limbs());
        yz_low.scale = yz.scale;
        auto yz3 = ev.rescale(ev.multiply(
            yz2, yz_low, ev.precomputeKeySwitch(rlk, yz2.limbs() - 1)));

        auto lin = ev.rescale(ev.multiplyPlain(
            yz, encoder.encodeReal(std::vector<double>(samples, -0.197),
                                   kScale, yz.limbs())));
        auto cub = ev.rescale(ev.multiplyPlain(
            yz3, encoder.encodeReal(std::vector<double>(samples, 0.004),
                                    kScale, yz3.limbs())));
        lin = ev.reduceToLimbs(lin, cub.limbs());
        lin.scale = cub.scale;
        auto g = ev.add(lin, cub);
        return ev.addPlain(
            g, encoder.encodeReal(std::vector<double>(samples, 0.5),
                                  g.scale, g.limbs()));
    }

    static std::vector<double>
    dotWeights()
    {
        return {0.5, -0.1, 0.2, 0.3, 0.5, -0.1, 0.2, 0.3};
    }

    /** One matVec-style diagonal dot product: weight the input, then a
     *  slot-sum fan-in over rotations by 1, 2 and 3, then a rescale.
     *  The slotSum lowers to one unweighted LinearTransform with fanin
     *  3, the shape whose branches share one ModUp. */
    static Graph
    dotProductGraph()
    {
        Graph g;
        const auto x = g.input();
        const auto m = g.multiplyPlain(
            x, PlainOperand::base(dotWeights()), "weights");
        const auto s = g.slotSum(m, {1, 2, 3}, "dot");
        g.rescale(s);
        return g;
    }

    /** One item's KernelLog as the schedule enumerator predicts it:
     *  enumerateKernels concatenated over the lowered ops. */
    std::vector<KernelCall>
    enumeratedLog(const CompiledGraph &cg) const
    {
        std::vector<KernelCall> want;
        for (const auto &op : cg.ops()) {
            const auto calls = enumerateKernels(
                std::vector<PipelineOp>{{op.op, op.fanin, op.weighted}},
                ctx.params(), op.level);
            want.insert(want.end(), calls.begin(), calls.end());
        }
        return want;
    }

    static size_t
    inttCount(const std::vector<KernelCall> &calls)
    {
        size_t n = 0;
        for (const KernelCall &k : calls)
            n += k.kind == KernelKind::Intt;
        return n;
    }

    CompileOptions
    layerOptions(const SwitchKey &rlk,
                 const std::map<u32, SwitchKey> &rot_keys)
    {
        CompileOptions opts;
        opts.lowering.baseScale = kScale;
        opts.relinKey = &rlk;
        opts.rotationKeys = &rot_keys;
        return opts;
    }

    CkksContext ctx;
    CkksEncoder encoder;
    KeyGenerator keygen;
    CkksEncryptor encryptor;
};

// ---------------------------------------------------------------------
// Bit-identity + kernel-log equality vs the hand-rolled sequences
// ---------------------------------------------------------------------

TEST_F(GraphFixture, DenseLayerMatchesHandRolledAtAnyThreadCount)
{
    const auto rlk = keygen.relinKey();
    const auto rot_keys = layerRotationKeys(4);
    const std::vector<double> x = {0.8, -0.4, 0.6, 0.2,
                                   0.8, -0.4, 0.6, 0.2};
    const auto ct = encryptReal(x);

    KernelLog ref_log;
    const auto ref = handRolledLayer(ct, rot_keys, rlk, &ref_log);

    const auto layer = workloads::denseSquareLayerGraph(
        layerWeights(), layerBias(), 2);
    const auto compiled =
        compileGraph(ctx, layer, layerOptions(rlk, rot_keys));

    // The loop stays the results reference; the log is the
    // enumerator's, whose matVec shares one ModUp across its d - 1
    // rotations: d - 2 INTTs fewer than the loop, each a credited save.
    KernelLog want;
    for (const KernelCall &k : enumeratedLog(*compiled))
        want.add(k.kind, k.n, k.limbs, k.limbsOut);
    const size_t d = layerWeights().size();
    for (u32 threads : {1u, testThreads()}) {
        setGlobalThreadCount(threads);
        KernelLog log;
        const BatchEvaluator batch(ctx, &log);
        const auto outs = compiled->run(batch, {{ct}});
        ASSERT_EQ(outs.size(), 1u);
        expectEqual(outs[0], {ref});
        expectSameLog(log, want);
        EXPECT_EQ(log.hoistedModUpSaves(), d - 2);
        EXPECT_EQ(inttCount(log.calls()) + (d - 2),
                  inttCount(ref_log.calls()));
    }
}

TEST_F(GraphFixture, DenseLayerBatchMatchesItsSequentialReference)
{
    const auto rlk = keygen.relinKey();
    const auto rot_keys = layerRotationKeys(4);
    const auto input = encryptBatch(4, 7);

    const auto layer = workloads::denseSquareLayerGraph(
        layerWeights(), layerBias(), 2);
    const auto compiled =
        compileGraph(ctx, layer, layerOptions(rlk, rot_keys));

    // The reference builds its own precomps, cold cache or warm: one
    // that read the cache could not check run's caching.
    auto &cache = ctx.keySwitchCache();
    const auto cache_stats = [&cache] {
        return std::make_tuple(cache.hits(), cache.misses(), cache.size());
    };
    setGlobalThreadCount(1);
    KernelLog seq_log;
    const auto cold = cache_stats();
    const auto seq = compiled->runSequential(&seq_log, {input});
    EXPECT_EQ(cache_stats(), cold);

    for (u32 threads : {1u, testThreads()}) {
        setGlobalThreadCount(threads);
        KernelLog log;
        const BatchEvaluator batch(ctx, &log);
        const auto outs = compiled->run(batch, {input});
        expectEqual(outs.at(0), seq.at(0));
        expectSameLog(log, seq_log);
    }

    setGlobalThreadCount(1);
    const auto warm = cache_stats();
    EXPECT_GT(std::get<2>(warm), 0u);
    expectEqual(compiled->runSequential(nullptr, {input}).at(0), seq.at(0));
    EXPECT_EQ(cache_stats(), warm);
}

TEST_F(GraphFixture, MultiplyByALowerOperandMatchesSequential)
{
    // x * rescale(w * x): the Mult's second operand sits one level
    // below its primary, so the stage key-switches at the lower level,
    // in the run and in the sequential reference alike.
    Graph g;
    const auto x = g.input();
    const auto low =
        g.rescale(g.multiplyPlain(x, PlainOperand::base(dotWeights())));
    g.multiply(x, low);
    const auto rlk = keygen.relinKey();
    CompileOptions opts;
    opts.lowering.baseScale = kScale;
    opts.relinKey = &rlk;
    const auto compiled = compileGraph(ctx, g, opts);
    ASSERT_EQ(compiled->ops().back().op, HeOp::Mult);
    EXPECT_EQ(compiled->ops().back().level, ctx.qCount() - 2);

    const auto input = encryptBatch(2, 17);
    setGlobalThreadCount(1);
    KernelLog seq_log;
    const auto seq = compiled->runSequential(&seq_log, {input});
    for (u32 threads : {1u, testThreads()}) {
        setGlobalThreadCount(threads);
        KernelLog log;
        const BatchEvaluator batch(ctx, &log);
        expectEqual(compiled->run(batch, {input}).at(0), seq.at(0));
        expectSameLog(log, seq_log);
    }
}

TEST_F(GraphFixture, HelrGradientMatchesHandRolled)
{
    const auto rlk = keygen.relinKey();
    const std::vector<double> y = {1, -1, 1, 1, -1, 1, -1, -1};
    std::vector<double> z(y.size());
    for (size_t i = 0; i < z.size(); ++i)
        z[i] = 0.1 * static_cast<double>(i) - 0.3;
    const auto ct_z = encryptReal(z);

    KernelLog ref_log;
    const auto ref = handRolledGradient(ct_z, y, rlk, &ref_log);

    const auto g = workloads::helrGradientGraph(y);
    CompileOptions opts;
    opts.lowering.baseScale = kScale;
    opts.relinKey = &rlk;
    const auto compiled = compileGraph(ctx, g, opts);

    for (u32 threads : {1u, testThreads()}) {
        setGlobalThreadCount(threads);
        KernelLog log;
        const BatchEvaluator batch(ctx, &log);
        const auto outs = compiled->run(batch, {{ct_z}});
        expectEqual(outs.at(0), {ref});
        expectSameLog(log, ref_log);
    }
}

// ---------------------------------------------------------------------
// Ledger fail-fast
// ---------------------------------------------------------------------

TEST_F(GraphFixture, LedgerRejectsAddScaleMismatch)
{
    // rescale(x) has scale base/q != base: adding it to x must fail at
    // compile time, not at run time.
    Graph g;
    const auto x = g.input();
    const auto r = g.rescale(x);
    g.add(r, x);
    CompileOptions opts;
    opts.lowering.baseScale = kScale;
    EXPECT_THROW((void)compileGraph(ctx, g, opts),
                 std::invalid_argument);
}

TEST_F(GraphFixture, LedgerRejectsAddPlainScaleMismatch)
{
    Graph g;
    const auto x = g.input();
    g.addPlain(x, PlainOperand::at({1.0}, kScale * 4));
    CompileOptions opts;
    opts.lowering.baseScale = kScale;
    EXPECT_THROW((void)compileGraph(ctx, g, opts),
                 std::invalid_argument);
}

TEST_F(GraphFixture, LedgerRejectsRescalePastTheChain)
{
    Graph g;
    auto cur = g.input();
    for (size_t i = 0; i < ctx.qCount(); ++i)
        cur = g.rescale(cur);
    CompileOptions opts;
    opts.lowering.baseScale = kScale;
    EXPECT_THROW((void)compileGraph(ctx, g, opts),
                 std::invalid_argument);
}

TEST_F(GraphFixture, MatVecRejectsUnreplicatedBlockBelowTheSlotCount)
{
    // At N = 2^9 a d = 4 block is far below the 256 slots: without a
    // replicated copy rotate(x, d) does not wrap within the block and
    // the product comes out silently wrong, so the compile fails and
    // names the node.
    const auto rlk = keygen.relinKey();
    const auto rot_keys = layerRotationKeys(4);
    Graph g;
    g.matVec(g.input(), layerWeights(), 1, "layer1");
    try {
        (void)compileGraph(ctx, g, layerOptions(rlk, rot_keys));
        FAIL() << "matVec with replicate = 1 below the slot count must "
                  "throw";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("replicate"), std::string::npos) << what;
        EXPECT_NE(what.find("node #1 (LinearTransform, layer1)"),
                  std::string::npos)
            << what;
    }

    // A block that spans every slot wraps by itself (structural walk at
    // a four-slot ring), and replicate = 2 compiles at this ring.
    LoweringOptions lopts;
    lopts.baseScale = kScale;
    CkksParams four_slots = ctx.params();
    four_slots.n = 8;
    EXPECT_NO_THROW((void)enumerateGraphOps(g, four_slots, lopts));
    Graph replicated;
    replicated.matVec(replicated.input(), layerWeights(), 2, "layer1");
    EXPECT_NO_THROW((void)compileGraph(ctx, replicated,
                                       layerOptions(rlk, rot_keys)));
}

TEST_F(GraphFixture, CompileRejectsMissingKeys)
{
    const auto rlk = keygen.relinKey();
    // A rotation the caller's key map lacks fails the compile...
    Graph g;
    g.rotate(g.input(), 1);
    const std::map<u32, SwitchKey> empty;
    CompileOptions opts;
    opts.lowering.baseScale = kScale;
    opts.rotationKeys = &empty;
    try {
        (void)compileGraph(ctx, g, opts);
        FAIL() << "missing rotation key must throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("rotation key"),
                  std::string::npos);
    }

    // ...and a ct-ct multiply without a relin key or generator too.
    Graph m;
    const auto x = m.input();
    m.multiply(x, x);
    CompileOptions mopts;
    mopts.lowering.baseScale = kScale;
    EXPECT_THROW((void)compileGraph(ctx, m, mopts),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Key working-set planning vs the residency cache
// ---------------------------------------------------------------------

TEST_F(GraphFixture, KeyWorkingSetPlanMatchesObservedResidency)
{
    const auto rlk = keygen.relinKey();
    const auto rot_keys = layerRotationKeys(4);
    const auto layer = workloads::denseSquareLayerGraph(
        layerWeights(), layerBias(), 2);
    const auto compiled =
        compileGraph(ctx, layer, layerOptions(rlk, rot_keys));

    // Dense layer: 3 rotations at the top level + relin one rescale
    // down.
    const auto &plan = compiled->keyPlan();
    ASSERT_EQ(plan.entries.size(), 4u);
    EXPECT_EQ(plan.budgetBytes, 0u);
    EXPECT_TRUE(plan.fitsResidency);

    auto &cache = ctx.keySwitchCache();
    cache.clear();
    cache.resetStats();
    const BatchEvaluator batch(ctx);
    (void)compiled->run(batch, {encryptBatch(2, 5)});

    // The planned byte total is exactly what the cache now holds
    // resident, and the planned entry count is what it built.
    EXPECT_EQ(cache.size(), plan.entries.size());
    EXPECT_EQ(cache.residentBytes(), plan.totalBytes);
    EXPECT_EQ(cache.misses(), plan.entries.size());
}

// ---------------------------------------------------------------------
// Estimator conformance (the no-drift guarantee)
// ---------------------------------------------------------------------

TEST_F(GraphFixture, StructuralEnumerationMatchesCompiledSchedule)
{
    const auto rlk = keygen.relinKey();
    auto rot_keys = layerRotationKeys(4);
    const u32 g_rep = encoder.rotationAutomorphism(-4);
    rot_keys.emplace(g_rep, keygen.rotationKey(g_rep));

    // The two-layer MLP shape the Set-B benchmark serves: each d = 4
    // matVec shares one ModUp across its 3 rotations (2 saves), and its
    // slotSum({-4}) has a single branch, so it saves nothing; the
    // square's two uses of one value split it into 2 segments.
    const auto w = layerWeights();
    Graph mlp;
    const auto h = mlp.rescale(mlp.matVec(mlp.input(), w, 2));
    const auto sq = mlp.rescale(mlp.multiply(h, h));
    mlp.rescale(mlp.matVec(mlp.slotSum(sq, {-4}), w, 2));

    const struct
    {
        const char *name;
        Graph graph;
        u64 saves;       ///< shared-ModUp saves of one item
        size_t segments; ///< fused segments
    } cases[] = {
        {"dense layer",
         workloads::denseSquareLayerGraph(layerWeights(), layerBias(), 2),
         2, 2},
        {"mlp", mlp, 4, 2},
        {"fanin-3 dot product", dotProductGraph(), 2, 1},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        const auto compiled =
            compileGraph(ctx, c.graph, layerOptions(rlk, rot_keys));

        LoweringOptions lopts;
        lopts.baseScale = kScale;
        const auto structural =
            enumerateGraphOps(c.graph, ctx.params(), lopts);
        ASSERT_EQ(structural.size(), compiled->ops().size());
        for (size_t i = 0; i < structural.size(); ++i) {
            EXPECT_EQ(structural[i].op, compiled->ops()[i].op) << i;
            EXPECT_EQ(structural[i].level, compiled->ops()[i].level) << i;
            EXPECT_EQ(structural[i].fanin, compiled->ops()[i].fanin) << i;
            EXPECT_EQ(structural[i].weighted, compiled->ops()[i].weighted)
                << i;
        }
        EXPECT_EQ(compiled->segmentCount(), c.segments);

        // Concatenating the kernel enumerator over the lowered ops
        // predicts the compiled run's KernelLog exactly.
        const std::vector<KernelCall> want = enumeratedLog(*compiled);
        setGlobalThreadCount(1);
        KernelLog log;
        const BatchEvaluator batch(ctx, &log);
        (void)compiled->run(batch, {encryptBatch(1, 11)});
        ASSERT_EQ(log.calls().size(), want.size());
        for (size_t i = 0; i < want.size(); ++i)
            EXPECT_TRUE(log.calls()[i].sameShape(want[i]))
                << "call " << i;
        EXPECT_EQ(log.hoistedModUpSaves(), c.saves);
    }
}

TEST_F(GraphFixture, WorkloadEstimatorsDeriveFromTheGraphs)
{
    // helrIteration()/mnistInference() are now thin wrappers over the
    // graph lowering; deriving explicitly must give the same schedule.
    const auto helr =
        workloads::workloadFromGraph(workloads::helrIterationGraph());
    const auto direct = workloads::helrIteration();
    ASSERT_EQ(helr.ops.size(), direct.ops.size());
    for (size_t i = 0; i < helr.ops.size(); ++i) {
        EXPECT_EQ(helr.ops[i].op, direct.ops[i].op) << i;
        EXPECT_EQ(helr.ops[i].level, direct.ops[i].level) << i;
        EXPECT_EQ(helr.ops[i].count, direct.ops[i].count) << i;
    }
    // Both paper workloads lower without level violations and keep
    // their packing bookkeeping.
    EXPECT_EQ(direct.itemsPerRun, 1024u);
    EXPECT_EQ(workloads::mnistInference().itemsPerRun, 64u);
}

// ---------------------------------------------------------------------
// A run that evicts its own precomps (1-byte residency budget)
// ---------------------------------------------------------------------

TEST_F(GraphFixture, EvictingRunMatchesSequential)
{
    // A context whose key-cache budget forces evictions mid-pipeline:
    // every precomp the run fetches evicts the last one, and the run's
    // own owners keep the evicted ones valid until it returns.
    CkksContext small(CkksParams::testSet(1 << 9, 6, 2));
    auto &cache = small.keySwitchCache();
    cache.setByteBudget(1); // every new precomp evicts the last
    CkksEncoder enc(small);
    KeyGenerator kg(small, 0x63);
    CkksEncryptor encryptor2(small, kg.publicKey(), 0x64);

    const auto rlk = kg.relinKey();
    std::map<u32, SwitchKey> rot_keys;
    for (size_t d = 1; d < 4; ++d) {
        const u32 g = enc.rotationAutomorphism(static_cast<i64>(d));
        rot_keys.emplace(g, kg.rotationKey(g));
    }

    const auto layer = workloads::denseSquareLayerGraph(
        layerWeights(), layerBias(), 2);
    CompileOptions opts;
    opts.lowering.baseScale = kScale;
    opts.relinKey = &rlk;
    opts.rotationKeys = &rot_keys;
    // The working set cannot stay resident under a 1-byte budget, and
    // the compiler says so up front.
    const auto small_compiled = compileGraph(small, layer, opts);
    EXPECT_FALSE(small_compiled->keyPlan().fitsResidency);

    std::vector<double> v(enc.slotCount(), 0.25);
    const auto ct = encryptor2.encrypt(
        enc.encodeReal(v, kScale, small.qCount()));

    const auto want = small_compiled->runSequential(nullptr, {{ct}});
    const BatchEvaluator batch(small);
    for (u32 threads : {1u, testThreads()}) {
        setGlobalThreadCount(threads);
        cache.clear();
        cache.resetStats();
        const auto got = small_compiled->run(batch, {{ct, ct}});
        EXPECT_GT(cache.evictions(), 0u);
        EXPECT_EQ(cache.size(), 1u);
        ASSERT_EQ(got.size(), want.size());
        for (size_t o = 0; o < got.size(); ++o)
            expectEqual(got[o], {want[o][0], want[o][0]});
    }
}

// ---------------------------------------------------------------------
// Reentrancy: concurrent runs of one compiled graph
// ---------------------------------------------------------------------

TEST_F(GraphFixture, ConcurrentRunsOfOneGraphMatchSequential)
{
    const auto rlk = keygen.relinKey();
    const auto rot_keys = layerRotationKeys(4);
    const auto layer = workloads::denseSquareLayerGraph(
        layerWeights(), layerBias(), 2);
    const auto compiled =
        compileGraph(ctx, layer, layerOptions(rlk, rot_keys));

    // Each application thread runs the shared graph on its own inputs,
    // with its own evaluator and log (a logging evaluator must not be
    // shared between concurrent runs).
    const size_t callers = std::max<size_t>(2, testThreads());
    std::vector<std::vector<CtVec>> inputs(callers);
    std::vector<std::vector<CtVec>> want(callers);
    std::vector<KernelLog> want_logs(callers);
    setGlobalThreadCount(1);
    for (size_t t = 0; t < callers; ++t) {
        inputs[t] = {encryptBatch(2, 100 + t)};
        want[t] = compiled->runSequential(&want_logs[t], inputs[t]);
    }
    // Reference runs are not measurements.
    EXPECT_EQ(compiled->fastestRunMicros(), 0u);

    setGlobalThreadCount(testThreads());
    std::vector<std::vector<CtVec>> got(callers);
    std::vector<KernelLog> logs(callers);
    std::vector<u64> wall_us(callers);
    std::atomic<size_t> ready{0};
    std::vector<std::thread> workers;
    for (size_t t = 0; t < callers; ++t) {
        workers.emplace_back([&, t] {
            const BatchEvaluator batch(ctx, &logs[t]);
            // Start together so the runs overlap step by step.
            ++ready;
            while (ready.load() < callers)
                std::this_thread::yield();
            const WallTimer timer;
            got[t] = compiled->run(batch, inputs[t]);
            wall_us[t] = static_cast<u64>(timer.micros());
        });
    }
    for (auto &w : workers)
        w.join();
    setGlobalThreadCount(1);

    // The racing runs keep the fastest: measured inside run(), so no
    // longer than the shortest time any caller saw around its own.
    EXPECT_GT(compiled->fastestRunMicros(), 0u);
    EXPECT_LE(compiled->fastestRunMicros(),
              *std::min_element(wall_us.begin(), wall_us.end()));
    for (size_t t = 0; t < callers; ++t) {
        ASSERT_EQ(got[t].size(), 1u) << "caller " << t;
        expectEqual(got[t][0], want[t].at(0));
        expectSameLog(logs[t], want_logs[t]);
    }
}

// ---------------------------------------------------------------------
// Fan-in: a slotSum shares one ModUp across its branches (Halevi-Shoup)
// ---------------------------------------------------------------------

TEST_F(GraphFixture, EveryScheduleSharesOneModUpPerFanIn)
{
    const auto rlk = keygen.relinKey();
    const auto rot_keys = layerRotationKeys(4);
    const auto fused =
        compileGraph(ctx, dotProductGraph(), layerOptions(rlk, rot_keys));

    // The ledger walk records the fan-in once.
    size_t fan_ins = 0;
    for (const auto &op : fused->ops())
        if (op.op == HeOp::LinearTransform) {
            EXPECT_EQ(op.fanin, 3u);
            ++fan_ins;
        }
    EXPECT_EQ(fan_ins, 1u);

    // The per-op reference: every branch rotates with its own ModUp
    // and folds back in branch order.
    const auto input = encryptBatch(3, 13);
    setGlobalThreadCount(1);
    KernelLog ref_log;
    const CkksEvaluator ev(ctx, &ref_log);
    const auto pt = encoder.encodeReal(dotWeights(), kScale, ctx.qCount());
    std::map<u32, KeySwitchPrecomp> pre;
    for (const auto &[a, key] : rot_keys)
        pre.emplace(a, ev.precomputeKeySwitch(key, ctx.qCount() - 1));
    CtVec want;
    for (const auto &ct : input) {
        const auto m = ev.multiplyPlain(ct, pt);
        Ciphertext acc = m;
        for (i64 step : {1, 2, 3}) {
            const u32 a = encoder.rotationAutomorphism(step);
            acc = ev.add(acc, ev.rotate(m, a, pre.at(a)));
        }
        want.push_back(ev.rescale(acc));
    }

    // The fused run is bit-identical to it at any thread count, and
    // its one LinearTransform of fanin 3 launches 2 ModUps (INTTs) fewer
    // per batch item, each credited as a shared-ModUp save.
    for (u32 threads : {1u, testThreads()}) {
        setGlobalThreadCount(threads);
        KernelLog log;
        const BatchEvaluator batch(ctx, &log);
        const auto outs = fused->run(batch, {input});
        expectEqual(outs.at(0), want);
        EXPECT_EQ(log.hoistedModUpSaves(), 2 * input.size());
        EXPECT_EQ(inttCount(log.calls()) + 2 * input.size(),
                  inttCount(ref_log.calls()));
    }
}

} // namespace
} // namespace cross::ckks::graph
