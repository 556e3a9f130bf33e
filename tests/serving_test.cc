/**
 * @file
 * Tests for the async serving engine (src/serving/): futures-based
 * submission of compiled models must return results bit-identical to
 * each request's sequential reference whatever batches the dispatchers
 * form (including batches of one model running concurrently); batch
 * forming must coalesce by model; inputs off the model's ledger must
 * be rejected at submit; deadline admission must read the model's
 * measured run time; the bounded queue must reject-with-error past
 * its depth; shutdown must drain; and open streams must not pin
 * retired precomp storage past the batches that read it.
 *
 * Thread count comes from CROSS_TEST_THREADS (default 4) so the
 * TSan/ASan CI shards (ctest -L serving) drive concurrent submitter
 * threads against the LRU-bounded residency cache with real
 * concurrency.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ckks/batch_evaluator.h"
#include "ckks/context.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/graph/compiler.h"
#include "ckks/keys.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "serving/drr_scheduler.h"
#include "serving/serving.h"
#include "workloads/ml_workloads.h"

#include "test_util.h"

namespace cross::serving {
namespace {

using testutil::testThreads;

using ckks::BatchEvaluator;
using ckks::Ciphertext;
using ckks::CkksEvaluator;
using ckks::CtVec;
using ckks::KeySwitchCache;
using ckks::SwitchKey;

using Model = std::unique_ptr<graph::CompiledGraph>;

class ServingFixture : public ::testing::Test
{
  protected:
    static constexpr double kScale = 1 << 26;

    ServingFixture()
        : ctx(ckks::CkksParams::testSet(1 << 9, 6, 2)), encoder(ctx),
          keygen(ctx, 0x5e), encryptor(ctx, keygen.publicKey(), 0x5f)
    {
    }

    ~ServingFixture() override
    {
        ctx.keySwitchCache().setByteBudget(0);
        setGlobalThreadCount(1);
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
            cts.push_back(encryptor.encrypt(
                encoder.encodeReal(v, kScale, ctx.qCount())));
        }
        return cts;
    }

    static void
    expectEqual(const Ciphertext &a, const Ciphertext &b)
    {
        EXPECT_TRUE(a.c0 == b.c0);
        EXPECT_TRUE(a.c1 == b.c1);
        EXPECT_DOUBLE_EQ(a.scale, b.scale);
    }

    /** The served model rotate(rescale(multiplyPlain(x, 0.5)), steps):
     *  one fused segment, one rotation key (derived by the compiler). */
    Model
    servingModel(i64 steps)
    {
        graph::Graph g;
        const auto half = graph::PlainOperand::base(
            std::vector<double>(encoder.slotCount(), 0.5));
        g.rotate(g.rescale(g.multiplyPlain(g.input(), half)), steps);
        graph::CompileOptions opts;
        opts.lowering.baseScale = kScale;
        opts.keygen = &keygen;
        return graph::compileGraph(ctx, g, opts);
    }

    /** One run of @p model on @p ct: its measured wall time arms the
     *  engine's deadline admission (fastestRunMicros). */
    void
    runOnce(const graph::CompiledGraph &model, const Ciphertext &ct)
    {
        const BatchEvaluator batch(ctx);
        (void)model.run(batch, {{ct}});
    }

    /** Sequential per-request reference: the model's runSequential on
     *  the one item, threads=1 (no cache, no batching). */
    CtVec
    sequentialReference(const graph::CompiledGraph &model,
                        const CtVec &inputs)
    {
        setGlobalThreadCount(1);
        CtVec refs;
        for (const auto &ct : inputs)
            refs.push_back(model.runSequential(nullptr, {{ct}}).at(0).at(0));
        return refs;
    }

    ckks::CkksContext ctx;
    ckks::CkksEncoder encoder;
    ckks::KeyGenerator keygen;
    ckks::CkksEncryptor encryptor;
};

// ---------------------------------------------------------------------
// Bit-identity to the sequential reference (the acceptance criterion)
// ---------------------------------------------------------------------
TEST_F(ServingFixture, SubmitsMatchSequentialAcrossStreams)
{
    const auto model = servingModel(1);
    const auto inputs = encryptBatch(12, 41);
    const auto refs = sequentialReference(*model, inputs);

    for (u32 threads : {1u, testThreads()}) {
        setGlobalThreadCount(threads);
        ServingConfig cfg;
        cfg.dispatchers = 2;
        ServingEngine engine(ctx, cfg);
        std::vector<ServingEngine::Stream> streams;
        for (int s = 0; s < 4; ++s)
            streams.push_back(engine.openStream());

        std::vector<std::future<Ciphertext>> futs;
        for (size_t i = 0; i < inputs.size(); ++i)
            futs.push_back(engine.submit(streams[i % streams.size()],
                                         *model, inputs[i]));
        for (size_t i = 0; i < futs.size(); ++i)
            expectEqual(futs[i].get(), refs[i]);

        const auto st = engine.stats();
        EXPECT_EQ(st.submitted, inputs.size());
        EXPECT_EQ(st.completed, inputs.size());
        EXPECT_EQ(st.rejected, 0u);
        EXPECT_EQ(st.failed, 0u);
        EXPECT_EQ(st.batchedRequests, inputs.size());
        engine.shutdown();
    }
}

TEST_F(ServingFixture, CompiledGraphSubmitMatchesSequentialReference)
{
    const auto rlk = keygen.relinKey();
    std::map<u32, SwitchKey> rot_keys;
    for (size_t d = 1; d < 4; ++d) {
        const u32 g = encoder.rotationAutomorphism(static_cast<i64>(d));
        rot_keys.emplace(g, keygen.rotationKey(g));
    }
    const auto layer = workloads::denseSquareLayerGraph(
        {{0.5, -0.1, 0.2, 0.0},
         {0.1, 0.3, -0.2, 0.4},
         {-0.3, 0.2, 0.1, 0.1},
         {0.2, 0.0, 0.4, -0.5}},
        {0.05, -0.05, 0.1, 0.0}, 2);
    graph::CompileOptions opts;
    opts.lowering.baseScale = kScale;
    opts.relinKey = &rlk;
    opts.rotationKeys = &rot_keys;
    const auto model = graph::compileGraph(ctx, layer, opts);
    ASSERT_EQ(model->inputCount(), 1u);
    ASSERT_EQ(model->outputCount(), 1u);

    const auto inputs = encryptBatch(6, 42);
    const auto refs = sequentialReference(*model, inputs);

    setGlobalThreadCount(testThreads());
    ServingEngine engine(ctx);
    auto stream = engine.openStream();
    std::vector<std::future<Ciphertext>> futs;
    for (const auto &ct : inputs)
        futs.push_back(engine.submit(stream, *model, ct));
    for (size_t i = 0; i < futs.size(); ++i)
        expectEqual(futs[i].get(), refs[i]);
    EXPECT_EQ(engine.stats().completed, inputs.size());
}

// ---------------------------------------------------------------------
// Batch forming
// ---------------------------------------------------------------------
TEST_F(ServingFixture, PausedEngineCoalescesQueuedRequestsIntoOneBatch)
{
    const auto model = servingModel(1);
    const auto inputs = encryptBatch(5, 43);

    setGlobalThreadCount(1);
    ServingEngine engine(ctx);
    engine.pause();
    auto stream = engine.openStream();

    std::vector<std::future<Ciphertext>> futs;
    for (const auto &ct : inputs)
        futs.push_back(engine.submit(stream, *model, ct));
    EXPECT_EQ(engine.queueDepth(), inputs.size());
    EXPECT_EQ(engine.stats().batches, 0u);

    engine.resume();
    for (auto &f : futs)
        (void)f.get();

    // Everything was waiting for the same model: one formed batch
    // serves all five requests from one residency set.
    const auto st = engine.stats();
    EXPECT_EQ(st.batches, 1u);
    EXPECT_EQ(st.batchedRequests, inputs.size());
    EXPECT_EQ(st.maxBatch, inputs.size());
}

TEST_F(ServingFixture, BatchFormingGroupsByModel)
{
    // Two models with distinct rotation keys, requests interleaved.
    const auto m1 = servingModel(1);
    const auto m2 = servingModel(2);
    const graph::CompiledGraph *models[2] = {m1.get(), m2.get()};
    auto inputs = encryptBatch(4, 44);
    CtVec refs;
    for (size_t i = 0; i < inputs.size(); ++i)
        refs.push_back(sequentialReference(*models[i % 2], {inputs[i]})[0]);

    setGlobalThreadCount(1);
    ServingEngine engine(ctx);
    engine.pause();
    auto stream = engine.openStream();

    // A request one level down would touch a different (key, level)
    // precomp than the model's ledger plans: rejected at submit, so it
    // never reaches a batch.
    const Ciphertext lower = CkksEvaluator(ctx).rescale(inputs[0]);
    EXPECT_THROW(engine.submit(stream, *m1, lower), std::invalid_argument);
    EXPECT_EQ(engine.queueDepth(), 0u);

    std::vector<std::future<Ciphertext>> futs;
    for (size_t i = 0; i < inputs.size(); ++i)
        futs.push_back(engine.submit(stream, *models[i % 2], inputs[i]));

    engine.resume();
    for (size_t i = 0; i < futs.size(); ++i)
        expectEqual(futs[i].get(), refs[i]);

    const auto st = engine.stats();
    EXPECT_EQ(st.batches, 2u);
    EXPECT_EQ(st.batchedRequests, inputs.size());
    EXPECT_EQ(st.maxBatch, 2u);
    EXPECT_EQ(st.rejected, 0u);
}

TEST_F(ServingFixture, DispatchersRunOneModelConcurrentlyBitIdentically)
{
    // One model, two dispatchers, batches of at most two: released at
    // once, the dispatchers run batches of the same model at the same
    // time (CompiledGraph::run is reentrant; there is no model lock).
    const auto model = servingModel(1);
    const auto inputs = encryptBatch(8, 57);
    const auto refs = sequentialReference(*model, inputs);

    setGlobalThreadCount(testThreads());
    ServingConfig cfg;
    cfg.dispatchers = 2;
    cfg.maxBatch = 2;
    ServingEngine engine(ctx, cfg);
    engine.pause();
    auto stream = engine.openStream();

    std::vector<std::future<Ciphertext>> futs;
    for (const auto &ct : inputs)
        futs.push_back(engine.submit(stream, *model, ct));
    EXPECT_EQ(engine.queueDepth(), inputs.size());
    engine.resume();
    for (size_t i = 0; i < futs.size(); ++i)
        expectEqual(futs[i].get(), refs[i]);

    const auto st = engine.stats();
    EXPECT_EQ(st.completed, inputs.size());
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(st.batches, inputs.size() / 2);
    EXPECT_EQ(st.maxBatch, 2u);
}

TEST_F(ServingFixture, WaitKnobHoldsBatchOpenUntilFull)
{
    const auto model = servingModel(1);
    const auto inputs = encryptBatch(4, 50);

    setGlobalThreadCount(1);
    ServingConfig cfg;
    cfg.maxBatch = 4;
    // Generous patience: the dispatcher must hold the batch open until
    // it reaches maxBatch, whatever the thread interleaving -- the
    // deadline only matters if the batch never fills.
    cfg.maxBatchWaitMicros = 60u * 1000 * 1000;
    ServingEngine engine(ctx, cfg);
    engine.pause();
    auto stream = engine.openStream();

    std::vector<std::future<Ciphertext>> futs;
    futs.push_back(engine.submit(stream, *model, inputs[0]));
    engine.resume();
    // The dispatcher now either waits on the knob (queue below
    // maxBatch) or has not yet claimed the leader slot; either way the
    // late arrivals must join the same batch, and the fourth fills it.
    for (size_t i = 1; i < inputs.size(); ++i)
        futs.push_back(engine.submit(stream, *model, inputs[i]));
    for (auto &f : futs)
        (void)f.get();

    const auto st = engine.stats();
    EXPECT_EQ(st.batches, 1u);
    EXPECT_EQ(st.batchedRequests, inputs.size());
    EXPECT_EQ(st.maxBatch, inputs.size());
}

TEST_F(ServingFixture, PauseAndShutdownCutTheBatchWaitShort)
{
    const auto model = servingModel(1);
    const auto inputs = encryptBatch(4, 51);

    setGlobalThreadCount(1);
    ServingConfig cfg;
    cfg.maxBatch = 8; // never fills: only pause/shutdown end the wait
    cfg.maxBatchWaitMicros = 60u * 1000 * 1000;
    ServingEngine engine(ctx, cfg);
    engine.pause();
    auto stream = engine.openStream();

    std::vector<std::future<Ciphertext>> futs;
    futs.push_back(engine.submit(stream, *model, inputs[0]));
    futs.push_back(engine.submit(stream, *model, inputs[1]));
    engine.resume();
    // pause() must wake a dispatcher sitting in the timed wait and
    // send it back to the gate without forming a short batch.
    engine.pause();
    futs.push_back(engine.submit(stream, *model, inputs[2]));
    futs.push_back(engine.submit(stream, *model, inputs[3]));
    engine.resume();
    // The queue (4) stays below maxBatch (8), so only the shutdown
    // drain ends the wait -- it must form one batch of everything
    // queued rather than sitting out the 60 s deadline.
    engine.shutdown();
    for (auto &f : futs)
        (void)f.get();

    const auto st = engine.stats();
    EXPECT_EQ(st.completed, inputs.size());
    EXPECT_EQ(st.batches, 1u);
    EXPECT_EQ(st.batchedRequests, inputs.size());
    EXPECT_EQ(st.maxBatch, inputs.size());
}

// ---------------------------------------------------------------------
// Backpressure + shutdown
// ---------------------------------------------------------------------
TEST_F(ServingFixture, BoundedQueueRejectsWithQueueFullError)
{
    const auto model = servingModel(1);
    const auto inputs = encryptBatch(4, 45);

    setGlobalThreadCount(1);
    ServingConfig cfg;
    cfg.maxQueueDepth = 3;
    ServingEngine engine(ctx, cfg);
    engine.pause();
    auto stream = engine.openStream();

    std::vector<std::future<Ciphertext>> futs;
    for (int i = 0; i < 3; ++i)
        futs.push_back(engine.submit(stream, *model, inputs[i]));
    // The queue is at depth: the fourth submit is rejected through its
    // future (the submitter is never blocked).
    auto rejected = engine.submit(stream, *model, inputs[3]);
    EXPECT_THROW(rejected.get(), QueueFullError);
    EXPECT_EQ(engine.queueDepth(), 3u);
    EXPECT_EQ(engine.stats().rejected, 1u);

    engine.resume();
    for (auto &f : futs)
        (void)f.get(); // the admitted requests still complete
    EXPECT_EQ(engine.stats().completed, 3u);
}

TEST_F(ServingFixture, ShutdownDrainsQueueThenRejectsNewSubmits)
{
    const auto model = servingModel(1);
    const auto inputs = encryptBatch(3, 46);
    const auto refs = sequentialReference(*model, inputs);

    setGlobalThreadCount(1);
    ServingEngine engine(ctx);
    engine.pause(); // requests queue up before shutdown
    auto stream = engine.openStream();

    std::vector<std::future<Ciphertext>> futs;
    for (const auto &ct : inputs)
        futs.push_back(engine.submit(stream, *model, ct));

    engine.shutdown(); // must run every already-queued request
    for (size_t i = 0; i < futs.size(); ++i)
        expectEqual(futs[i].get(), refs[i]);
    EXPECT_EQ(engine.stats().completed, inputs.size());

    auto late = engine.submit(stream, *model, inputs[0]);
    EXPECT_THROW(late.get(), ShutdownError);
    engine.shutdown(); // idempotent
}

// ---------------------------------------------------------------------
// Submit-time validation
// ---------------------------------------------------------------------
TEST_F(ServingFixture, SubmitRejectsMisuseAtTheCallSite)
{
    const auto model = servingModel(1);
    const auto inputs = encryptBatch(2, 47);
    const Ciphertext ref = sequentialReference(*model, {inputs[0]})[0];

    ServingEngine engine(ctx);
    auto stream = engine.openStream();

    // Requests are single ciphertexts: a model with two inputs cannot
    // be served.
    graph::Graph two_in;
    two_in.add(two_in.input(), two_in.input());
    graph::CompileOptions opts;
    opts.lowering.baseScale = kScale;
    const auto pair_model = graph::compileGraph(ctx, two_in, opts);
    EXPECT_THROW(engine.submit(stream, *pair_model, inputs[0]),
                 std::invalid_argument);

    // Inputs off the model's input ledger: empty, or at another scale.
    EXPECT_THROW(engine.submit(stream, *model, Ciphertext{}),
                 std::invalid_argument);
    Ciphertext rescaled = inputs[0];
    rescaled.scale *= 2;
    EXPECT_THROW(engine.submit(stream, *model, rescaled),
                 std::invalid_argument);
    EXPECT_EQ(engine.stats().submitted, 0u);

    // A moved-from stream can no longer submit.
    auto moved = std::move(stream);
    EXPECT_THROW(engine.submit(stream, *model, inputs[0]),
                 std::invalid_argument);
    expectEqual(engine.submit(moved, *model, inputs[0]).get(), ref);
}

// ---------------------------------------------------------------------
// Open streams pin no retired precomp storage
// ---------------------------------------------------------------------
TEST_F(ServingFixture, RetiredPrecompsAreFreedWhileStreamsStayOpen)
{
    const auto m1 = servingModel(1);
    const auto m2 = servingModel(2);
    const auto inputs = encryptBatch(2, 48);

    auto &cache = ctx.keySwitchCache();
    cache.setByteBudget(0);
    cache.clear();
    cache.resetStats();

    setGlobalThreadCount(1);
    // Budget sized to a single precomp: serving the other key evicts
    // (retires) the resident one.
    {
        const BatchEvaluator warm(ctx);
        (void)m1->run(warm, {inputs});
    }
    cache.setByteBudget(cache.residentBytes());
    cache.releaseRetired();

    ServingEngine engine(ctx);
    auto stream = engine.openStream();
    for (int round = 0; round < 2; ++round) {
        (void)engine.submit(stream, *m2, inputs[0]).get();
        (void)engine.submit(stream, *m1, inputs[1]).get();
    }
    // Every eviction retired a precomp, but each batch's own reader
    // registration ended before its future resolved: with the stream
    // still open, the cache is quiesced and the retired storage freed.
    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_EQ(cache.activeReaders(), 0u);
    EXPECT_EQ(cache.retiredBytes(), 0u);
    cache.setByteBudget(0);
}

// ---------------------------------------------------------------------
// Concurrent submitter stress against the LRU-bounded cache (the TSan
// shard's target: counters consistent, results bit-identical)
// ---------------------------------------------------------------------
TEST_F(ServingFixture, ConcurrentStreamsStressBoundedCacheBitIdentically)
{
    const auto m1 = servingModel(1);
    const auto m2 = servingModel(3);

    const size_t submitters = 4;
    const size_t per_thread = 8;
    std::vector<CtVec> inputs;
    std::vector<CtVec> refs(submitters);
    for (size_t w = 0; w < submitters; ++w) {
        inputs.push_back(encryptBatch(per_thread, 49 + w));
        for (size_t i = 0; i < per_thread; ++i)
            refs[w].push_back(sequentialReference(
                i % 2 ? *m2 : *m1, {inputs[w][i]})[0]);
    }

    auto &cache = ctx.keySwitchCache();
    cache.setByteBudget(0);
    cache.clear();
    cache.resetStats();
    {
        const BatchEvaluator warm(ctx);
        (void)m1->run(warm, {inputs[0]});
    }
    // Tight budget: the two keys' precomps keep evicting each other,
    // exercising retire/reclaim under concurrent readers.
    cache.setByteBudget(cache.residentBytes());
    cache.releaseRetired();

    setGlobalThreadCount(testThreads());
    {
        ServingConfig cfg;
        cfg.dispatchers = 2;
        ServingEngine engine(ctx, cfg);
        std::vector<std::thread> clients;
        for (size_t w = 0; w < submitters; ++w) {
            clients.emplace_back([&, w] {
                auto stream = engine.openStream();
                std::vector<std::future<Ciphertext>> futs;
                for (size_t i = 0; i < per_thread; ++i)
                    futs.push_back(engine.submit(
                        stream, i % 2 ? *m2 : *m1, inputs[w][i]));
                for (size_t i = 0; i < per_thread; ++i)
                    expectEqual(futs[i].get(), refs[w][i]);
            });
        }
        for (auto &t : clients)
            t.join();

        const auto st = engine.stats();
        EXPECT_EQ(st.submitted, submitters * per_thread);
        EXPECT_EQ(st.completed, submitters * per_thread);
        EXPECT_EQ(st.failed, 0u);
        EXPECT_EQ(st.rejected, 0u);
        EXPECT_EQ(st.batchedRequests, submitters * per_thread);
    }
    // All streams closed and the engine drained: the cache must be
    // quiesced with every retired precomp reclaimed.
    EXPECT_EQ(cache.activeReaders(), 0u);
    cache.releaseRetired();
    EXPECT_EQ(cache.retiredBytes(), 0u);
    cache.setByteBudget(0);
}

// ---------------------------------------------------------------------
// DRR scheduler policy (deterministic, no threads): weighted fairness,
// EDF ordering, batch-fill charging and deadline shedding
// ---------------------------------------------------------------------
using IntSched = DrrScheduler<int>;

// The starvation regression test of the acceptance criteria: with both
// tenants saturating their queues, the weight-1 tenant must keep
// exactly its weighted share of service -- 1/(3+1) -- no matter how
// much the weight-3 tenant pushes.
TEST(DrrSchedulerTest, LowWeightTenantKeepsWeightedShareUnderSaturation)
{
    IntSched s;
    s.setWeight(1, 3);
    s.setWeight(2, 1);
    for (int i = 0; i < 400; ++i)
        s.push(1, std::nullopt, 1000 + i);
    for (int i = 0; i < 400; ++i)
        s.push(2, std::nullopt, 2000 + i);

    size_t served1 = 0, served2 = 0;
    for (int i = 0; i < 200; ++i) {
        const auto e = s.popNext();
        ASSERT_TRUE(e.has_value());
        (e->tenant == 1 ? served1 : served2) += 1;
    }
    // 50 full DRR rounds of (3 x tenant-1, 1 x tenant-2).
    EXPECT_EQ(served1, 150u);
    EXPECT_EQ(served2, 50u);
    EXPECT_EQ(s.size(), 600u);
}

TEST(DrrSchedulerTest, EdfOrdersDeadlinesBeforeBestEffortWithinTenant)
{
    using Clock = IntSched::Clock;
    const auto now = Clock::now();
    IntSched s;
    s.push(1, std::nullopt, 100);
    s.push(1, now + std::chrono::milliseconds(3), 3);
    s.push(1, now + std::chrono::milliseconds(1), 1);
    s.push(1, std::nullopt, 101);
    s.push(1, now + std::chrono::milliseconds(2), 2);

    for (const int expect : {1, 2, 3, 100, 101}) {
        const auto e = s.popNext();
        ASSERT_TRUE(e.has_value());
        EXPECT_EQ(e->payload, expect);
    }
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.popNext().has_value());
}

TEST(DrrSchedulerTest, PopMatchingFillsAcrossTenantsLeavingNonMatches)
{
    IntSched s;
    s.push(1, std::nullopt, 2); // leader (even = shares the batch key)
    s.push(1, std::nullopt, 3); // odd: a different batch key
    s.push(2, std::nullopt, 4);
    s.push(2, std::nullopt, 6);

    const auto leader = s.popNext();
    ASSERT_TRUE(leader.has_value());
    EXPECT_EQ(leader->payload, 2);

    const auto fill = s.popMatching(
        [](const IntSched::Entry &e) { return e.payload % 2 == 0; }, 8);
    ASSERT_EQ(fill.size(), 2u);
    EXPECT_EQ(fill[0].payload, 4);
    EXPECT_EQ(fill[1].payload, 6);
    EXPECT_EQ(s.size(), 1u);

    const auto rest = s.popNext();
    ASSERT_TRUE(rest.has_value());
    EXPECT_EQ(rest->payload, 3);
    EXPECT_TRUE(s.empty());
}

TEST(DrrSchedulerTest, PopMatchingRespectsTheBatchCap)
{
    IntSched s;
    for (int i = 0; i < 6; ++i)
        s.push(1, std::nullopt, i);
    const auto taken =
        s.popMatching([](const IntSched::Entry &) { return true; }, 4);
    EXPECT_EQ(taken.size(), 4u);
    EXPECT_EQ(s.size(), 2u);
}

TEST(DrrSchedulerTest, PopExpiredShedsOnlyPastDeadlines)
{
    using Clock = IntSched::Clock;
    const auto now = Clock::now();
    IntSched s;
    s.push(1, now - std::chrono::milliseconds(1), 1); // already expired
    s.push(1, now + std::chrono::hours(1), 2);
    s.push(1, std::nullopt, 3); // best-effort is never shed

    const auto expired = s.popExpired(now);
    ASSERT_EQ(expired.size(), 1u);
    EXPECT_EQ(expired[0].payload, 1);
    EXPECT_EQ(s.size(), 2u);
    EXPECT_EQ(s.popNext()->payload, 2);
    EXPECT_EQ(s.popNext()->payload, 3);
}

TEST(DrrSchedulerTest, ZeroWeightIsRejected)
{
    IntSched s;
    EXPECT_THROW(s.setWeight(1, 0), std::invalid_argument);
    EXPECT_EQ(s.weight(1), 1u); // untouched default
}

// ---------------------------------------------------------------------
// Deadline admission control and dispatch-time shedding
// ---------------------------------------------------------------------
TEST_F(ServingFixture, InfeasibleDeadlineRejectedAtSubmitTime)
{
    const auto model = servingModel(1);
    const auto inputs = encryptBatch(2, 52);
    const Ciphertext ref = sequentialReference(*model, {inputs[1]})[0];
    // One run measures the model: no request can finish sooner.
    runOnce(*model, inputs[0]);
    const u64 fastest = model->fastestRunMicros();
    ASSERT_GT(fastest, 0u);

    ServingEngine engine(ctx);
    engine.pause();
    auto stream = engine.openStream();

    // Still ahead, but closer than the fastest run: rejection is
    // certain.
    auto rejected = engine.submit(
        stream, *model, inputs[0],
        {.deadlineUs = std::max<u64>(1, fastest / 2)});
    EXPECT_THROW(rejected.get(), DeadlineError);
    auto st = engine.stats();
    EXPECT_EQ(st.submitted, 0u);
    EXPECT_EQ(st.rejected, 1u);
    EXPECT_EQ(st.deadlineRejected, 1u);
    EXPECT_EQ(engine.tenantStats().at(0).rejected, 1u);

    // Best-effort requests carry no deadline and are never rejected by
    // admission control.
    auto ok = engine.submit(stream, *model, inputs[1]);
    EXPECT_EQ(engine.queueDepth(), 1u);
    engine.resume();
    expectEqual(ok.get(), ref);
    EXPECT_EQ(engine.stats().completed, 1u);
}

TEST_F(ServingFixture, QueuedRequestPastDeadlineIsShedAtDispatch)
{
    const auto model = servingModel(1); // never run: admission only
                                        // rejects past deadlines
    const auto inputs = encryptBatch(2, 53);

    setGlobalThreadCount(1);
    ServingEngine engine(ctx);
    engine.pause();
    auto stream = engine.openStream();

    // The deadline is far longer than the submit path, even under a
    // sanitizer, so admission accepts the request and it queues.
    auto doomed =
        engine.submit(stream, *model, inputs[0], {.deadlineUs = 20000});
    auto ok = engine.submit(stream, *model, inputs[1]);
    EXPECT_EQ(engine.queueDepth(), 2u);
    // Let the 20 ms deadline pass while the engine is paused, then
    // release the dispatcher: it must shed the expired request instead
    // of spending a batch slot on it.
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    engine.resume();

    EXPECT_THROW(doomed.get(), DeadlineError);
    (void)ok.get();
    const auto st = engine.stats();
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(st.failed, 1u);
    EXPECT_EQ(st.deadlineShed, 1u);
    EXPECT_EQ(st.batchedRequests, 1u);
    EXPECT_EQ(engine.tenantStats().at(0).shed, 1u);
    EXPECT_EQ(engine.tenantStats().at(0).failed, 1u);
}

// A deadline-rejected future still unread when the engine shuts down
// must stay readable afterwards (the shared state outlives the
// engine), also with the dispatchers parked in the batch-growing wait.
TEST_F(ServingFixture, ShutdownWithUnreadDeadlineRejectedFutureIsClean)
{
    const auto model = servingModel(1);
    const auto inputs = encryptBatch(1, 54);

    setGlobalThreadCount(1);
    runOnce(*model, inputs[0]); // arms admission
    const u64 fastest = model->fastestRunMicros();
    ASSERT_GT(fastest, 0u);
    std::future<Ciphertext> unread;
    {
        ServingConfig cfg;
        cfg.maxBatchWaitMicros = 60u * 1000 * 1000; // park dispatchers
        ServingEngine engine(ctx, cfg);
        auto stream = engine.openStream();
        unread = engine.submit(
            stream, *model, inputs[0],
            {.deadlineUs = std::max<u64>(1, fastest / 2)});
        engine.shutdown();
    } // engine destroyed with the rejected future still unread
    EXPECT_THROW(unread.get(), DeadlineError);
}

TEST_F(ServingFixture, DeadlineAdmissionReadsTheMeasuredRunTime)
{
    const auto fresh = servingModel(1);
    const auto model = servingModel(1);
    const auto inputs = encryptBatch(3, 58);
    // The sequential reference is not a measurement.
    const Ciphertext ref = sequentialReference(*model, {inputs[2]})[0];
    EXPECT_EQ(model->fastestRunMicros(), 0u);

    setGlobalThreadCount(1);
    {
        // A model that has never run has no measured bound: a 20 ms
        // deadline is admitted and queues.
        EXPECT_EQ(fresh->fastestRunMicros(), 0u);
        ServingEngine engine(ctx);
        engine.pause();
        auto stream = engine.openStream();
        auto admitted = engine.submit(stream, *fresh, inputs[0],
                                      {.deadlineUs = 20000});
        EXPECT_EQ(engine.queueDepth(), 1u);
        const auto st = engine.stats();
        EXPECT_EQ(st.submitted, 1u);
        EXPECT_EQ(st.deadlineRejected, 0u);
        // Drained at shutdown: it runs, or is shed if its deadline
        // passed first; either way the future resolves.
        engine.shutdown();
        const auto done = engine.stats();
        EXPECT_EQ(done.submitted, done.completed + done.failed);
    }

    // One run measures the model.
    runOnce(*model, inputs[0]);
    EXPECT_GT(model->fastestRunMicros(), 0u);

    ServingEngine engine(ctx);
    engine.pause();
    auto stream = engine.openStream();
    // 1 us is closer than any run: rejected at submit, nothing queued.
    auto rejected =
        engine.submit(stream, *model, inputs[1], {.deadlineUs = 1});
    EXPECT_THROW(rejected.get(), DeadlineError);
    auto st = engine.stats();
    EXPECT_EQ(st.deadlineRejected, 1u);
    EXPECT_EQ(st.submitted, 0u);
    EXPECT_EQ(engine.queueDepth(), 0u);

    // 10 s is admitted and resolves bit-identical to the reference.
    auto ok = engine.submit(stream, *model, inputs[2],
                            {.deadlineUs = 10u * 1000 * 1000});
    EXPECT_EQ(engine.queueDepth(), 1u);
    engine.resume();
    expectEqual(ok.get(), ref);
    st = engine.stats();
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(st.deadlineRejected, 1u);
}

TEST_F(ServingFixture, DeadlinesAndBatchWaitsAboveOneYearAreMisuse)
{
    const auto model = servingModel(1);
    const auto inputs = encryptBatch(1, 59);

    // Past the cap the clock arithmetic would overflow (2^62 us) or
    // wrap negative (UINT64_MAX): both fail at the call site.
    ServingEngine engine(ctx);
    engine.pause();
    auto stream = engine.openStream();
    for (const u64 us : {u64{1} << 62, u64{UINT64_MAX}, kMaxWaitMicros + 1})
        EXPECT_THROW(
            engine.submit(stream, *model, inputs[0], {.deadlineUs = us}),
            std::invalid_argument)
            << us;
    EXPECT_EQ(engine.queueDepth(), 0u);
    EXPECT_EQ(engine.stats().rejected, 0u);

    // The cap itself is a valid, effectively unbounded deadline.
    auto ok = engine.submit(stream, *model, inputs[0],
                            {.deadlineUs = kMaxWaitMicros});
    EXPECT_EQ(engine.queueDepth(), 1u);
    engine.resume();
    (void)ok.get();

    ServingConfig cfg;
    cfg.maxBatchWaitMicros = u64{1} << 62;
    EXPECT_THROW({ ServingEngine bad(ctx, cfg); }, std::invalid_argument);
}

// ---------------------------------------------------------------------
// Immediate dispatch (maxBatchWaitMicros == 0) and tenant accounting
// ---------------------------------------------------------------------
TEST_F(ServingFixture, ZeroWaitKnobDispatchesEachRequestImmediately)
{
    const auto model = servingModel(1);
    const auto inputs = encryptBatch(3, 55);

    setGlobalThreadCount(1);
    ServingEngine engine(ctx); // maxBatchWaitMicros = 0 (default)
    auto stream = engine.openStream();
    // Submitting one at a time and waiting for each leaves nothing to
    // coalesce: pure continuous batching must dispatch each request as
    // its own batch with no artificial delay.
    for (const auto &ct : inputs)
        (void)engine.submit(stream, *model, ct).get();

    const auto st = engine.stats();
    EXPECT_EQ(st.completed, inputs.size());
    EXPECT_EQ(st.batches, inputs.size());
    EXPECT_EQ(st.maxBatch, 1u);
}

TEST_F(ServingFixture, TenantStatsTrackPerTenantCounters)
{
    const auto model = servingModel(1);
    const auto inputs = encryptBatch(5, 56);

    setGlobalThreadCount(1);
    ServingEngine engine(ctx);
    EXPECT_THROW(engine.openStream({.tenant = 7, .weight = 0}),
                 std::invalid_argument);
    auto s7 = engine.openStream({.tenant = 7, .weight = 2});
    auto s9 = engine.openStream({.tenant = 9, .weight = 1});
    EXPECT_EQ(s7.tenant(), 7u);
    EXPECT_EQ(s9.tenant(), 9u);

    std::vector<std::future<Ciphertext>> futs;
    for (int i = 0; i < 3; ++i)
        futs.push_back(engine.submit(s7, *model, inputs[i]));
    for (int i = 3; i < 5; ++i)
        futs.push_back(engine.submit(s9, *model, inputs[i]));
    for (auto &f : futs)
        (void)f.get();

    const auto ts = engine.tenantStats();
    ASSERT_TRUE(ts.count(7) && ts.count(9));
    EXPECT_EQ(ts.at(7).submitted, 3u);
    EXPECT_EQ(ts.at(7).completed, 3u);
    EXPECT_EQ(ts.at(9).submitted, 2u);
    EXPECT_EQ(ts.at(9).completed, 2u);
    EXPECT_EQ(ts.at(7).rejected + ts.at(9).rejected, 0u);
}

TEST_F(ServingFixture, FailedBatchIsCountedPerTenant)
{
    // Compiled against a second context with the same params, the
    // model passes submit's ledger check but throws inside
    // CompiledGraph::run, whose evaluator is bound to the engine's
    // context: the dispatcher's execution-failure path.
    ckks::CkksContext other(ctx.params());
    ckks::KeyGenerator other_keygen(other, 0x60);
    graph::Graph g;
    g.rotate(g.input(), 1);
    graph::CompileOptions opts;
    opts.lowering.baseScale = kScale;
    opts.keygen = &other_keygen;
    const auto model = graph::compileGraph(other, g, opts);
    const auto inputs = encryptBatch(3, 57);

    setGlobalThreadCount(1);
    ServingEngine engine(ctx);
    engine.pause();
    auto s7 = engine.openStream({.tenant = 7});
    auto s9 = engine.openStream({.tenant = 9});
    std::vector<std::future<Ciphertext>> futs;
    futs.push_back(engine.submit(s7, *model, inputs[0]));
    futs.push_back(engine.submit(s7, *model, inputs[1]));
    futs.push_back(engine.submit(s9, *model, inputs[2]));
    engine.resume();
    for (auto &f : futs) {
        try {
            (void)f.get();
            ADD_FAILURE() << "a request on a foreign-context model ran";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("different context"),
                      std::string::npos)
                << e.what();
        }
    }
    engine.shutdown();

    const auto st = engine.stats();
    EXPECT_EQ(st.failed, futs.size());
    EXPECT_EQ(st.submitted, st.completed + st.failed);
    const auto ts = engine.tenantStats();
    EXPECT_EQ(ts.at(7).failed, 2u);
    EXPECT_EQ(ts.at(9).failed, 1u);
    for (const auto &[tenant, t] : ts) {
        EXPECT_EQ(t.submitted, t.completed + t.failed) << tenant;
        EXPECT_EQ(t.shed, 0u) << tenant;
    }
}

} // namespace
} // namespace cross::serving
