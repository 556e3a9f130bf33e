/**
 * @file
 * Tests for batch-level operator fusion and key-switch key residency:
 * BatchEvaluator::run(Pipeline) must be bit-identical (results and
 * merged KernelLog) to looping CkksEvaluator item-by-item through the
 * stages at any thread count, while building each (key, level)
 * KeySwitchPrecomp exactly once per context -- asserted via the
 * KeySwitchCache hit/miss counters. Also covers mixed-level batches
 * picking the per-item level precomp, the pipeline schedule
 * enumerator, cache invalidation, and concurrent cache access from
 * independent application threads.
 *
 * Thread count comes from CROSS_TEST_THREADS (default 4) so the TSan
 * CI job (ctest -L fusion) exercises the residency cache's concurrent
 * reads with real concurrency.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "ckks/batch_evaluator.h"
#include "ckks/context.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keys.h"
#include "ckks/schedule.h"
#include "common/parallel.h"
#include "common/rng.h"

#include "test_util.h"

namespace cross::ckks {
namespace {

using testutil::testThreads;

class FusionFixture : public ::testing::Test
{
  protected:
    static constexpr double kScale = 1 << 26;

    FusionFixture()
        : ctx(CkksParams::testSet(1 << 9, 5, 2)), encoder(ctx),
          keygen(ctx, 0xf5), encryptor(ctx, keygen.publicKey(), 0xf6)
    {
    }

    ~FusionFixture() override { setGlobalThreadCount(1); }

    CtVec
    encryptBatch(size_t count, u64 seed)
    {
        Rng rng(seed);
        CtVec cts;
        for (size_t i = 0; i < count; ++i) {
            std::vector<Complex> v(encoder.slotCount());
            for (auto &x : v)
                x = Complex(rng.real() * 2 - 1, rng.real() * 2 - 1);
            cts.push_back(encryptor.encrypt(
                encoder.encode(v, kScale, ctx.qCount())));
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

    /** Sequential reference: item-by-item, stage-by-stage, threads=1,
     *  each key switch on a precomp built for it (no cache
     *  involvement). */
    CtVec
    sequentialPipeline(const CtVec &input, const CtVec &b,
                       const SwitchKey &rlk, u32 k,
                       const SwitchKey &rot_key, KernelLog *log)
    {
        setGlobalThreadCount(1);
        CkksEvaluator ev(ctx, log);
        CtVec out;
        out.reserve(input.size());
        for (size_t i = 0; i < input.size(); ++i) {
            const size_t limbs = std::min(input[i].limbs(), b[i].limbs());
            Ciphertext cur = ev.multiply(
                input[i], b[i], ev.precomputeKeySwitch(rlk, limbs - 1));
            cur = ev.rescale(cur);
            cur = ev.rotate(cur, k,
                            ev.precomputeKeySwitch(rot_key, cur.limbs() - 1));
            out.push_back(cur);
        }
        return out;
    }

    CkksContext ctx;
    CkksEncoder encoder;
    KeyGenerator keygen;
    CkksEncryptor encryptor;
};

// ---------------------------------------------------------------------
// Fused pipeline conformance (the acceptance criterion)
// ---------------------------------------------------------------------
TEST_F(FusionFixture, PipelineMatchesSequentialBitExactlyAtAnyThreadCount)
{
    const auto rlk = keygen.relinKey();
    const u32 k = encoder.rotationAutomorphism(1);
    const auto rot_key = keygen.rotationKey(k);
    const auto a = encryptBatch(8, 1);
    const auto b = encryptBatch(8, 2);

    KernelLog seq_log;
    const auto seq = sequentialPipeline(a, b, rlk, k, rot_key, &seq_log);

    Pipeline p;
    p.multiply(b, rlk).rescale().rotate(k, rot_key);

    auto &cache = ctx.keySwitchCache();
    cache.clear();
    cache.resetStats();

    for (u32 threads : {1u, testThreads()}) {
        setGlobalThreadCount(threads);
        KernelLog par_log;
        BatchEvaluator batch(ctx, &par_log);
        const auto fused = batch.run(a, p);
        expectEqual(fused, seq);
        expectSameLog(par_log, seq_log);
    }
    setGlobalThreadCount(1);

    // Key-switch key residency: the pipeline needs (rlk, top level) and
    // (rot_key, top level - 1); each was built exactly once for the
    // whole test -- the second thread-count run was served entirely
    // from resident entries.
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_GE(cache.hits(), 2u * (8 - 1));
}

TEST_F(FusionFixture, PipelineLogMatchesScheduleEnumerator)
{
    const auto rlk = keygen.relinKey();
    const u32 k = encoder.rotationAutomorphism(2);
    const auto rot_key = keygen.rotationKey(k);
    const size_t count = 3;
    const auto a = encryptBatch(count, 3);
    const auto b = encryptBatch(count, 4);

    Pipeline p;
    p.add(b).multiply(b, rlk).rescale().rotate(k, rot_key);

    setGlobalThreadCount(1);
    KernelLog log;
    BatchEvaluator batch(ctx, &log);
    (void)batch.run(a, p);

    // The merged log is `count` copies of the per-item pipeline
    // schedule, starting at the top level.
    const auto predicted =
        enumerateKernels(p.pipelineOps(), ctx.params(), ctx.qCount() - 1);
    ASSERT_EQ(log.calls().size(), count * predicted.size());
    for (size_t i = 0; i < count; ++i) {
        for (size_t j = 0; j < predicted.size(); ++j) {
            EXPECT_TRUE(log.calls()[i * predicted.size() + j].sameShape(
                predicted[j]))
                << "item " << i << " kernel " << j;
        }
    }
}

TEST_F(FusionFixture, MixedLevelPipelinePicksPerItemPrecomp)
{
    const auto rlk = keygen.relinKey();
    const u32 k = encoder.rotationAutomorphism(1);
    const auto rot_key = keygen.rotationKey(k);
    auto a = encryptBatch(6, 5);
    auto b = encryptBatch(6, 6);
    setGlobalThreadCount(1);
    CkksEvaluator ev(ctx);
    // Three items one level down: the pipeline spans two start levels.
    for (size_t i = 0; i < 3; ++i) {
        a[i] = ev.rescale(a[i]);
        b[i] = ev.rescale(b[i]);
    }

    const auto seq = sequentialPipeline(a, b, rlk, k, rot_key, nullptr);

    Pipeline p;
    p.multiply(b, rlk).rescale().rotate(k, rot_key);

    auto &cache = ctx.keySwitchCache();
    cache.clear();
    cache.resetStats();
    for (u32 threads : {1u, 4u}) {
        setGlobalThreadCount(threads);
        BatchEvaluator batch(ctx);
        expectEqual(batch.run(a, p), seq);
    }
    setGlobalThreadCount(1);
    // Two start levels x two keys = four distinct precomps, once each.
    EXPECT_EQ(cache.misses(), 4u);
}

// ---------------------------------------------------------------------
// Mixed-level batches through one-stage pipelines
// ---------------------------------------------------------------------
TEST_F(FusionFixture, MixedLevelBatchMultiplyMatchesSequential)
{
    const auto rlk = keygen.relinKey();
    auto a = encryptBatch(5, 7);
    auto b = encryptBatch(5, 8);
    setGlobalThreadCount(1);
    CkksEvaluator ev(ctx);
    a[1] = ev.rescale(a[1]);
    b[1] = ev.rescale(b[1]);
    a[3] = ev.rescale(ev.rescale(a[3]));
    b[3] = ev.rescale(ev.rescale(b[3]));

    CtVec seq;
    for (size_t i = 0; i < a.size(); ++i) {
        seq.push_back(ev.multiply(
            a[i], b[i], ev.precomputeKeySwitch(rlk, a[i].limbs() - 1)));
    }

    Pipeline mult;
    mult.multiply(b, rlk);
    for (u32 threads : {1u, 4u}) {
        setGlobalThreadCount(threads);
        BatchEvaluator batch(ctx);
        expectEqual(batch.run(a, mult), seq);
    }
    setGlobalThreadCount(1);
}

TEST_F(FusionFixture, MixedLevelBatchRotateMatchesSequential)
{
    const u32 k = encoder.rotationAutomorphism(3);
    const auto rot_key = keygen.rotationKey(k);
    auto a = encryptBatch(5, 9);
    setGlobalThreadCount(1);
    CkksEvaluator ev(ctx);
    a[0] = ev.rescale(a[0]);
    a[2] = ev.rescale(ev.rescale(a[2]));

    CtVec seq;
    for (size_t i = 0; i < a.size(); ++i) {
        seq.push_back(ev.rotate(
            a[i], k, ev.precomputeKeySwitch(rot_key, a[i].limbs() - 1)));
    }

    Pipeline rot;
    rot.rotate(k, rot_key);
    for (u32 threads : {1u, 4u}) {
        setGlobalThreadCount(threads);
        BatchEvaluator batch(ctx);
        expectEqual(batch.run(a, rot), seq);
    }
    setGlobalThreadCount(1);
}

// ---------------------------------------------------------------------
// Residency cache behaviour
// ---------------------------------------------------------------------
TEST_F(FusionFixture, CacheSharedAcrossBatchesAndEvaluators)
{
    const auto rlk = keygen.relinKey();
    const auto a = encryptBatch(3, 10);
    const auto b = encryptBatch(3, 11);

    auto &cache = ctx.keySwitchCache();
    cache.clear();
    cache.resetStats();

    setGlobalThreadCount(1);
    Pipeline mult;
    mult.multiply(b, rlk);
    BatchEvaluator batch1(ctx);
    BatchEvaluator batch2(ctx);
    const auto r1 = batch1.run(a, mult);
    const auto r2 = batch2.run(a, mult);
    expectEqual(r1, r2);
    // One level, one key: a single build serves both evaluators.
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_GE(cache.hits(), 1u);
}

TEST_F(FusionFixture, CacheInvalidateRebuildsIdentically)
{
    const auto rlk = keygen.relinKey();
    const auto a = encryptBatch(2, 12);
    const auto b = encryptBatch(2, 13);

    auto &cache = ctx.keySwitchCache();
    cache.clear();
    cache.resetStats();

    setGlobalThreadCount(1);
    Pipeline mult;
    mult.multiply(b, rlk);
    BatchEvaluator batch(ctx);
    const auto before = batch.run(a, mult);
    EXPECT_EQ(cache.misses(), 1u);

    cache.invalidate(&rlk);
    EXPECT_EQ(cache.size(), 0u);
    const auto after = batch.run(a, mult);
    EXPECT_EQ(cache.misses(), 2u); // rebuilt once
    expectEqual(before, after);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

TEST_F(FusionFixture, CacheDetectsAddressReuseByFingerprint)
{
    // Entries are keyed by the key's address; if a SwitchKey dies and
    // a *different* key lands at the same address, the recorded
    // content fingerprint disagrees and the entry must be rebuilt
    // instead of silently serving the dead key's operands.
    KeySwitchCache cache;
    const int dummy = 0; // stands in for a reused SwitchKey address
    KeySwitchPrecomp first;
    first.level = 7;
    KeySwitchPrecomp second;
    second.level = 9;

    const auto a = cache.get(&dummy, 0x1111, 0, [&] { return first; });
    EXPECT_EQ(a->level, 7u);
    EXPECT_EQ(cache.misses(), 1u);

    // Same address + same fingerprint: resident.
    EXPECT_EQ(cache.get(&dummy, 0x1111, 0, [&] { return second; })->level,
              7u);
    EXPECT_EQ(cache.hits(), 1u);

    // Same address, different fingerprint: rebuilt in place.
    EXPECT_EQ(cache.get(&dummy, 0x2222, 0, [&] { return second; })->level,
              9u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------
// LRU byte budget (the Fig. 11b VMEM-residency roll-off, functionally)
// ---------------------------------------------------------------------

/** Synthetic precomp of a known paramBytes (no key material). */
KeySwitchPrecomp
syntheticPrecomp(size_t level, size_t bytes)
{
    KeySwitchPrecomp pre;
    pre.level = level;
    pre.extSlots.resize(bytes / sizeof(u32));
    return pre;
}

TEST_F(FusionFixture, CacheLruEvictsOldestAndAccountsBytes)
{
    KeySwitchCache cache;
    cache.setByteBudget(900); // room for two 400-byte precomps
    const int a = 0, b = 0, c = 0; // three distinct key addresses

    (void)cache.get(&a, 1, 0, [] { return syntheticPrecomp(1, 400); });
    (void)cache.get(&b, 2, 0, [] { return syntheticPrecomp(2, 400); });
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.residentBytes(), 800u);
    EXPECT_EQ(cache.evictions(), 0u);

    // Touch a: b becomes the LRU victim when c lands.
    EXPECT_EQ(cache.get(&a, 1, 0, [] {
                          return syntheticPrecomp(9, 400);
                      })->level,
              1u);
    EXPECT_EQ(cache.hits(), 1u);

    (void)cache.get(&c, 3, 0, [] { return syntheticPrecomp(3, 400); });
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_LE(cache.residentBytes(), 900u);

    // a survived (resident hit); b was evicted and must rebuild.
    EXPECT_EQ(cache.get(&a, 1, 0, [] {
                          return syntheticPrecomp(9, 400);
                      })->level,
              1u);
    const u64 misses_before = cache.misses();
    EXPECT_EQ(cache.get(&b, 2, 0, [] {
                          return syntheticPrecomp(5, 400);
                      })->level,
              5u);
    EXPECT_EQ(cache.misses(), misses_before + 1); // re-build after evict
    EXPECT_EQ(cache.evictions(), 2u); // c was the LRU this time
}

TEST_F(FusionFixture, CacheBudgetShrinkAndOversizeEntryBehave)
{
    KeySwitchCache cache;
    const int a = 0, b = 0, c = 0;
    (void)cache.get(&a, 1, 0, [] { return syntheticPrecomp(1, 400); });
    (void)cache.get(&b, 2, 0, [] { return syntheticPrecomp(2, 400); });
    (void)cache.get(&c, 3, 0, [] { return syntheticPrecomp(3, 400); });
    EXPECT_EQ(cache.residentBytes(), 1200u);

    // Shrinking the budget evicts immediately, oldest first.
    cache.setByteBudget(500);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.evictions(), 2u);
    EXPECT_LE(cache.residentBytes(), 500u);
    // The survivor is the most recently used: c.
    EXPECT_EQ(cache.get(&c, 3, 0, [] {
                          return syntheticPrecomp(9, 400);
                      })->level,
              3u);

    // A single entry larger than the whole budget is still served
    // (never evicted while it is the only entry)...
    const int big = 0;
    const auto served = cache.get(
        &big, 4, 0, [] { return syntheticPrecomp(7, 4000); });
    EXPECT_EQ(served->level, 7u);
    EXPECT_EQ(cache.size(), 1u);
    // ...and rolls out as soon as the next entry lands.
    (void)cache.get(&a, 1, 0, [] { return syntheticPrecomp(1, 400); });
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_LE(cache.residentBytes(), 500u);

    // The rolled-out entry is no longer the cache's, but its holder
    // still reads it.
    EXPECT_EQ(served.use_count(), 1);
    EXPECT_EQ(served->level, 7u);
    EXPECT_EQ(served->paramBytes(), 4000u);
}

TEST_F(FusionFixture, EvictedPrecompsAreFreedAtOnceWhileAnotherIsHeld)
{
    // An eviction drops only the cache's reference. A precomp that no
    // reader holds is freed by the fetch that evicts it, even while
    // another precomp is held (as a running batch holds the ones it
    // fetched); the held one stays readable after its own eviction
    // and is freed when its holder lets go.
    KeySwitchCache cache;
    cache.setByteBudget(400); // room for one 400-byte precomp
    const int a = 0, b = 0, c = 0;
    KeySwitchCache::Shared held =
        cache.get(&a, 1, 0, [] { return syntheticPrecomp(1, 400); });
    const std::weak_ptr<const KeySwitchPrecomp> held_weak = held;

    // Fetch b, c, b, c, ... in turn: each fetch evicts the last one.
    std::weak_ptr<const KeySwitchPrecomp> previous;
    constexpr size_t kFetches = 6;
    for (size_t f = 0; f < kFetches; ++f) {
        const int *key = f % 2 ? &c : &b;
        const std::weak_ptr<const KeySwitchPrecomp> fetched =
            cache.get(key, f % 2 ? 3 : 2, 0,
                      [f] { return syntheticPrecomp(10 + f, 400); });
        EXPECT_EQ(fetched.use_count(), 1) << f; // only the cache's
        EXPECT_TRUE(previous.expired()) << f;   // the evicted one: freed
        previous = fetched;
        EXPECT_EQ(cache.size(), 1u);
        EXPECT_LE(cache.residentBytes(), 400u);
        // a rolled out on the first fetch; its holder still reads it.
        EXPECT_EQ(held.use_count(), 1) << f;
        EXPECT_EQ(held->level, 1u) << f;
    }
    EXPECT_EQ(cache.evictions(), kFetches);
    EXPECT_EQ(cache.misses(), kFetches + 1);
    held.reset();
    EXPECT_TRUE(held_weak.expired());
}

TEST_F(FusionFixture, CacheFingerprintGuardFiresAfterEvictedSlotReuse)
{
    // A key evicted by the LRU, then a *different* key reusing its
    // address: the re-inserted entry must carry the new fingerprint,
    // and the guard must still detect a later content change.
    KeySwitchCache cache;
    cache.setByteBudget(900);
    const int addr = 0, other = 0;

    (void)cache.get(&addr, 0xaaaa, 0,
                    [] { return syntheticPrecomp(1, 400); });
    (void)cache.get(&other, 0xbbbb, 0,
                    [] { return syntheticPrecomp(2, 400); });
    (void)cache.get(&other, 0xbbbb, 1,
                    [] { return syntheticPrecomp(3, 400); });
    EXPECT_EQ(cache.evictions(), 1u); // addr rolled out

    // addr's slot is reused by a different key (new fingerprint): the
    // rebuild serves the new contents, not a stale entry.
    EXPECT_EQ(cache.get(&addr, 0xcccc, 0, [] {
                          return syntheticPrecomp(4, 400);
                      })->level,
              4u);
    // And the in-place fingerprint guard still fires on that slot.
    EXPECT_EQ(cache.get(&addr, 0xdddd, 0, [] {
                          return syntheticPrecomp(5, 400);
                      })->level,
              5u);
}

TEST_F(FusionFixture, BoundedCacheKeepsBatchResultsBitIdentical)
{
    const auto rlk = keygen.relinKey();
    const u32 k = encoder.rotationAutomorphism(1);
    const auto rot_key = keygen.rotationKey(k);
    const auto a = encryptBatch(4, 21);
    const auto b = encryptBatch(4, 22);

    Pipeline p;
    p.multiply(b, rlk).rescale().rotate(k, rot_key);

    auto &cache = ctx.keySwitchCache();
    cache.clear();
    cache.resetStats();
    setGlobalThreadCount(1);
    BatchEvaluator batch(ctx);
    const auto unbounded = batch.run(a, p);
    const size_t working_set = cache.residentBytes();
    ASSERT_GT(working_set, 0u);

    // A budget holding only one of the two precomps forces the other
    // to rebuild every run -- bit-identically.
    cache.clear();
    cache.resetStats();
    cache.setByteBudget(working_set / 2);
    for (u32 threads : {1u, testThreads()}) {
        setGlobalThreadCount(threads);
        const auto bounded = batch.run(a, p);
        expectEqual(bounded, unbounded);
        EXPECT_LE(cache.residentBytes(), working_set / 2);
    }
    setGlobalThreadCount(1);
    EXPECT_GT(cache.evictions(), 0u);
    cache.setByteBudget(0);
}

TEST_F(FusionFixture, ConcurrentApplicationThreadsShareCacheSafely)
{
    // Two independent application threads hammer the same context's
    // residency cache (and the serialised global pool) concurrently,
    // while a third drops the cache's entries under them with clear()
    // and invalidate(); under TSan and ASan this probes the cache lock,
    // the read-only sharing of precomps and their shared ownership (a
    // run's precomps must outlive the cache's reference).
    const auto rlk = keygen.relinKey();
    const auto a = encryptBatch(4, 14);
    const auto b = encryptBatch(4, 15);

    setGlobalThreadCount(1);
    CkksEvaluator ev(ctx);
    const auto pre = ev.precomputeKeySwitch(rlk, ctx.qCount() - 1);
    CtVec seq;
    for (size_t i = 0; i < a.size(); ++i)
        seq.push_back(ev.multiply(a[i], b[i], pre));

    Pipeline mult;
    mult.multiply(b, rlk);
    setGlobalThreadCount(testThreads());
    constexpr size_t kRuns = 3;
    std::vector<std::vector<CtVec>> results(2);
    std::atomic<bool> done{false};
    std::thread dropper([&] {
        auto &cache = ctx.keySwitchCache();
        while (!done.load()) {
            cache.clear();
            cache.invalidate(&rlk);
            std::this_thread::yield();
        }
    });
    std::vector<std::thread> workers;
    for (size_t w = 0; w < results.size(); ++w) {
        workers.emplace_back([&, w] {
            BatchEvaluator batch(ctx);
            for (size_t r = 0; r < kRuns; ++r)
                results[w].push_back(batch.run(a, mult));
        });
    }
    for (auto &t : workers)
        t.join();
    done = true;
    dropper.join();
    setGlobalThreadCount(1);

    for (const auto &runs : results) {
        ASSERT_EQ(runs.size(), kRuns);
        for (const auto &r : runs)
            expectEqual(r, seq);
    }
}

// ---------------------------------------------------------------------
// Pipeline plumbing edges
// ---------------------------------------------------------------------
TEST_F(FusionFixture, EmptyPipelineAndEmptyBatchAreNoOps)
{
    const auto a = encryptBatch(2, 16);
    setGlobalThreadCount(1);
    KernelLog log;
    BatchEvaluator batch(ctx, &log);

    const Pipeline empty;
    const auto same = batch.run(a, empty);
    expectEqual(same, a);
    EXPECT_TRUE(log.calls().empty());

    const auto rlk = keygen.relinKey();
    const CtVec empty_rhs;
    Pipeline p;
    p.multiply(empty_rhs, rlk).rescale();
    EXPECT_TRUE(batch.run({}, p).empty());
    EXPECT_TRUE(log.calls().empty());
}

TEST_F(FusionFixture, PipelineRejectsBadShapes)
{
    const auto rlk = keygen.relinKey();
    const auto a = encryptBatch(3, 17);
    const auto short_rhs = encryptBatch(2, 18);
    setGlobalThreadCount(1);
    BatchEvaluator batch(ctx);

    Pipeline size_mismatch;
    size_mismatch.multiply(short_rhs, rlk);
    EXPECT_THROW(batch.run(a, size_mismatch), std::invalid_argument);

    // Draining the whole modulus chain: 5 limbs support 4 rescales.
    Pipeline too_deep;
    for (int i = 0; i < 5; ++i)
        too_deep.rescale();
    EXPECT_THROW(batch.run(a, too_deep), std::invalid_argument);

    const auto rot_key = keygen.rotationKey(3);
    Pipeline bad_idx;
    bad_idx.rotate(4, rot_key); // even: not a ring automorphism
    EXPECT_THROW(batch.run(a, bad_idx), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Precomp ownership under throwing stages (serving regressions)
// ---------------------------------------------------------------------
TEST_F(FusionFixture, ThrowingRunsReleaseTheirPrecomps)
{
    const u32 k1 = encoder.rotationAutomorphism(1);
    const u32 k2 = encoder.rotationAutomorphism(2);
    const auto key1 = keygen.rotationKey(k1);
    const auto key2 = keygen.rotationKey(k2);
    const auto a = encryptBatch(4, 31);
    const size_t top = ctx.qCount() - 1;

    Pipeline p1, p2;
    p1.rotate(k1, key1);
    p2.rotate(k2, key2);

    setGlobalThreadCount(1);
    CkksEvaluator ev(ctx);
    const auto pre1 = ev.precomputeKeySwitch(key1, top);
    CtVec want1;
    for (const auto &ct : a)
        want1.push_back(ev.rotate(ct, k1, pre1));
    CtVec off_scale = a;
    off_scale[1].scale *= 2; // item 1 cannot be added to a's
    CtVec drained = a;
    for (int i = 0; i < 4; ++i)
        drained[1] = ev.rescale(drained[1]); // down to 1 limb

    auto &cache = ctx.keySwitchCache();
    for (u32 threads : {1u, 4u}) {
        setGlobalThreadCount(threads);
        BatchEvaluator batch(ctx);
        cache.setByteBudget(0);
        cache.clear();
        cache.resetStats();
        expectEqual(batch.run(a, p1), want1);
        // Budget sized to one precomp: serving key2 evicts key1's.
        cache.setByteBudget(cache.residentBytes());
        {
            // Held the way a running batch holds its precomps.
            const auto held = ev.precomputeKeySwitchShared(key1, top);
            (void)batch.run(a, p2);
            EXPECT_EQ(held.use_count(), 1); // evicted, still ours
            EXPECT_EQ(held->level, top);

            // A failure on every item (the pipeline drains the chain
            // after its rotation fetched key2's precomp)...
            Pipeline bad;
            bad.rotate(k2, key2);
            for (int i = 0; i < 5; ++i)
                bad.rescale();
            EXPECT_THROW(batch.run(a, bad), std::invalid_argument);
            // ...and on one item of a batch (item 1's add operand is
            // at another scale; item 1 alone cannot rescale): each
            // must release what it fetched, leaving the cache the only
            // owner of key2's precomp.
            Pipeline add_off;
            add_off.rotate(k2, key2).add(off_scale);
            EXPECT_THROW(batch.run(a, add_off), std::invalid_argument);
            Pipeline rot_rescale;
            rot_rescale.rotate(k2, key2).rescale();
            try {
                (void)batch.run(drained, rot_rescale);
                ADD_FAILURE() << "a drained item was rescaled";
            } catch (const std::invalid_argument &e) {
                // The walk names it, before any item runs.
                EXPECT_NE(std::string(e.what()).find(
                              "BatchEvaluator::run: rescale"),
                          std::string::npos)
                    << e.what();
            }
            const std::weak_ptr<const KeySwitchPrecomp> pre2 =
                ev.precomputeKeySwitchShared(key2, top);
            EXPECT_EQ(pre2.use_count(), 1);
            EXPECT_EQ(held.use_count(), 1);
            EXPECT_EQ(held->level, top);
        }
        // The engine still runs bit-identically after the failures.
        expectEqual(batch.run(a, p1), want1);
    }
    setGlobalThreadCount(1);
    cache.setByteBudget(0);
    cache.clear();
}

TEST_F(FusionFixture, LinearTransformValidatesTermsBeforeAnyWork)
{
    const u32 k1 = encoder.rotationAutomorphism(1);
    const u32 k2 = encoder.rotationAutomorphism(2);
    const auto key1 = keygen.rotationKey(k1);
    const auto key2 = keygen.rotationKey(k2);
    const auto a = encryptBatch(2, 32);
    setGlobalThreadCount(1);
    BatchEvaluator batch(ctx);
    auto &cache = ctx.keySwitchCache();

    // A null branch key is rejected at the builder.
    Pipeline null_key;
    EXPECT_THROW(null_key.linearTransform({{k1, &key1}, {k2, nullptr}}),
                 std::invalid_argument);

    // Every other malformed term fails the prevalidation walk before
    // any precomp is prefetched or parallel work starts.
    const auto expectFailsUpFront = [&](const Pipeline &p,
                                        const char *what) {
        cache.clear();
        cache.resetStats();
        EXPECT_THROW(batch.run(a, p), std::invalid_argument) << what;
        EXPECT_EQ(cache.misses(), 0u) << what; // nothing prefetched
    };

    // A wrong-level branch key: digits that cannot cover the items'
    // level.
    auto bad = keygen.rotationKey(k2);
    bad.digits.resize(1);
    Pipeline wrong_level;
    wrong_level.linearTransform({{k1, &key1}, {k2, &bad}});
    expectFailsUpFront(wrong_level, "wrong-level key");

    // Weighted stages: a plaintext one limb short of the items, an
    // unweighted term among weighted ones (either way round), and a
    // term whose scale does not match the identity term's.
    const std::vector<double> w(encoder.slotCount(), 0.5);
    const auto pt = encoder.encodeReal(w, kScale, ctx.qCount());
    const auto short_pt = encoder.encodeReal(w, kScale, ctx.qCount() - 1);
    const auto other_scale =
        encoder.encodeReal(w, kScale * 4, ctx.qCount());
    Pipeline short_plain;
    short_plain.linearTransform({{k1, &key1, &pt}, {k2, &key2, &short_pt}},
                                &pt);
    expectFailsUpFront(short_plain, "short plaintext");
    Pipeline unweighted_term;
    unweighted_term.linearTransform({{k1, &key1, &pt}, {k2, &key2}}, &pt);
    expectFailsUpFront(unweighted_term, "unweighted term");
    Pipeline weighted_term;
    weighted_term.linearTransform({{k1, &key1, &pt}});
    expectFailsUpFront(weighted_term, "weighted term, unweighted stage");
    Pipeline mismatched;
    mismatched.linearTransform(
        {{k1, &key1, &pt}, {k2, &key2, &other_scale}}, &pt);
    expectFailsUpFront(mismatched, "term scales");

    // The same wrong-level key through the single-rotate stage.
    Pipeline rot;
    rot.rotate(k2, bad);
    EXPECT_THROW(batch.run(a, rot), std::invalid_argument);

    // The well-formed weighted stage runs.
    Pipeline good;
    good.linearTransform({{k1, &key1, &pt}, {k2, &key2, &pt}}, &pt);
    EXPECT_EQ(batch.run(a, good).size(), a.size());
    cache.clear();
}

} // namespace
} // namespace cross::ckks
