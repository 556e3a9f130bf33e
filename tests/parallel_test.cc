/**
 * @file
 * Tests for the parallel execution layer: parallelFor's static split,
 * the workers it shares among application threads (a caller never
 * waits for another caller's job), inline nested calls, exceptions
 * kept to their own job and refused resizes; kernel results that do
 * not depend on the pool size; and the BatchEvaluator's conformance
 * contract -- batched parallel results and the merged KernelLog must
 * be bit-identical to a sequential run, and no batch waits for another
 * caller's job.
 *
 * Thread count comes from CROSS_TEST_THREADS (default 4) so the TSan
 * CI job can run this suite with real concurrency: every assertion
 * here doubles as a data-race probe under -fsanitize=thread.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <future>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ckks/batch_evaluator.h"
#include "ckks/context.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keys.h"
#include "ckks/schedule.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "nt/primes.h"
#include "poly/limb_pool.h"
#include "poly/ring.h"
#include "rns/bconv.h"

#include "test_util.h"

namespace cross {
namespace {

using testutil::testThreads;

/** Scoped thread-count override; restores 1 thread on exit. */
struct ThreadGuard
{
    explicit ThreadGuard(u32 n) { setGlobalThreadCount(n); }
    ~ThreadGuard() { setGlobalThreadCount(1); }
};

/** Spin until @p ready() holds or 5 s pass; false on the timeout, so a
 *  regression fails instead of hanging. */
template <class Ready>
bool
spinUntil(Ready ready)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!ready()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

// ---------------------------------------------------------------------
// parallelFor
// ---------------------------------------------------------------------
TEST(ParallelFor, CoversRangeExactlyOnce)
{
    ThreadGuard guard(testThreads());
    std::vector<std::atomic<int>> hits(1000);
    for (auto &h : hits)
        h = 0;
    parallelFor(0, hits.size(), [&](size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesExceptions)
{
    const u32 threads = std::max(2u, testThreads());
    ThreadGuard guard(threads);
    const size_t range = static_cast<size_t>(threads) * 3;
    // The last item belongs to the last part, which a worker runs.
    EXPECT_THROW(parallelFor(0, range,
                             [&](size_t i) {
                                 if (i == range - 1)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    // The pool survives a failed job.
    std::vector<std::atomic<int>> hits(range);
    for (auto &h : hits)
        h = 0;
    parallelFor(0, range, [&](size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EachPartIsContiguousOnOneThread)
{
    const u32 threads = std::max(2u, testThreads());
    ThreadGuard guard(threads);
    std::vector<std::thread::id> owner(257);
    std::vector<int> hits(owner.size(), 0);
    parallelFor(0, owner.size(), [&](size_t i) {
        owner[i] = std::this_thread::get_id();
        ++hits[i];
    });
    // Part p of min(threads, n) covers [p*n/parts, (p+1)*n/parts) on
    // one thread and the caller runs part 0. A thread may run several
    // parts: the caller runs every part no worker claimed before its
    // own part ended, which these trivial bodies usually allow.
    const size_t n = owner.size();
    const size_t parts = std::min<size_t>(threads, n);
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1),
              static_cast<std::ptrdiff_t>(n));
    EXPECT_EQ(owner[0], std::this_thread::get_id());
    for (size_t p = 0; p < parts; ++p) {
        const size_t lo = n * p / parts;
        const size_t hi = n * (p + 1) / parts;
        for (size_t i = lo; i < hi; ++i)
            EXPECT_EQ(owner[i], owner[lo]) << "item " << i;
    }
}

TEST(ParallelFor, OverlappingPartsRunOnDistinctThreads)
{
    // Every part waits until all have started, so the caller, busy in
    // part 0, can take none of the others: workers run them.
    const u32 threads = std::max(2u, testThreads());
    ThreadGuard guard(threads);
    std::atomic<u32> started{0};
    std::vector<std::thread::id> owner(threads);
    parallelFor(0, threads, [&](size_t i) {
        owner[i] = std::this_thread::get_id();
        ++started;
        spinUntil([&] { return started.load() == threads; });
    });
    EXPECT_EQ(owner[0], std::this_thread::get_id());
    std::sort(owner.begin(), owner.end());
    EXPECT_EQ(std::unique(owner.begin(), owner.end()) - owner.begin(),
              static_cast<std::ptrdiff_t>(threads));
}

TEST(ParallelFor, ConcurrentCallersEachCoverTheirRange)
{
    // Four application threads, more callers than workers at up to
    // four threads: each call runs whole, every item of its own range
    // exactly once, no deadlock.
    ThreadGuard guard(std::max(2u, testThreads()));
    constexpr int kCalls = 300;
    constexpr size_t kRange = 37;
    std::atomic<int> bad{0};
    const auto caller = [&] {
        std::vector<int> hits(kRange);
        for (int c = 0; c < kCalls; ++c) {
            std::fill(hits.begin(), hits.end(), 0);
            parallelFor(0, kRange, [&](size_t i) { ++hits[i]; });
            if (std::count(hits.begin(), hits.end(), 1) !=
                static_cast<std::ptrdiff_t>(kRange))
                ++bad;
        }
    };
    std::vector<std::thread> callers;
    for (int t = 0; t < 4; ++t)
        callers.emplace_back(caller);
    for (auto &t : callers)
        t.join();
    EXPECT_EQ(bad.load(), 0);
}

TEST(ParallelFor, ACallerNeverWaitsForAnotherCallersJob)
{
    // One caller's job holds every thread of the pool. A second
    // caller's job must still run, all of it on that caller's thread,
    // instead of waiting for the first.
    const u32 threads = std::max(2u, testThreads());
    ThreadGuard guard(threads);
    std::atomic<u32> started{0};
    std::atomic<bool> release{false};
    std::thread holder([&] {
        parallelFor(0, threads, [&](size_t) {
            ++started;
            while (!release.load())
                std::this_thread::yield();
        });
    });
    const bool held = spinUntil([&] { return started.load() == threads; });

    const size_t range = 3 * static_cast<size_t>(threads);
    std::vector<int> hits(range, 0);
    std::vector<std::thread::id> owner(range);
    std::promise<std::thread::id> done;
    auto caller_id = done.get_future();
    std::thread caller([&] {
        parallelFor(0, range, [&](size_t i) {
            ++hits[i];
            owner[i] = std::this_thread::get_id();
        });
        done.set_value(std::this_thread::get_id());
    });
    const bool finished =
        caller_id.wait_for(std::chrono::seconds(5)) ==
        std::future_status::ready;
    // Release the holder either way, so a regression fails instead of
    // hanging.
    release.store(true);
    holder.join();
    caller.join();

    ASSERT_TRUE(held) << "the holder's parts did not all start";
    EXPECT_TRUE(finished)
        << "the second caller's job waited for the first caller's";
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1),
              static_cast<std::ptrdiff_t>(range));
    EXPECT_EQ(std::count(owner.begin(), owner.end(), caller_id.get()),
              static_cast<std::ptrdiff_t>(range))
        << "items of the second job ran on other threads";
}

TEST(ParallelFor, AWorkerErrorReachesOnlyItsOwnJobsCaller)
{
    // Jobs A and B overlap. A's last part throws on a worker (A's
    // caller is held in part 0 until that part starts) while B's first
    // item waits for the throw: A's caller gets the error, and B
    // completes without it.
    const u32 threads = std::max(2u, testThreads());
    ThreadGuard guard(threads);
    const size_t a_range = threads;
    const size_t b_range = 3 * static_cast<size_t>(threads);
    std::atomic<bool> thrower_started{false};
    std::atomic<bool> b_started{false};
    std::atomic<bool> a_threw{false};
    std::thread::id thrower;
    bool overlapped = false;
    std::string a_error;
    std::thread a([&] {
        try {
            parallelFor(0, a_range, [&](size_t i) {
                if (i == 0)
                    spinUntil([&] { return thrower_started.load(); });
                if (i != a_range - 1)
                    return;
                thrower = std::this_thread::get_id();
                thrower_started.store(true);
                overlapped = spinUntil([&] { return b_started.load(); });
                a_threw.store(true);
                throw std::runtime_error("job A");
            });
        } catch (const std::runtime_error &e) {
            a_error = e.what();
        }
    });
    const std::thread::id a_id = a.get_id();

    std::vector<int> b_hits(b_range, 0);
    std::exception_ptr b_error;
    std::thread b([&] {
        spinUntil([&] { return thrower_started.load(); });
        try {
            parallelFor(0, b_range, [&](size_t i) {
                b_started.store(true);
                if (i == 0)
                    spinUntil([&] { return a_threw.load(); });
                ++b_hits[i];
            });
        } catch (...) {
            b_error = std::current_exception();
        }
    });
    a.join();
    b.join();

    EXPECT_TRUE(overlapped) << "job B did not start while job A ran";
    EXPECT_NE(thrower, a_id) << "A's throwing part ran on its caller";
    EXPECT_EQ(a_error, "job A");
    EXPECT_FALSE(b_error) << "job A's error reached job B's caller";
    for (size_t i = 0; i < b_range; ++i)
        EXPECT_EQ(b_hits[i], 1) << "item " << i;
}

TEST(ParallelFor, NestedCallsExecuteInline)
{
    ThreadGuard guard(testThreads());
    std::atomic<u64> total{0};
    parallelFor(0, 8, [&](size_t) {
        EXPECT_TRUE(globalThreadCount() == 1 || inParallelRegion());
        // Nested parallelFor must not deadlock or double-run.
        u64 local = 0;
        parallelFor(0, 10, [&](size_t j) { local += j; });
        total += local;
    });
    EXPECT_EQ(total.load(), 8u * 45u);
}

TEST(ParallelFor, EmptyAndSingleRanges)
{
    ThreadGuard guard(testThreads());
    int hits = 0;
    parallelFor(5, 5, [&](size_t) { ++hits; });
    EXPECT_EQ(hits, 0);
    parallelFor(7, 8, [&](size_t i) {
        EXPECT_EQ(i, 7u);
        ++hits;
    });
    EXPECT_EQ(hits, 1);
}

TEST(GlobalThreadCount, RoundTrips)
{
    setGlobalThreadCount(3);
    EXPECT_EQ(globalThreadCount(), 3u);
    setGlobalThreadCount(0); // clamped
    EXPECT_EQ(globalThreadCount(), 1u);
    setGlobalThreadCount(1);
}

TEST(GlobalThreadCount, RejectsResizeInsideParallelRegion)
{
    // Resizing from inside a parallelFor body would destroy the pool
    // the body is running on; it must throw instead of corrupting it.
    const u32 threads = std::max(2u, testThreads());
    setGlobalThreadCount(threads);
    const size_t range = static_cast<size_t>(threads) * 4;
    std::atomic<size_t> throws{0};
    parallelFor(0, range, [&](size_t) {
        try {
            setGlobalThreadCount(2);
        } catch (const std::logic_error &) {
            ++throws;
        }
    });
    EXPECT_EQ(throws.load(), range);
    // The pool survived and still works at the original size.
    EXPECT_EQ(globalThreadCount(), threads);
    std::atomic<size_t> hits{0};
    parallelFor(0, range, [&](size_t) { ++hits; });
    EXPECT_EQ(hits.load(), range);
    setGlobalThreadCount(1);
}

TEST(GlobalThreadCount, RejectsResizeWhileJobActiveOnAnotherThread)
{
    const u32 threads = std::max(2u, testThreads());
    setGlobalThreadCount(threads);

    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    std::atomic<int> caught{0};

    std::thread resizer([&] {
        while (!started.load())
            std::this_thread::yield();
        try {
            setGlobalThreadCount(2);
        } catch (const std::logic_error &) {
            ++caught;
        }
        release.store(true);
    });

    parallelFor(0, 2, [&](size_t i) {
        if (i == 0) {
            started.store(true);
            while (!release.load())
                std::this_thread::yield();
        }
    });
    resizer.join();
    EXPECT_EQ(caught.load(), 1);
    setGlobalThreadCount(1);
}

// ---------------------------------------------------------------------
// Kernel results do not depend on the pool size
// ---------------------------------------------------------------------
TEST(ParallelExactness, RnsPolyOpsMatchSingleThread)
{
    poly::Ring ring(256, nt::generateNttPrimes(28, 6, 512));

    auto run_all = [&](u32 threads) {
        setGlobalThreadCount(threads);
        Rng rng(42);
        auto a = poly::RnsPoly::uniform(ring, 6, false, rng);
        auto b = poly::RnsPoly::uniform(ring, 6, false, rng);
        a.toEval();
        b.toEval();
        auto m = a;
        m.mulPointwiseInPlace(b);
        m.addInPlace(b);
        m.subInPlace(a);
        m = m.automorphism(5);
        m.mulConstantInPlace(7);
        m.toCoeff();
        m = m.automorphism(5);
        m.negateInPlace();
        return m;
    };

    const auto seq = run_all(1);
    const auto par = run_all(testThreads());
    setGlobalThreadCount(1);
    EXPECT_TRUE(seq == par);
}

// ---------------------------------------------------------------------
// Limb free lists are per thread
// ---------------------------------------------------------------------
TEST(LimbFreeList, LimbsReleasedOnAnotherThreadAreReused)
{
    // Polynomials built on one thread and destroyed on another: their
    // limbs join the destroying thread's list, which builds equal
    // polynomials from them.
    poly::Ring ring(256, nt::generateNttPrimes(28, 3, 512));
    const auto build = [&](std::vector<poly::RnsPoly> &out) {
        Rng rng(7);
        for (auto &p : out)
            p = poly::RnsPoly::uniform(ring, 3, true, rng);
    };
    std::vector<poly::RnsPoly> expect(8);
    build(expect);
    std::vector<poly::RnsPoly> made(8);
    std::thread producer([&] { build(made); });
    producer.join();
    std::thread consumer([&] {
        made.assign(8, poly::RnsPoly()); // released on this thread
        EXPECT_EQ(poly::freeListBytes(), 8 * 3 * 256 * sizeof(u32));
        build(made);
        EXPECT_EQ(poly::freeListBytes(), 0u);
    });
    consumer.join();
    EXPECT_TRUE(made == expect);
}

TEST(LimbFreeList, ReleaseAfterThreadExitIsSafe)
{
    poly::Ring ring(256, nt::generateNttPrimes(28, 3, 512));
    // Limbs taken on a thread that has since exited, released here.
    std::vector<poly::RnsPoly> orphans(4);
    std::thread([&] {
        Rng rng(9);
        for (auto &p : orphans)
            p = poly::RnsPoly::uniform(ring, 3, true, rng);
    }).join();
    orphans.clear();

    // A thread_local polynomial constructed before its thread's list is
    // destroyed after it, at thread exit: its limbs are freed normally.
    std::thread([&] {
        thread_local std::optional<poly::RnsPoly> late;
        late.emplace(ring, 3, true);
    }).join();
}

TEST(ParallelExactness, BConvMatchesSingleThread)
{
    const auto q = nt::generateNttPrimes(28, 5, 2048);
    const auto p = nt::generateNttPrimesAvoiding(29, 3, 2048, q);
    rns::BasisConversion conv{rns::RnsBasis(q), rns::RnsBasis(p)};

    rns::LimbMatrix in(q.size());
    Rng rng(7);
    for (size_t i = 0; i < in.size(); ++i) {
        in[i].resize(128);
        for (auto &x : in[i])
            x = static_cast<u32>(rng.uniform(q[i]));
    }

    setGlobalThreadCount(1);
    rns::LimbMatrix seq;
    conv.apply(in, seq);
    {
        ThreadGuard guard(testThreads());
        rns::LimbMatrix par;
        conv.apply(in, par);
        EXPECT_EQ(par, seq);
    }
}

// ---------------------------------------------------------------------
// BatchEvaluator conformance
// ---------------------------------------------------------------------
class BatchConformance : public ::testing::Test
{
  protected:
    static constexpr double kScale = 1 << 26;

    BatchConformance()
        : ctx(ckks::CkksParams::testSet(1 << 9, 5, 2)), encoder(ctx),
          keygen(ctx, 42), encryptor(ctx, keygen.publicKey(), 43)
    {
    }

    ~BatchConformance() override { setGlobalThreadCount(1); }

    std::vector<ckks::Ciphertext>
    encryptBatch(size_t count, u64 seed)
    {
        Rng rng(seed);
        std::vector<ckks::Ciphertext> cts;
        for (size_t i = 0; i < count; ++i) {
            std::vector<ckks::Complex> v(encoder.slotCount());
            for (auto &x : v)
                x = ckks::Complex(rng.real() * 2 - 1, rng.real() * 2 - 1);
            cts.push_back(encryptor.encrypt(
                encoder.encode(v, kScale, ctx.qCount())));
        }
        return cts;
    }

    static void
    expectEqual(const std::vector<ckks::Ciphertext> &a,
                const std::vector<ckks::Ciphertext> &b)
    {
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_TRUE(a[i].c0 == b[i].c0) << "item " << i;
            EXPECT_TRUE(a[i].c1 == b[i].c1) << "item " << i;
            EXPECT_DOUBLE_EQ(a[i].scale, b[i].scale) << "item " << i;
        }
    }

    static void
    expectSameLog(const ckks::KernelLog &got, const ckks::KernelLog &want)
    {
        ASSERT_EQ(got.calls().size(), want.calls().size());
        for (size_t i = 0; i < got.calls().size(); ++i) {
            EXPECT_TRUE(got.calls()[i].sameShape(want.calls()[i]))
                << "call " << i;
        }
    }

    ckks::CkksContext ctx;
    ckks::CkksEncoder encoder;
    ckks::KeyGenerator keygen;
    ckks::CkksEncryptor encryptor;
};

TEST_F(BatchConformance, MultiplyMatchesSequentialBitExactly)
{
    const auto rlk = keygen.relinKey();
    const auto a = encryptBatch(6, 1);
    const auto b = encryptBatch(6, 2);

    // Sequential reference: threads=1, plain evaluator loop.
    setGlobalThreadCount(1);
    ckks::KernelLog seq_log;
    ckks::CkksEvaluator seq_ev(ctx, &seq_log);
    const auto pre = seq_ev.precomputeKeySwitch(rlk, ctx.qCount() - 1);
    std::vector<ckks::Ciphertext> seq;
    for (size_t i = 0; i < a.size(); ++i)
        seq.push_back(seq_ev.multiply(a[i], b[i], pre));

    // Parallel batched run.
    ThreadGuard guard(testThreads());
    ckks::KernelLog par_log;
    ckks::BatchEvaluator batch(ctx, &par_log);
    ckks::Pipeline mult;
    mult.multiply(b, rlk);
    const auto par = batch.run(a, mult);

    expectEqual(par, seq);
    expectSameLog(par_log, seq_log);
}

TEST_F(BatchConformance, AddRescaleRotateMatchSequential)
{
    const auto a = encryptBatch(5, 3);
    const auto b = encryptBatch(5, 4);
    const u32 k = encoder.rotationAutomorphism(1);
    const auto rot_key = keygen.rotationKey(k);

    setGlobalThreadCount(1);
    ckks::KernelLog seq_log;
    ckks::CkksEvaluator seq_ev(ctx, &seq_log);
    std::vector<ckks::Ciphertext> seq_add, seq_rs, seq_rot;
    for (size_t i = 0; i < a.size(); ++i)
        seq_add.push_back(seq_ev.add(a[i], b[i]));
    for (size_t i = 0; i < a.size(); ++i)
        seq_rs.push_back(seq_ev.rescale(a[i]));
    const auto rot_pre =
        seq_ev.precomputeKeySwitch(rot_key, ctx.qCount() - 1);
    for (size_t i = 0; i < a.size(); ++i)
        seq_rot.push_back(seq_ev.rotate(a[i], k, rot_pre));

    ThreadGuard guard(testThreads());
    ckks::KernelLog par_log;
    ckks::BatchEvaluator batch(ctx, &par_log);
    ckks::Pipeline add, rescale, rotate;
    add.add(b);
    rescale.rescale();
    rotate.rotate(k, rot_key);
    const auto par_add = batch.run(a, add);
    const auto par_rs = batch.run(a, rescale);
    const auto par_rot = batch.run(a, rotate);

    expectEqual(par_add, seq_add);
    expectEqual(par_rs, seq_rs);
    expectEqual(par_rot, seq_rot);
    expectSameLog(par_log, seq_log);
}

TEST_F(BatchConformance, MixedLevelsShareOnePrecompPerLevel)
{
    const auto rlk = keygen.relinKey();
    auto a = encryptBatch(4, 5);
    auto b = encryptBatch(4, 6);
    // Drop two items one level down: the batch spans two levels.
    setGlobalThreadCount(1);
    ckks::CkksEvaluator ev(ctx);
    for (size_t i = 0; i < 2; ++i) {
        a[i] = ev.rescale(a[i]);
        b[i] = ev.rescale(b[i]);
    }

    std::vector<ckks::Ciphertext> seq;
    for (size_t i = 0; i < a.size(); ++i) {
        seq.push_back(ev.multiply(
            a[i], b[i], ev.precomputeKeySwitch(rlk, a[i].limbs() - 1)));
    }

    ThreadGuard guard(testThreads());
    ckks::BatchEvaluator batch(ctx);
    ckks::Pipeline mult;
    mult.multiply(b, rlk);
    expectEqual(batch.run(a, mult), seq);
}

TEST_F(BatchConformance, NoBatchWaitsForAnotherCallersJob)
{
    // While another thread's job holds the pool, a one-item run stays
    // on its caller's thread and a 3-item run shares the workers the
    // holder leaves idle; each must finish and equal sequential
    // rotate calls.
    const auto a = encryptBatch(3, 8);
    const u32 k = encoder.rotationAutomorphism(1);
    const auto rot_key = keygen.rotationKey(k);
    setGlobalThreadCount(1);
    const ckks::CkksEvaluator ev(ctx);
    const auto pre = ev.precomputeKeySwitch(rot_key, a[0].limbs() - 1);
    ckks::CtVec want;
    for (const auto &ct : a)
        want.push_back(ev.rotate(ct, k, pre));

    ThreadGuard guard(std::max(2u, testThreads()));
    std::atomic<bool> holding{false};
    std::atomic<bool> release{false};
    std::thread holder([&] {
        parallelFor(0, 2, [&](size_t i) {
            if (i == 0) {
                holding.store(true);
                while (!release.load())
                    std::this_thread::yield();
            }
        });
    });
    while (!holding.load())
        std::this_thread::yield();

    ckks::Pipeline rotate;
    rotate.rotate(k, rot_key);
    const ckks::CtVec inputs[] = {{a[0]}, a};
    std::promise<ckks::CtVec> done[2];
    std::future<ckks::CtVec> got[2];
    std::vector<std::thread> runners;
    bool finished[2] = {};
    for (size_t r = 0; r < 2; ++r) {
        got[r] = done[r].get_future();
        runners.emplace_back([&, r] {
            try {
                done[r].set_value(
                    ckks::BatchEvaluator(ctx).run(inputs[r], rotate));
            } catch (...) {
                done[r].set_exception(std::current_exception());
            }
        });
        finished[r] = got[r].wait_for(std::chrono::seconds(5)) ==
            std::future_status::ready;
    }
    // Release the pool either way, so a regression fails instead of
    // hanging.
    release.store(true);
    holder.join();
    for (auto &t : runners)
        t.join();

    for (size_t r = 0; r < 2; ++r) {
        EXPECT_TRUE(finished[r]) << "a batch of " << inputs[r].size()
                                 << " waited for another caller's job";
        const auto out = got[r].get();
        ASSERT_EQ(out.size(), inputs[r].size());
        expectEqual(out, {want.begin(), want.begin() + out.size()});
    }
}

TEST_F(BatchConformance, EmptyBatchIsANoOp)
{
    ThreadGuard guard(testThreads());
    ckks::KernelLog log;
    ckks::BatchEvaluator batch(ctx, &log);
    const ckks::CtVec none;
    ckks::Pipeline rescale, add;
    rescale.rescale();
    add.add(none);
    EXPECT_TRUE(batch.run(none, rescale).empty());
    EXPECT_TRUE(batch.run(none, add).empty());
    EXPECT_TRUE(log.calls().empty());
}

} // namespace
} // namespace cross
