/**
 * @file
 * Randomized dispatch-conformance suite for the runtime-selected SIMD
 * kernels (nt/modvec.h, the lazy NTT butterflies in poly/ntt_ct.cc).
 * The lazy product sums (the fused key-switch product, the BConv dot
 * and the gather-add) are also checked on every path against an exact
 * 128-bit sum reduced once, at widths that force folds.
 *
 * The contract under test: every dispatch path (scalar / AVX2 /
 * AVX-512) produces BIT-IDENTICAL output for all valid inputs -- the
 * ISA choice is a pure speed choice, never a numerics choice. Each
 * conformance test draws random moduli across the supported bit range
 * (20..31 bits; up to 30 bits the modulus is below 2^30 and takes the
 * lazy Harvey path, 31-bit moduli the strict fallback) and random
 * lengths that cover both the vector body and the scalar tails. The
 * dispatch-misuse guard runs under a CROSS_TEST_THREADS (default 4)
 * pool, so the suite doubles as a data-race probe under the TSan CI
 * shard.
 *
 * Paths not compiled in or not supported by the host are skipped with
 * a notice (GTEST_SKIP), never silently passed.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "nt/barrett.h"
#include "nt/montgomery.h"
#include "nt/modvec.h"
#include "nt/primes.h"
#include "nt/shoup.h"
#include "nt/simd_dispatch.h"
#include "poly/ntt_ct.h"
#include "poly/ntt_kernels.h"
#include "poly/ntt_tables.h"
#include "poly/ring.h"

#include "test_util.h"

namespace cross {
namespace {

using testutil::testThreads;

/** Scoped dispatch override; restores the CPUID default on exit. */
struct IsaGuard
{
    explicit IsaGuard(nt::SimdIsa isa) { nt::setSimdIsa(isa); }
    ~IsaGuard() { nt::setSimdIsa(nt::bestSimdIsa()); }
};

/** Scoped thread-count override; restores 1 thread on exit. */
struct ThreadGuard
{
    explicit ThreadGuard(u32 n) { setGlobalThreadCount(n); }
    ~ThreadGuard() { setGlobalThreadCount(1); }
};

/** The vector ISAs; each conformance test compares them to Scalar. */
const nt::SimdIsa kVectorIsas[] = {nt::SimdIsa::Avx2,
                                   nt::SimdIsa::Avx512};

/** One random odd prime with exactly @p bits bits (modStep 2). */
u32
randomModulus(u32 bits)
{
    return static_cast<u32>(nt::generateNttPrimes(bits, 1, 2)[0]);
}

std::vector<u32>
randomVec(Rng &rng, size_t n, u64 bound)
{
    std::vector<u32> v(n);
    for (auto &x : v)
        x = static_cast<u32>(rng.uniform(bound));
    return v;
}

// ---------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------
TEST(SimdDispatch, ScalarAlwaysAvailable)
{
    EXPECT_TRUE(nt::simdIsaCompiled(nt::SimdIsa::Scalar));
    EXPECT_TRUE(nt::simdIsaAvailable(nt::SimdIsa::Scalar));
}

TEST(SimdDispatch, NamesRoundTrip)
{
    for (auto isa : {nt::SimdIsa::Scalar, nt::SimdIsa::Avx2,
                     nt::SimdIsa::Avx512})
        EXPECT_EQ(nt::parseSimdIsa(nt::simdIsaName(isa)), isa);
    EXPECT_THROW(nt::parseSimdIsa("neon"), std::invalid_argument);
}

TEST(SimdDispatch, SetRejectsUnavailableIsa)
{
    for (auto isa : kVectorIsas) {
        if (!nt::simdIsaAvailable(isa)) {
            EXPECT_THROW(nt::setSimdIsa(isa), std::invalid_argument);
        }
    }
    // Always-valid transitions keep working afterwards.
    nt::setSimdIsa(nt::SimdIsa::Scalar);
    EXPECT_EQ(nt::activeSimdIsa(), nt::SimdIsa::Scalar);
    nt::setSimdIsa(nt::bestSimdIsa());
}

TEST(SimdDispatch, SetThrowsUnderActiveParallelFor)
{
    // At one thread parallelFor runs the body inline, outside any pool
    // job, so the guard needs at least two.
    ThreadGuard guard(std::max(2u, testThreads()));
    const auto before = nt::activeSimdIsa();
    // Switching the kernel tables while a parallel kernel may be
    // mid-flight must fail loudly instead of racing.
    EXPECT_THROW(parallelFor(0, 64,
                             [&](size_t) {
                                 nt::setSimdIsa(nt::SimdIsa::Scalar);
                             }),
                 std::logic_error);
    // The dispatch state must survive the failed attempt.
    EXPECT_EQ(nt::activeSimdIsa(), before);
}

// ---------------------------------------------------------------------
// modvec conformance: every op, every available ISA, random shapes
// ---------------------------------------------------------------------

/**
 * Sizes covering the vector body, the scalar tail, and both empty: one
 * below, at and one above every vector width (u64 lanes: 4 and 8; u32
 * lanes: 8 and 16) and twice the widest, so each instantiation's body
 * and tail meet at every width.
 */
const size_t kSizes[] = {0,  1,  3,  4,  5,  7,   8,    9,   15,
                         16, 17, 31, 32, 33, 100, 1024, 1031};

struct ModVecCase
{
    u32 q;
    std::vector<u32> a, b, a2q; // a2q: lazy-range inputs < 2q
    std::vector<u64> wide;      // accumulators < 2^63
    std::vector<nt::ShoupConst> shoup; // w = 0, 1, q - 1 and a random one
    u32 w;
    // Centred-lift sources: residues mod qFrom (same width as q, the
    // select path) and mod qFromWide (>= 2q, the Barrett path).
    u32 qFrom, qFromWide;
    std::vector<u32> fromA, fromWideA;
};

/** @p v with its first entries replaced by @p edges (as many as fit). */
template <size_t K>
void
leadWith(std::vector<u32> &v, const u32 (&edges)[K])
{
    std::copy_n(edges, std::min(K, v.size()), v.begin());
}

/** Residues mod @p q_from, led by the lift's edge cases. */
std::vector<u32>
liftSources(Rng &rng, size_t n, u32 q_from, u32 q)
{
    std::vector<u32> v = randomVec(rng, n, q_from);
    const u32 edges[] = {0, q_from - 1, q_from / 2, q_from / 2 + 1,
                         q_from > q ? q_from - q : 1,
                         q_from > 2 * u64{q} ? q_from - 2 * q : 2};
    leadWith(v, edges);
    return v;
}

ModVecCase
makeCase(Rng &rng, u32 bits, size_t n)
{
    ModVecCase t;
    t.q = randomModulus(bits);
    const u32 q = t.q;
    // Every pair of a, b in {0, 1, q - 1} leads the operands.
    t.a = randomVec(rng, n, q);
    leadWith(t.a, {0, 0, 0, 1, 1, 1, q - 1, q - 1, q - 1});
    t.b = randomVec(rng, n, q);
    leadWith(t.b, {0, 1, q - 1, 0, 1, q - 1, 0, 1, q - 1});
    t.a2q = randomVec(rng, n, 2ull * q);
    leadWith(t.a2q, {q, 2 * q - 1, 0, 1, q - 1});
    t.wide.resize(n);
    for (auto &x : t.wide)
        x = rng.uniform(u64{1} << 62);
    for (u32 w : {0u, 1u, q - 1, static_cast<u32>(rng.uniform(q))})
        t.shoup.push_back(nt::shoupPrecompute(w, q));
    t.w = static_cast<u32>(rng.uniform(t.q));
    t.qFrom = static_cast<u32>((u64{1} << (bits - 1)) |
                               rng.uniform(u64{1} << (bits - 1)) | 1);
    const u64 wide_lo = 2 * u64{t.q} + 1;
    t.qFromWide = static_cast<u32>(
        wide_lo + rng.uniform((u64{1} << 32) - wide_lo));
    t.fromA = liftSources(rng, n, t.qFrom, t.q);
    t.fromWideA = liftSources(rng, n, t.qFromWide, t.q);
    return t;
}

/** All modvec results for one case under the active dispatch. */
struct ModVecResults
{
    std::vector<u32> add, sub, neg, mont, mul, red, lift, liftWide;
    std::vector<std::vector<u32>> shoup, shoup2q; // one per constant
    std::vector<u64> accum, redip;
};

ModVecResults
runModVec(const ModVecCase &t)
{
    const size_t n = t.a.size();
    const nt::Barrett bar(t.q);
    const nt::Montgomery mont(t.q);
    ModVecResults r;
    r.add.resize(n);
    nt::addModVec(r.add.data(), t.a.data(), t.b.data(), n, t.q);
    r.sub.resize(n);
    nt::subModVec(r.sub.data(), t.a.data(), t.b.data(), n, t.q);
    r.neg.resize(n);
    nt::negModVec(r.neg.data(), t.a.data(), n, t.q);
    for (const nt::ShoupConst &c : t.shoup) {
        r.shoup.emplace_back(n);
        nt::mulShoupVec(r.shoup.back().data(), t.a.data(), c, n, t.q);
        r.shoup2q.emplace_back(n);
        nt::mulShoupVec(r.shoup2q.back().data(), t.a2q.data(), c, n, t.q);
    }
    r.mont.resize(n);
    nt::mulMontVec(r.mont.data(), t.a.data(), t.b.data(), n, mont);
    r.mul.resize(n);
    nt::mulModVec(r.mul.data(), t.a.data(), t.b.data(), n, bar);
    r.accum = t.wide;
    nt::accumMulVec(r.accum.data(), t.a.data(), t.w, n);
    r.red.resize(n);
    nt::reduceWideVec(r.red.data(), t.wide.data(), n, bar);
    r.redip = t.wide;
    nt::reduceWideInPlaceVec(r.redip.data(), n, bar);
    r.lift.resize(n);
    nt::liftCenteredVec(r.lift.data(), t.fromA.data(), n, t.qFrom, bar);
    r.liftWide.resize(n);
    nt::liftCenteredVec(r.liftWide.data(), t.fromWideA.data(), n,
                        t.qFromWide, bar);
    return r;
}

/** a[j] * c.w mod q by the 128-bit product: mulShoupVec's ground truth. */
std::vector<u32>
shoupReference(const std::vector<u32> &a, const nt::ShoupConst &c, u32 q)
{
    std::vector<u32> out(a.size());
    for (size_t j = 0; j < a.size(); ++j)
        out[j] = static_cast<u32>(nt::mulMod(a[j], c.w, q));
    return out;
}

/** The centred lift in signed arithmetic: the kernel's ground truth. */
std::vector<u32>
liftReference(const std::vector<u32> &a, u32 q_from, u32 q)
{
    std::vector<u32> out(a.size());
    for (size_t j = 0; j < a.size(); ++j) {
        const i64 centred = a[j] > q_from / 2
            ? static_cast<i64>(a[j]) - static_cast<i64>(q_from)
            : static_cast<i64>(a[j]);
        const i64 r = centred % static_cast<i64>(q);
        out[j] = static_cast<u32>(r < 0 ? r + q : r);
    }
    return out;
}

void
expectSameResults(const ModVecResults &x, const ModVecResults &y,
                  u32 bits, size_t n, const char *isa)
{
    const std::string where = std::string(" [isa=") + isa +
        " bits=" + std::to_string(bits) + " n=" + std::to_string(n) +
        "]";
    EXPECT_EQ(x.add, y.add) << "addModVec" << where;
    EXPECT_EQ(x.sub, y.sub) << "subModVec" << where;
    EXPECT_EQ(x.neg, y.neg) << "negModVec" << where;
    EXPECT_EQ(x.shoup, y.shoup) << "mulShoupVec" << where;
    EXPECT_EQ(x.shoup2q, y.shoup2q) << "mulShoupVec(2q)" << where;
    EXPECT_EQ(x.mont, y.mont) << "mulMontVec" << where;
    EXPECT_EQ(x.mul, y.mul) << "mulModVec" << where;
    EXPECT_EQ(x.accum, y.accum) << "accumMulVec" << where;
    EXPECT_EQ(x.red, y.red) << "reduceWideVec" << where;
    EXPECT_EQ(x.redip, y.redip) << "reduceWideInPlaceVec" << where;
    EXPECT_EQ(x.lift, y.lift) << "liftCenteredVec" << where;
    EXPECT_EQ(x.liftWide, y.liftWide) << "liftCenteredVec(wide)" << where;
}

TEST(SimdConformance, ModVecBitIdenticalAcrossIsas)
{
    Rng rng(20260808);
    for (u32 bits : {20u, 24u, 28u, 30u, 31u}) {
        for (size_t n : kSizes) {
            const ModVecCase t = makeCase(rng, bits, n);
            ModVecResults ref;
            {
                IsaGuard g(nt::SimdIsa::Scalar);
                ref = runModVec(t);
            }
            for (size_t k = 0; k < t.shoup.size(); ++k) {
                EXPECT_EQ(ref.shoup[k], shoupReference(t.a, t.shoup[k], t.q))
                    << "bits=" << bits << " n=" << n << " w=" << t.shoup[k].w;
                EXPECT_EQ(ref.shoup2q[k],
                          shoupReference(t.a2q, t.shoup[k], t.q))
                    << "bits=" << bits << " n=" << n << " w=" << t.shoup[k].w;
            }
            EXPECT_EQ(ref.lift, liftReference(t.fromA, t.qFrom, t.q))
                << "bits=" << bits << " n=" << n;
            EXPECT_EQ(ref.liftWide,
                      liftReference(t.fromWideA, t.qFromWide, t.q))
                << "bits=" << bits << " n=" << n;
            for (auto isa : kVectorIsas) {
                if (!nt::simdIsaAvailable(isa))
                    continue; // skip notice emitted once below
                IsaGuard g(isa);
                expectSameResults(ref, runModVec(t), bits, n,
                                  nt::simdIsaName(isa));
            }
        }
    }
    for (auto isa : kVectorIsas) {
        if (!nt::simdIsaAvailable(isa))
            std::fprintf(stderr,
                         "[simd_test] notice: %s not available on this "
                         "host/binary; conformance limited to scalar\n",
                         nt::simdIsaName(isa));
    }
}

// ---------------------------------------------------------------------
// Lazy product sums: the fused key-switch product, the BConv dot and
// the gather-add against an exact 128-bit reference, every ISA
// ---------------------------------------------------------------------

/** Modulus widths of the lazy-sum cases; 31 bits folds every 2-3
 *  products, 28 bits never within 16. */
const u32 kLazyBits[] = {20, 24, 28, 30, 31};

/** Every available dispatch path, scalar first. */
std::vector<nt::SimdIsa>
availableIsas()
{
    std::vector<nt::SimdIsa> isas;
    for (auto isa : {nt::SimdIsa::Scalar, nt::SimdIsa::Avx2,
                     nt::SimdIsa::Avx512})
        if (nt::simdIsaAvailable(isa))
            isas.push_back(isa);
    return isas;
}

/** A length and a gather map (empty: the identity, passed as null). */
struct LazyShape
{
    size_t n;
    std::vector<u32> map;
    const char *kind;
};

/**
 * Lengths around the vector widths and one long odd one, each with the
 * identity and a random permutation, plus real eval-domain
 * automorphisms at degrees 16 and 8192.
 */
std::vector<LazyShape>
lazyShapes(Rng &rng)
{
    std::vector<LazyShape> shapes;
    for (size_t n : {1, 7, 8, 9, 15, 16, 17, 33, 8197}) {
        shapes.push_back({n, {}, "identity"});
        std::vector<u32> perm(n);
        for (size_t m = 0; m < n; ++m)
            perm[m] = static_cast<u32>(m);
        for (size_t m = n; m > 1; --m)
            std::swap(perm[m - 1], perm[rng.uniform(m)]);
        shapes.push_back({n, std::move(perm), "permutation"});
    }
    for (u32 n : {16u, 8192u}) {
        const poly::Ring ring(n, nt::generateNttPrimes(28, 1, 2ull * n));
        shapes.push_back({n, ring.evalAutoMap(5), "evalAutoMap(5)"});
        shapes.push_back(
            {n, ring.evalAutoMap(2 * n - 1), "evalAutoMap(2N-1)"});
    }
    return shapes;
}

/**
 * @p count limbs of @p n values below @p bound: random with 0 and
 * bound - 1 leading each limb, or all bound - 1 (the largest sums).
 */
std::vector<std::vector<u32>>
lazyOperands(Rng &rng, size_t count, size_t n, u64 bound, bool all_max)
{
    std::vector<std::vector<u32>> limbs(count);
    for (auto &limb : limbs) {
        limb = randomVec(rng, n, bound);
        if (all_max)
            std::fill(limb.begin(), limb.end(), bound - 1);
        if (!all_max && n > 1) {
            limb[0] = 0;
            limb[1] = static_cast<u32>(bound - 1);
        }
    }
    return limbs;
}

std::vector<const u32 *>
limbPtrs(const std::vector<std::vector<u32>> &limbs)
{
    std::vector<const u32 *> p;
    for (const auto &limb : limbs)
        p.push_back(limb.data());
    return p;
}

/** A prime with exactly @p bits bits at a random place in its range. */
u32
randomPrime(Rng &rng, u32 bits)
{
    for (;;) {
        const u64 c = (u64{1} << (bits - 1)) |
            rng.uniform(u64{1} << (bits - 1)) | 1;
        if (nt::isPrime(c))
            return static_cast<u32>(c);
    }
}

TEST(SimdConformance, LazySumBudgetFollowsOperandWidths)
{
    const auto budget = [](u32 q) {
        return nt::lazySumBudget(q, u64{q - 1} * (q - 1));
    };
    // 28-bit NTT primes like Set-B's fit 16 products, so d <= 3 digits
    // and up to 16 BConv source limbs never fold.
    for (u64 q : nt::generateNttPrimes(28, 12, 1 << 14))
        EXPECT_EQ(budget(static_cast<u32>(q)), 16u) << q;
    // 31-bit moduli fold every 2-3 products.
    u32 low31 = (1u << 30) + 1;
    while (!nt::isPrime(low31))
        low31 += 2;
    EXPECT_EQ(budget(low31), 3u);
    EXPECT_EQ(budget((1u << 31) - 1), 2u);
    Rng rng(0xb0d);
    for (u32 bits : kLazyBits) {
        for (int trial = 0; trial < 20; ++trial) {
            const u32 q = randomPrime(rng, bits);
            const u32 src = randomPrime(rng, kLazyBits[trial % 5]);
            const u64 max_product = u64{src - 1} * (q - 1);
            const u128 b = nt::lazySumBudget(q, max_product);
            // A folded residue plus a budget of largest products stays
            // below q * 2^32, and one more product would not.
            const u128 limit = static_cast<u128>(q) << 32;
            EXPECT_LT((q - 1) + b * max_product, limit) << q << " " << src;
            EXPECT_GE((q - 1) + (b + 1) * max_product, limit)
                << q << " " << src;
        }
    }
}

TEST(SimdConformance, KeySwitchProductMatchesExactSum)
{
    Rng rng(0x6b5);
    const auto isas = availableIsas();
    const auto shapes = lazyShapes(rng);
    for (u32 bits : kLazyBits) {
        for (const LazyShape &sh : shapes) {
            const u32 *map = sh.map.empty() ? nullptr : sh.map.data();
            for (size_t d = 1; d <= 6; ++d) {
                for (bool all_max : {false, true}) {
                    const u32 q = randomPrime(rng, bits);
                    const nt::Montgomery mont(q);
                    const auto dig = lazyOperands(rng, d, sh.n, q, all_max);
                    const auto k0 = lazyOperands(rng, d, sh.n, q, all_max);
                    const auto k1 = lazyOperands(rng, d, sh.n, q, all_max);
                    std::vector<u32> want0(sh.n), want1(sh.n);
                    for (size_t m = 0; m < sh.n; ++m) {
                        const size_t src = map ? map[m] : m;
                        u128 s0 = 0, s1 = 0;
                        for (size_t j = 0; j < d; ++j) {
                            s0 += static_cast<u128>(dig[j][src]) * k0[j][m];
                            s1 += static_cast<u128>(dig[j][src]) * k1[j][m];
                        }
                        want0[m] = static_cast<u32>(s0 % q);
                        want1[m] = static_cast<u32>(s1 % q);
                    }
                    for (auto isa : isas) {
                        IsaGuard g(isa);
                        std::vector<u32> out0(sh.n), out1(sh.n);
                        nt::keySwitchProductVec(
                            out0.data(), out1.data(), limbPtrs(dig).data(),
                            limbPtrs(k0).data(), limbPtrs(k1).data(), d,
                            map, sh.n, mont);
                        const auto where = testing::Message()
                            << "isa=" << nt::simdIsaName(isa)
                            << " bits=" << bits << " n=" << sh.n << " "
                            << sh.kind << " d=" << d
                            << (all_max ? " all q-1" : "");
                        EXPECT_EQ(out0, want0) << where;
                        EXPECT_EQ(out1, want1) << where;
                    }
                }
            }
        }
    }
}

TEST(SimdConformance, BConvDotMatchesExactSum)
{
    Rng rng(0xbc0);
    const auto isas = availableIsas();
    for (u32 bits : kLazyBits) {
        for (size_t n : {1, 7, 8, 9, 15, 16, 17, 33, 8197}) {
            for (size_t k = 1; k <= 20; ++k) {
                for (bool all_max : {false, true}) {
                    // Sources below a modulus of another width, as a
                    // ModDown from P to Q or a ModUp between digits.
                    const u32 q = randomPrime(rng, bits);
                    const u32 src_q =
                        randomPrime(rng, kLazyBits[k % std::size(kLazyBits)]);
                    const nt::Montgomery mont(q);
                    const auto b = lazyOperands(rng, k, n, src_q, all_max);
                    const auto w = lazyOperands(rng, 1, k, q, all_max)[0];
                    const size_t budget = nt::lazySumBudget(
                        q, u64{src_q - 1} * (q - 1));
                    std::vector<u32> want(n);
                    for (size_t m = 0; m < n; ++m) {
                        u128 s = 0;
                        for (size_t i = 0; i < k; ++i)
                            s += static_cast<u128>(b[i][m]) * w[i];
                        want[m] = static_cast<u32>(s % q);
                    }
                    for (auto isa : isas) {
                        IsaGuard g(isa);
                        std::vector<u32> out(n);
                        nt::bconvDotVec(out.data(), limbPtrs(b).data(),
                                        w.data(), k, n, budget, mont);
                        EXPECT_EQ(out, want)
                            << "isa=" << nt::simdIsaName(isa)
                            << " bits=" << bits << " n=" << n
                            << " k=" << k << " budget=" << budget
                            << (all_max ? " all max" : "");
                    }
                }
            }
        }
    }
}

TEST(SimdConformance, GatherAddMatchesExactSum)
{
    Rng rng(0x9a7);
    const auto isas = availableIsas();
    const auto shapes = lazyShapes(rng);
    for (u32 bits : kLazyBits) {
        for (const LazyShape &sh : shapes) {
            if (sh.map.empty())
                continue; // the gather always has a map
            for (bool all_max : {false, true}) {
                const u32 q = randomPrime(rng, bits);
                const auto in = lazyOperands(rng, 2, sh.n, q, all_max);
                std::vector<u32> want(sh.n);
                for (size_t m = 0; m < sh.n; ++m)
                    want[m] = static_cast<u32>(
                        (u64{in[0][m]} + in[1][sh.map[m]]) % q);
                for (auto isa : isas) {
                    IsaGuard g(isa);
                    std::vector<u32> dst = in[0];
                    nt::gatherAddModVec(dst.data(), in[1].data(),
                                        sh.map.data(), sh.n, q);
                    EXPECT_EQ(dst, want)
                        << "isa=" << nt::simdIsaName(isa) << " bits=" << bits
                        << " n=" << sh.n << " " << sh.kind
                        << (all_max ? " all q-1" : "");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// NTT conformance: lazy + strict paths, every ISA
// ---------------------------------------------------------------------

/**
 * Forward+inverse under the active dispatch for each random poly;
 * returns the forward images followed by the roundtripped inputs.
 */
std::vector<std::vector<u32>>
runNtt(const std::vector<std::vector<u32>> &in, const poly::NttTables &tab)
{
    std::vector<std::vector<u32>> fwd = in;
    for (auto &v : fwd)
        poly::forwardInPlace(v.data(), tab);
    std::vector<std::vector<u32>> out = fwd;
    for (auto &v : fwd) {
        poly::inverseInPlace(v.data(), tab);
        out.push_back(std::move(v));
    }
    return out;
}

/**
 * One stage kernel at a time, against the scalar stage: every forward
 * stage on inputs in [0, 4q) and every inverse stage on [0, 2q), each
 * led by the largest value, at the 28-bit Set-B width and at the widest
 * lazy modulus. The outputs must keep the stage invariant, which the
 * transforms check only in builds with CROSS_NTT_CHECK_RANGE live.
 */
TEST(SimdConformance, NttStageBitIdenticalAcrossIsas)
{
    Rng rng(31);
    const auto isas = availableIsas();
    const u32 q28 =
        static_cast<u32>(nt::generateNttPrimes(28, 1, 2ull * 8192)[0]);
    // The largest NTT prime below 2^30 at N <= 2^13: 4q comes closest
    // to 2^32.
    for (u32 q : {q28, 1073692673u}) {
        for (u32 n : {16u, 32u, 64u, 8192u}) {
            const poly::NttTables tab(n, q);
            for (u32 t = n / 2; t >= 1; t >>= 1) {
                for (bool fwd : {true, false}) {
                    const u64 bound = (fwd ? 4 : 2) * u64{q};
                    std::vector<u32> in = randomVec(rng, n, bound);
                    in[0] = in[t] = in[n - 1] = static_cast<u32>(bound - 1);
                    std::vector<u32> ref;
                    for (auto isa : isas) {
                        IsaGuard g(isa);
                        const auto &ker = poly::detail::activeNttKernels();
                        std::vector<u32> out = in;
                        if (fwd)
                            ker.fwdStage(out.data(), n, t,
                                         tab.forwardTwiddles(), q);
                        else
                            ker.invStage(out.data(), n, t,
                                         tab.inverseTwiddles(), q);
                        const auto where = ::testing::Message()
                            << (fwd ? "forward" : "inverse")
                            << " isa=" << nt::simdIsaName(isa)
                            << " q=" << q << " n=" << n << " t=" << t;
                        EXPECT_LT(*std::max_element(out.begin(), out.end()),
                                  bound)
                            << where;
                        if (ref.empty())
                            ref = out; // scalar runs first
                        else
                            EXPECT_EQ(out, ref) << where;
                    }
                }
            }
        }
    }
}

TEST(SimdConformance, NttBitIdenticalAcrossIsas)
{
    Rng rng(97);
    // 20..30-bit moduli take the lazy Harvey path (q < 2^30); the
    // 30-bit one is the widest lazy modulus, where 4q comes closest to
    // 2^32. 31-bit ones exercise the strict fallback. Degrees 4 and 8
    // run the scalar stage below two vectors on every path, 16 is one
    // AVX2 vector pair (and the scalar stage on AVX-512), 32 is one
    // AVX-512 vector pair, and 8192 is Set-B's degree.
    for (u32 bits : {20u, 28u, 30u, 31u}) {
        for (u32 n : {4u, 8u, 16u, 32u, 64u, 256u, 2048u, 8192u}) {
            const u32 q = static_cast<u32>(
                nt::generateNttPrimes(bits, 1, 2ull * n)[0]);
            const poly::NttTables tab(n, q);
            std::vector<std::vector<u32>> in(3);
            for (auto &v : in)
                v = randomVec(rng, n, q);

            std::vector<std::vector<u32>> ref;
            {
                IsaGuard g(nt::SimdIsa::Scalar);
                ref = runNtt(in, tab);
            }
            // Roundtrip sanity on the scalar reference itself.
            for (size_t i = 0; i < in.size(); ++i)
                ASSERT_EQ(ref[in.size() + i], in[i])
                    << "scalar roundtrip bits=" << bits << " n=" << n;

            for (auto isa : {nt::SimdIsa::Scalar, nt::SimdIsa::Avx2,
                             nt::SimdIsa::Avx512}) {
                if (!nt::simdIsaAvailable(isa))
                    continue;
                IsaGuard g(isa);
                EXPECT_EQ(runNtt(in, tab), ref)
                    << "isa=" << nt::simdIsaName(isa) << " bits=" << bits
                    << " n=" << n;
            }
        }
    }
}

} // namespace
} // namespace cross
