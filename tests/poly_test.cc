/**
 * @file
 * Tests for the polynomial layer: radix-2 CT NTT against schoolbook
 * ground truth, the 4-step (explicit reorder) and MAT 3-step
 * (layout-invariant) variants against the radix-2 reference, ModMatrix
 * permutation-folding identities (the MAT correctness core),
 * RnsPoly / automorphism behaviour, and the per-thread limb free list.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "common/bitops.h"
#include "common/rng.h"
#include "nt/modops.h"
#include "nt/primes.h"
#include "poly/limb_pool.h"
#include "poly/modmat.h"
#include "poly/ntt_3step.h"
#include "poly/ntt_4step.h"
#include "poly/ntt_ct.h"
#include "poly/ntt_tables.h"
#include "poly/ring.h"
#include "test_refs.h"

namespace cross::poly {
namespace {

using testref::negacyclicMulKaratsuba;
using testref::negacyclicMulSchoolbook;
using testref::randomPoly;

u32
testPrime(u32 n, u32 bits = 28)
{
    return static_cast<u32>(nt::generateNttPrimes(bits, 1, 2ULL * n)[0]);
}

// ---------------------------------------------------------------------
// Radix-2 Cooley-Tukey reference
// ---------------------------------------------------------------------
class NttCtTest : public ::testing::TestWithParam<u32> // degree
{
};

TEST_P(NttCtTest, RoundTrip)
{
    const u32 n = GetParam();
    const u32 q = testPrime(n);
    NttTables tab(n, q);
    auto a = randomPoly(n, q, n);
    auto orig = a;
    forwardInPlace(a.data(), tab);
    inverseInPlace(a.data(), tab);
    EXPECT_EQ(a, orig);
}

TEST_P(NttCtTest, PointwiseMultIsNegacyclicConvolution)
{
    const u32 n = GetParam();
    const u32 q = testPrime(n);
    NttTables tab(n, q);
    auto a = randomPoly(n, q, n + 1);
    auto b = randomPoly(n, q, n + 2);
    const auto expect = negacyclicMulKaratsuba(a, b, q);

    forwardInPlace(a.data(), tab);
    forwardInPlace(b.data(), tab);
    std::vector<u32> c(n);
    for (u32 i = 0; i < n; ++i)
        c[i] = static_cast<u32>(nt::mulMod(a[i], b[i], q));
    inverseInPlace(c.data(), tab);
    EXPECT_EQ(c, expect);
}

TEST_P(NttCtTest, ConstantPolynomialTransformsToConstant)
{
    const u32 n = GetParam();
    const u32 q = testPrime(n);
    NttTables tab(n, q);
    std::vector<u32> a(n, 0);
    a[0] = 7; // constant polynomial 7
    forwardInPlace(a.data(), tab);
    for (u32 i = 0; i < n; ++i)
        EXPECT_EQ(a[i], 7u);
}

TEST_P(NttCtTest, Linearity)
{
    const u32 n = GetParam();
    const u32 q = testPrime(n);
    NttTables tab(n, q);
    auto a = randomPoly(n, q, 3 * n);
    auto b = randomPoly(n, q, 3 * n + 1);
    std::vector<u32> s(n);
    for (u32 i = 0; i < n; ++i)
        s[i] = static_cast<u32>(nt::addMod(a[i], b[i], q));
    forwardInPlace(a.data(), tab);
    forwardInPlace(b.data(), tab);
    forwardInPlace(s.data(), tab);
    for (u32 i = 0; i < n; ++i)
        EXPECT_EQ(s[i], nt::addMod(a[i], b[i], q));
}

INSTANTIATE_TEST_SUITE_P(Degrees, NttCtTest,
                         ::testing::Values(8u, 16u, 32u, 64u, 256u, 1024u,
                                           4096u, 8192u));

TEST(NttCtTest, RejectsModulusOf32Bits)
{
    // 3 * 2^30 + 1 is an NTT prime, but the Shoup factor needs 2q to
    // fit 32 bits.
    EXPECT_THROW(NttTables(8, 3221225473u), std::invalid_argument);
}

// The forward transform against its definition, not against another
// transform: out[i] = sum_j a_j * psi^((2 * bitrev(i) + 1) * j) mod q.
// 20-, 28- and 30-bit primes take the lazy path, a 31-bit one the
// strict fallback.
TEST(NttCtTest, ForwardMatchesDirectEvaluation)
{
    for (u32 bits : {20u, 28u, 30u, 31u}) {
        for (u32 n : {4u, 16u, 64u, 256u}) {
            const u32 q = testPrime(n, bits);
            const NttTables tab(n, q);
            const auto a = randomPoly(n, q, 5 * n + bits);
            const u32 logn = ilog2(n);
            std::vector<u32> expect(n);
            for (u32 i = 0; i < n; ++i) {
                const u64 odd = 2 * bitReverse(i, logn) + 1;
                u64 s = 0;
                for (u32 j = 0; j < n; ++j)
                    s = nt::addMod(
                        s, nt::mulMod(a[j], tab.psiPow(odd * j), q), q);
                expect[i] = static_cast<u32>(s);
            }
            auto out = a;
            forwardInPlace(out.data(), tab);
            EXPECT_EQ(out, expect) << "bits=" << bits << " n=" << n;
        }
    }
}

// X^(N-1) * X == -1 (mod X^N + 1): the negacyclic wraparound.
TEST(Schoolbook, NegacyclicWraparound)
{
    const u32 n = 16, q = testPrime(n);
    std::vector<u32> a(n, 0), b(n, 0);
    a[n - 1] = 1;
    b[1] = 1;
    const auto z = negacyclicMulSchoolbook(a, b, q);
    EXPECT_EQ(z[0], q - 1);
    for (u32 i = 1; i < n; ++i)
        EXPECT_EQ(z[i], 0u);
}

// The fast reference must be bit-identical to schoolbook, including at
// sizes that exercise both the recursion and the odd-length fallback.
TEST(Karatsuba, MatchesSchoolbook)
{
    // 66 halves to 33, hitting the odd-length schoolbook fallback.
    for (u32 n : {8u, 66u, 96u, 256u, 512u}) {
        const u32 q = testPrime(256); // any NTT prime works as a modulus
        const auto a = randomPoly(n, q, 11 * n);
        const auto b = randomPoly(n, q, 11 * n + 1);
        EXPECT_EQ(negacyclicMulKaratsuba(a, b, q),
                  negacyclicMulSchoolbook(a, b, q))
            << "n=" << n;
    }
}

// ---------------------------------------------------------------------
// 4-step with explicit reordering
// ---------------------------------------------------------------------
class FourStepTest
    : public ::testing::TestWithParam<std::tuple<u32, u32>> // (N, R)
{
};

TEST_P(FourStepTest, MatchesRadix2)
{
    const auto [n, r] = GetParam();
    const u32 q = testPrime(n);
    NttTables tab(n, q);
    FourStepPlan plan(tab, r);
    auto a = randomPoly(n, q, n + r);
    auto ct = a;
    forwardInPlace(ct.data(), tab);
    EXPECT_EQ(plan.forward(a), ct);
}

TEST_P(FourStepTest, RoundTrip)
{
    const auto [n, r] = GetParam();
    const u32 q = testPrime(n);
    NttTables tab(n, q);
    FourStepPlan plan(tab, r);
    const auto a = randomPoly(n, q, 2 * n + r);
    EXPECT_EQ(plan.inverse(plan.forward(a)), a);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FourStepTest,
    ::testing::Values(std::make_tuple(16u, 4u), std::make_tuple(64u, 8u),
                      std::make_tuple(256u, 16u), std::make_tuple(256u, 64u),
                      std::make_tuple(1024u, 32u),
                      std::make_tuple(4096u, 64u),
                      std::make_tuple(4096u, 128u)));

// ---------------------------------------------------------------------
// MAT layout-invariant 3-step
// ---------------------------------------------------------------------
class ThreeStepTest
    : public ::testing::TestWithParam<std::tuple<u32, u32>> // (N, R)
{
};

TEST_P(ThreeStepTest, MatchesRadix2WithZeroRuntimeReordering)
{
    const auto [n, r] = GetParam();
    const u32 q = testPrime(n);
    NttTables tab(n, q);
    ThreeStepPlan plan(tab, r);
    auto a = randomPoly(n, q, n * 3 + r);
    auto ct = a;
    forwardInPlace(ct.data(), tab);
    // The MAT claim: two matmuls + one elementwise multiply produce the
    // canonical bit-reversed layout directly.
    EXPECT_EQ(plan.forward(a), ct);
}

TEST_P(ThreeStepTest, InverseMatchesRadix2)
{
    const auto [n, r] = GetParam();
    const u32 q = testPrime(n);
    NttTables tab(n, q);
    ThreeStepPlan plan(tab, r);
    auto a = randomPoly(n, q, n * 5 + r);
    auto ct = a;
    forwardInPlace(ct.data(), tab); // canonical layout
    auto ref = ct;
    inverseInPlace(ref.data(), tab);
    EXPECT_EQ(plan.inverse(ct), ref);
    EXPECT_EQ(ref, a);
}

TEST_P(ThreeStepTest, LayoutInvariantPipeline)
{
    // NTT -> pointwise multiply -> INTT entirely in 3-step form equals the
    // negacyclic ring product; no permutation anywhere in the pipeline.
    const auto [n, r] = GetParam();
    const u32 q = testPrime(n);
    NttTables tab(n, q);
    ThreeStepPlan plan(tab, r);
    const auto a = randomPoly(n, q, n * 7 + r);
    const auto b = randomPoly(n, q, n * 7 + r + 1);
    auto ea = plan.forward(a);
    const auto eb = plan.forward(b);
    for (u32 i = 0; i < n; ++i)
        ea[i] = static_cast<u32>(nt::mulMod(ea[i], eb[i], q));
    EXPECT_EQ(plan.inverse(ea), negacyclicMulKaratsuba(a, b, q));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ThreeStepTest,
    ::testing::Values(std::make_tuple(16u, 4u), std::make_tuple(64u, 8u),
                      std::make_tuple(64u, 16u), std::make_tuple(256u, 16u),
                      std::make_tuple(1024u, 32u),
                      std::make_tuple(1024u, 128u),
                      std::make_tuple(4096u, 64u)));

TEST(ThreeStep, DefaultRowSplit)
{
    EXPECT_EQ(defaultRowSplit(1u << 16), 256u);
    EXPECT_EQ(defaultRowSplit(1u << 13), 128u);
    EXPECT_EQ(defaultRowSplit(16u), 4u);
}

TEST(ThreeStep, RejectsBadSplit)
{
    const u32 n = 64, q = testPrime(n);
    NttTables tab(n, q);
    EXPECT_THROW(ThreeStepPlan(tab, 3), std::invalid_argument);
    EXPECT_THROW(ThreeStepPlan(tab, 128), std::invalid_argument);
}

// ---------------------------------------------------------------------
// ModMatrix and the MAT folding identities (Fig. 9)
// ---------------------------------------------------------------------
TEST(ModMatrix, PermutationFoldingIntoVecMul)
{
    // Permute(VecMul(param, x)) == VecMul(offline-permuted param, x)
    // when VecMul is a matrix-vector product: P @ (M @ x) == (P @ M) @ x.
    const u32 q = 12289;
    const size_t n = 16;
    Rng rng(5);
    ModMatrix m(n, n, q);
    for (auto &v : m.data())
        v = static_cast<u32>(rng.uniform(q));
    std::vector<u32> x(n);
    for (auto &v : x)
        v = static_cast<u32>(rng.uniform(q));
    std::vector<u32> map(n);
    for (size_t i = 0; i < n; ++i)
        map[i] = static_cast<u32>((i * 5 + 3) % n); // a permutation of Z_16

    const auto y = matVec(m, x);
    std::vector<u32> permuted_y(n);
    for (size_t i = 0; i < n; ++i)
        permuted_y[i] = y[map[i]];

    EXPECT_EQ(matVec(m.rowPermuted(map), x), permuted_y);
    // And as an explicit permutation matrix product:
    const auto p = ModMatrix::permutation(map, q);
    EXPECT_EQ(matMul(p, m), m.rowPermuted(map));
}

TEST(ModMatrix, TransposeEliminationIdentity)
{
    // (A @ B)^T == B^T @ A^T: the identity MAT uses to remove the 4-step
    // transpose (Section IV-B2a).
    const u32 q = 12289;
    Rng rng(6);
    ModMatrix a(5, 7, q), b(7, 3, q);
    for (auto &v : a.data())
        v = static_cast<u32>(rng.uniform(q));
    for (auto &v : b.data())
        v = static_cast<u32>(rng.uniform(q));
    EXPECT_EQ(matMul(a, b).transposed(),
              matMul(b.transposed(), a.transposed()));
}

TEST(ModMatrix, PermutationInverseIsTranspose)
{
    const u32 q = 97;
    const auto map = bitReverseTable(8);
    const auto p = ModMatrix::permutation(map, q);
    EXPECT_EQ(matMul(p, p.transposed()), ModMatrix::identity(8, q));
}

TEST(ModMatrix, HadamardAndEntryInverse)
{
    const u32 q = 12289;
    Rng rng(7);
    ModMatrix a(4, 6, q);
    for (auto &v : a.data())
        v = static_cast<u32>(rng.range(1, q - 1));
    const auto prod = a.hadamard(a.entryInverse());
    for (u32 v : prod.data())
        EXPECT_EQ(v, 1u);
}

TEST(ModMatrix, RejectsNonPermutation)
{
    EXPECT_THROW(ModMatrix::permutation({0, 0, 1}, 97),
                 std::invalid_argument);
    EXPECT_THROW(ModMatrix::permutation({0, 3}, 97), std::invalid_argument);
}

TEST(ModMatrix, MatMulAgainstNaive)
{
    const u32 q = 268369921;
    Rng rng(8);
    ModMatrix a(9, 17, q), b(17, 5, q);
    for (auto &v : a.data())
        v = static_cast<u32>(rng.uniform(q));
    for (auto &v : b.data())
        v = static_cast<u32>(rng.uniform(q));
    const auto z = matMul(a, b);
    for (size_t r = 0; r < 9; ++r) {
        for (size_t c = 0; c < 5; ++c) {
            u64 acc = 0;
            for (size_t k = 0; k < 17; ++k)
                acc = nt::addMod(acc, nt::mulMod(a.at(r, k), b.at(k, c), q),
                                 q);
            EXPECT_EQ(z.at(r, c), acc);
        }
    }
}

// ---------------------------------------------------------------------
// Ring / RnsPoly
// ---------------------------------------------------------------------
class RingTest : public ::testing::Test
{
  protected:
    static constexpr u32 n = 256;
    RingTest()
        : ring(n, nt::generateNttPrimes(28, 3, 2ULL * n)), rng(99)
    {
    }
    Ring ring;
    Rng rng;
};

TEST_F(RingTest, EvalCoeffRoundTrip)
{
    auto p = RnsPoly::uniform(ring, 3, false, rng);
    const auto orig = p;
    p.toEval();
    EXPECT_TRUE(p.isEval());
    p.toCoeff();
    EXPECT_TRUE(p == orig);
}

TEST_F(RingTest, PointwiseMulMatchesSchoolbookPerLimb)
{
    auto a = RnsPoly::uniform(ring, 3, false, rng);
    auto b = RnsPoly::uniform(ring, 3, false, rng);
    std::vector<std::vector<u32>> expect(3);
    for (size_t i = 0; i < 3; ++i)
        expect[i] =
            negacyclicMulSchoolbook(a.limb(i), b.limb(i), ring.modulus(i));
    a.toEval();
    b.toEval();
    a.mulPointwiseInPlace(b);
    a.toCoeff();
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(a.limb(i), expect[i]);
}

TEST_F(RingTest, AddSubNegate)
{
    auto a = RnsPoly::uniform(ring, 2, false, rng);
    auto b = RnsPoly::uniform(ring, 2, false, rng);
    auto s = a;
    s.addInPlace(b);
    s.subInPlace(b);
    EXPECT_TRUE(s == a);
    auto neg = a;
    neg.negateInPlace();
    neg.addInPlace(a);
    for (size_t i = 0; i < 2; ++i)
        for (u32 v : neg.limb(i))
            EXPECT_EQ(v, 0u);
}

TEST_F(RingTest, ScalarMultiplies)
{
    auto a = RnsPoly::uniform(ring, 3, false, rng);
    auto b = a;
    b.mulConstantInPlace(5);
    for (size_t i = 0; i < 3; ++i) {
        const u64 q = ring.modulus(i);
        for (u32 j = 0; j < ring.degree(); ++j)
            EXPECT_EQ(b.limb(i)[j], nt::mulMod(a.limb(i)[j], 5, q));
    }
}

TEST_F(RingTest, CoeffAutomorphismComposition)
{
    auto a = RnsPoly::uniform(ring, 2, false, rng);
    // k and its inverse mod 2N compose to the identity.
    const u32 k = 5;
    const u32 k_inv = static_cast<u32>(nt::invMod(k, 2ULL * n));
    const auto b = a.automorphism(k).automorphism(k_inv);
    EXPECT_TRUE(b == a);
}

TEST_F(RingTest, EvalAutomorphismCommutesWithNtt)
{
    // NTT(auto_k(a)) == auto_k^eval(NTT(a)): the property that lets HE
    // rotate ciphertexts without leaving the evaluation domain.
    for (u32 k : {5u, 25u, 2u * n - 1u}) {
        auto a = RnsPoly::uniform(ring, 2, false, rng);
        auto lhs = a.automorphism(k);
        lhs.toEval();
        auto rhs = a;
        rhs.toEval();
        rhs = rhs.automorphism(k);
        EXPECT_TRUE(lhs == rhs) << "k=" << k;
    }
}

TEST_F(RingTest, AutomorphismPreservesRingProduct)
{
    // tau_k(a * b) == tau_k(a) * tau_k(b)
    const u32 k = 5;
    auto a = RnsPoly::uniform(ring, 1, false, rng);
    auto b = RnsPoly::uniform(ring, 1, false, rng);
    auto lhs_a = a.limb(0);
    auto lhs_b = b.limb(0);
    const u64 q = ring.modulus(0);
    auto prod = negacyclicMulSchoolbook(lhs_a, lhs_b, q);
    RnsPoly prod_poly(ring, 1, false);
    prod_poly.limb(0) = prod;
    const auto lhs = prod_poly.automorphism(k);

    auto ta = a.automorphism(k);
    auto tb = b.automorphism(k);
    const auto rhs = negacyclicMulSchoolbook(ta.limb(0), tb.limb(0), q);
    EXPECT_EQ(lhs.limb(0), rhs);
}

TEST_F(RingTest, SamplingShapes)
{
    auto t = RnsPoly::ternary(ring, 3, rng);
    for (u32 j = 0; j < ring.degree(); ++j) {
        const u32 v = t.limb(0)[j];
        const u64 q0 = ring.modulus(0);
        EXPECT_TRUE(v == 0 || v == 1 || v == q0 - 1);
        // Limbs encode the same signed value.
        const i64 s = nt::centered(v, q0);
        EXPECT_EQ(nt::centered(t.limb(2)[j], ring.modulus(2)), s);
    }
    auto g = RnsPoly::gaussian(ring, 2, rng, 3.2);
    for (u32 j = 0; j < ring.degree(); ++j) {
        const i64 s = nt::centered(g.limb(0)[j], ring.modulus(0));
        EXPECT_LT(std::abs(s), 64); // ~20 sigma
    }
}

TEST_F(RingTest, LimbManipulation)
{
    auto a = RnsPoly::uniform(ring, 3, false, rng);
    a.dropLastLimb();
    EXPECT_EQ(a.limbCount(), 2u);
    a.truncateLimbs(1);
    EXPECT_EQ(a.limbCount(), 1u);
    EXPECT_THROW(a.truncateLimbs(5), std::logic_error);
}

// ---------------------------------------------------------------------
// Limb free list (each check runs on a fresh thread, whose list starts
// empty)
// ---------------------------------------------------------------------
TEST_F(RingTest, ZeroPolynomialReusesDirtiedLimbsAsZeros)
{
    std::thread([&] {
        for (int form = 0; form < 2; ++form) {
            std::vector<const u32 *> released;
            {
                RnsPoly dirty = RnsPoly::uniform(ring, 3, true, rng);
                for (size_t i = 0; i < 3; ++i)
                    released.push_back(dirty.limb(i).data());
            }
            // Both zero-polynomial constructors take the same three
            // buffers back and must clear them.
            const RnsPoly zero = form == 0
                ? RnsPoly(ring, 3, true)
                : RnsPoly(ring, std::vector<u32>{2, 0, 1}, false);
            for (size_t i = 0; i < 3; ++i) {
                EXPECT_EQ(std::count(released.begin(), released.end(),
                                     zero.limb(i).data()),
                          1);
                EXPECT_TRUE(std::all_of(zero.limb(i).begin(),
                                        zero.limb(i).end(),
                                        [](u32 v) { return v == 0; }));
            }
        }
    }).join();
}

TEST_F(RingTest, FreeListRetainsAtMostItsCap)
{
    std::thread([&] {
        const size_t limb_bytes = n * sizeof(u32);
        {
            // A burst of twice the cap, released at once.
            std::vector<RnsPoly> burst;
            for (size_t i = 0; i < 2 * kLimbFreeListBytes / limb_bytes / 3;
                 ++i)
                burst.emplace_back(ring, 3, false);
            EXPECT_EQ(freeListBytes(), 0u);
        }
        EXPECT_LE(freeListBytes(), kLimbFreeListBytes);
        EXPECT_GT(freeListBytes() + limb_bytes, kLimbFreeListBytes);

        // Taking drains the list; a limb that is no longer n words long
        // is freed instead of kept.
        const size_t full = freeListBytes();
        RnsPoly p(ring, 1, false);
        EXPECT_EQ(freeListBytes(), full - limb_bytes);
        p.limb(0).resize(n / 2);
        p = RnsPoly();
        EXPECT_EQ(freeListBytes(), full - limb_bytes);
    }).join();
}

} // namespace
} // namespace cross::poly
