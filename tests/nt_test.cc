/**
 * @file
 * Unit and property tests for the number-theory substrate: generic modular
 * ops, Montgomery (wide and paper-Algorithm-1 forms), Barrett, Shoup,
 * primality / NTT-prime generation, roots of unity and BigUInt.
 */
#include <gtest/gtest.h>

#include <iterator>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "nt/barrett.h"
#include "nt/bigint.h"
#include "nt/modops.h"
#include "nt/montgomery.h"
#include "nt/primes.h"
#include "nt/roots.h"
#include "nt/shoup.h"

namespace cross::nt {
namespace {

TEST(ModOps, AddSubNeg)
{
    const u64 q = 97;
    EXPECT_EQ(addMod(96, 96, q), 95u);
    EXPECT_EQ(addMod(0, 0, q), 0u);
    EXPECT_EQ(subMod(3, 5, q), 95u);
    EXPECT_EQ(subMod(5, 3, q), 2u);
    EXPECT_EQ(negMod(0, q), 0u);
    EXPECT_EQ(negMod(1, q), 96u);
}

TEST(ModOps, MulModMatchesWide)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const u64 q = rng.range(2, (1ULL << 31) - 1);
        const u64 a = rng.uniform(q);
        const u64 b = rng.uniform(q);
        const u64 expect =
            static_cast<u64>(static_cast<u128>(a) * b % q);
        EXPECT_EQ(mulMod(a, b, q), expect);
    }
}

TEST(ModOps, PowModFermat)
{
    for (u64 q : {97ULL, 7681ULL, 268369921ULL}) {
        ASSERT_TRUE(isPrime(q));
        Rng rng(q);
        for (int i = 0; i < 50; ++i) {
            const u64 a = rng.range(1, q - 1);
            EXPECT_EQ(powMod(a, q - 1, q), 1u) << "q=" << q << " a=" << a;
        }
    }
}

TEST(ModOps, PowModEdgeCases)
{
    EXPECT_EQ(powMod(5, 0, 7), 1u);
    EXPECT_EQ(powMod(0, 5, 7), 0u);
    EXPECT_EQ(powMod(1, 1ULL << 63, 7), 1u);
}

TEST(ModOps, InvModRoundTrip)
{
    Rng rng(2);
    for (int i = 0; i < 200; ++i) {
        const u64 q = rng.range(3, 1ULL << 31);
        const u64 a = rng.range(1, q - 1);
        if (std::gcd(a, q) != 1)
            continue;
        const u64 inv = invMod(a, q);
        EXPECT_EQ(mulMod(a, inv, q), 1u);
        EXPECT_LT(inv, q);
    }
}

TEST(ModOps, InvModRejectsNonCoprime)
{
    EXPECT_THROW(invMod(6, 9), std::invalid_argument);
    EXPECT_THROW(invMod(0, 7), std::invalid_argument);
}

TEST(ModOps, Centered)
{
    EXPECT_EQ(centered(0, 97), 0);
    EXPECT_EQ(centered(48, 97), 48);
    EXPECT_EQ(centered(49, 97), -48);
    EXPECT_EQ(centered(96, 97), -1);
}

// ---------------------------------------------------------------------
// Montgomery: parameterised over representative NTT primes.
// ---------------------------------------------------------------------
class MontgomeryTest : public ::testing::TestWithParam<u32>
{
};

TEST_P(MontgomeryTest, ReduceCongruenceAndRange)
{
    const u32 q = GetParam();
    Montgomery mont(q);
    Rng rng(q);
    const u64 r_inv = invMod(1ULL << 32, q); // 2^-32 mod q
    for (int i = 0; i < 2000; ++i) {
        // Precondition of Algorithm 1: z < 2^32 * q.
        const u64 z = rng.uniform(static_cast<u64>(q) << 32);
        const u32 b = mont.reduce(z);
        EXPECT_LT(b, 2 * q);
        EXPECT_EQ(b % q, mulMod(z % q, r_inv, q));
    }
}

TEST_P(MontgomeryTest, PaperAlg1MatchesWideForm)
{
    const u32 q = GetParam();
    Montgomery mont(q);
    Rng rng(q + 1);
    for (int i = 0; i < 5000; ++i) {
        const u64 z = rng.uniform(static_cast<u64>(q) << 32);
        EXPECT_EQ(mont.reducePaper(z), mont.reduce(z)) << "z=" << z;
    }
}

TEST_P(MontgomeryTest, DomainRoundTripAndMul)
{
    const u32 q = GetParam();
    Montgomery mont(q);
    Rng rng(q + 2);
    for (int i = 0; i < 1000; ++i) {
        const u32 a = static_cast<u32>(rng.uniform(q));
        const u32 b = static_cast<u32>(rng.uniform(q));
        EXPECT_EQ(mont.fromMont(mont.toMont(a)), a);
        EXPECT_EQ(mont.mulPlain(a, b), mulMod(a, b, q));
        // One operand in Montgomery domain -> plain-domain product.
        EXPECT_EQ(mont.mulMont(mont.toMont(a), b), mulMod(a, b, q));
    }
}

TEST_P(MontgomeryTest, LazyInputsStayInContract)
{
    const u32 q = GetParam();
    Montgomery mont(q);
    Rng rng(q + 3);
    for (int i = 0; i < 1000; ++i) {
        // Lazy operands in [0, 2q): the product is still < 2^32 * q.
        const u64 a = rng.uniform(2 * static_cast<u64>(q));
        const u64 b = rng.uniform(2 * static_cast<u64>(q));
        const u32 r = mont.reduce(a * b);
        EXPECT_LT(r, 2 * q);
    }
}

INSTANTIATE_TEST_SUITE_P(
    NttPrimes, MontgomeryTest,
    ::testing::Values(268369921u,  // 28-bit, == 1 mod 2^16
                      268361729u,  // 28-bit
                      1073668097u, // 30-bit
                      12289u,      // tiny NTT prime
                      786433u, 3u, 2147483647u));

TEST(Montgomery, RejectsEvenAndHugeModuli)
{
    EXPECT_THROW(Montgomery(10u), std::invalid_argument);
    EXPECT_THROW(Montgomery(1u), std::invalid_argument);
    EXPECT_THROW(Montgomery(0x80000001u), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Barrett
// ---------------------------------------------------------------------
class BarrettTest : public ::testing::TestWithParam<u32>
{
};

TEST_P(BarrettTest, ProductReduction)
{
    const u32 q = GetParam();
    Barrett bar(q);
    Rng rng(q);
    for (int i = 0; i < 3000; ++i) {
        const u64 a = rng.uniform(q);
        const u64 b = rng.uniform(q);
        EXPECT_EQ(bar.reduceProduct(a * b), mulMod(a, b, q));
        EXPECT_EQ(bar.mul(static_cast<u32>(a), static_cast<u32>(b)),
                  mulMod(a, b, q));
    }
}

TEST_P(BarrettTest, WideReduction)
{
    const u32 q = GetParam();
    Barrett bar(q);
    Rng rng(q + 1);
    for (int i = 0; i < 3000; ++i) {
        const u64 z = rng.uniform(1ULL << 63);
        EXPECT_EQ(bar.reduceWide(z), z % q) << "z=" << z;
    }
    EXPECT_EQ(bar.reduceWide(0), 0u);
    EXPECT_EQ(bar.reduceWide((1ULL << 63) - 1), ((1ULL << 63) - 1) % q);
}

INSTANTIATE_TEST_SUITE_P(NttPrimes, BarrettTest,
                         ::testing::Values(268369921u, 12289u, 786433u,
                                           2147483647u, 3u, 65537u));

// ---------------------------------------------------------------------
// Shoup
// ---------------------------------------------------------------------
TEST(Shoup, MatchesReferenceOverRandomConstants)
{
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        const u32 q = static_cast<u32>(rng.range(3, (1u << 31) - 1));
        const u32 w = static_cast<u32>(rng.uniform(q));
        const auto c = shoupPrecompute(w, q);
        for (int j = 0; j < 50; ++j) {
            const u32 a = static_cast<u32>(rng.uniform(q));
            EXPECT_EQ(shoupMul(a, c, q), mulMod(a, w, q));
            const u32 lazy = shoupMulLazy(a, c, q);
            EXPECT_LT(lazy, 2 * static_cast<u64>(q));
            EXPECT_EQ(lazy % q, mulMod(a, w, q));
        }
    }
}

TEST(Shoup, AcceptsLazyInput)
{
    // Any u32 input: a 28-bit modulus, the widest lazy NTT prime
    // (q < 2^30) and the widest modulus the factor serves (2^31 - 1).
    Rng rng(8);
    for (u32 q : {268369921u, 1073692673u, 2147483647u}) {
        std::vector<u32> ws = {0, 1, q - 1};
        for (int i = 0; i < 100; ++i)
            ws.push_back(static_cast<u32>(rng.uniform(q)));
        for (u32 w : ws) {
            const auto c = shoupPrecompute(w, q);
            const u32 edges[] = {0, 1, q - 1, 2 * q - 1, 0xffffffffu};
            std::vector<u32> as(std::begin(edges), std::end(edges));
            for (int j = 0; j < 20; ++j)
                as.push_back(static_cast<u32>(rng.uniform(1ULL << 32)));
            for (u32 a : as) {
                const u64 expect = mulMod(a, w, q);
                EXPECT_EQ(shoupMul(a, c, q), expect)
                    << "q=" << q << " w=" << w << " a=" << a;
                const u32 lazy = shoupMulLazy(a, c, q);
                EXPECT_LT(lazy, 2 * u64{q})
                    << "q=" << q << " w=" << w << " a=" << a;
                EXPECT_EQ(lazy % q, expect)
                    << "q=" << q << " w=" << w << " a=" << a;
            }
        }
    }
}

TEST(Shoup, RejectsModulusOf32Bits)
{
    // 3 * 2^30 + 1 is an NTT prime, but 2q no longer fits 32 bits.
    EXPECT_THROW(shoupPrecompute(1, 3221225473u), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Primes
// ---------------------------------------------------------------------
TEST(Primes, KnownValues)
{
    EXPECT_FALSE(isPrime(0));
    EXPECT_FALSE(isPrime(1));
    EXPECT_TRUE(isPrime(2));
    EXPECT_TRUE(isPrime(3));
    EXPECT_FALSE(isPrime(561)); // Carmichael
    EXPECT_FALSE(isPrime(1ULL << 32));
    EXPECT_TRUE(isPrime((1ULL << 61) - 1)); // Mersenne prime
    EXPECT_TRUE(isPrime(268369921ULL));
    EXPECT_FALSE(isPrime(268369921ULL * 3));
}

TEST(Primes, GenerateNttPrimesContract)
{
    const u32 n = 1 << 12;
    const auto primes = generateNttPrimes(28, 10, 2ULL * n);
    ASSERT_EQ(primes.size(), 10u);
    for (u64 p : primes) {
        EXPECT_TRUE(isPrime(p));
        EXPECT_EQ(p % (2 * n), 1u);
        EXPECT_EQ(ilog2(p) + 1, 28u);
    }
    // Distinct and descending.
    for (size_t i = 1; i < primes.size(); ++i)
        EXPECT_LT(primes[i], primes[i - 1]);
}

TEST(Primes, GenerateAvoiding)
{
    const u32 n = 1 << 10;
    const auto a = generateNttPrimes(28, 4, 2ULL * n);
    const auto b = generateNttPrimesAvoiding(28, 4, 2ULL * n, a);
    for (u64 p : b)
        EXPECT_EQ(std::count(a.begin(), a.end(), p), 0);
}

TEST(Primes, DistinctPrimeFactors)
{
    EXPECT_EQ(distinctPrimeFactors(2 * 2 * 3 * 7),
              (std::vector<u64>{2, 3, 7}));
    EXPECT_EQ(distinctPrimeFactors(268369920ULL), // q-1 of an NTT prime
              distinctPrimeFactors(268369920ULL));
    const auto f = distinctPrimeFactors(268369920ULL);
    u64 prod_check = 268369920ULL;
    for (u64 p : f) {
        EXPECT_TRUE(isPrime(p));
        EXPECT_EQ(prod_check % p, 0u);
    }
}

// ---------------------------------------------------------------------
// Roots of unity
// ---------------------------------------------------------------------
TEST(Roots, PrimitiveRootHasFullOrder)
{
    for (u64 q : {12289ULL, 786433ULL, 268369921ULL}) {
        const u64 g = primitiveRoot(q);
        EXPECT_TRUE(hasOrder(g, q - 1, q));
    }
}

TEST(Roots, RootOfUnityProperties)
{
    const u64 q = 268369921ULL; // == 1 mod 2^16
    for (u64 n : {8ULL, 256ULL, 1ULL << 13}) {
        const u64 w = rootOfUnity(2 * n, q);
        EXPECT_TRUE(hasOrder(w, 2 * n, q));
        // psi^N == -1: the negacyclic wraparound identity.
        EXPECT_EQ(powMod(w, n, q), q - 1);
    }
}

TEST(Roots, RejectsNonDividingOrder)
{
    EXPECT_THROW(rootOfUnity(1ULL << 20, 12289ULL), std::invalid_argument);
}

// ---------------------------------------------------------------------
// BigUInt
// ---------------------------------------------------------------------
TEST(BigUInt, DecimalRoundTrip)
{
    const std::string s = "123456789012345678901234567890123456789";
    EXPECT_EQ(BigUInt::fromDecimal(s).toDecimal(), s);
    EXPECT_EQ(BigUInt().toDecimal(), "0");
    EXPECT_EQ(BigUInt(42).toDecimal(), "42");
}

TEST(BigUInt, ArithmeticAgainstWords)
{
    Rng rng(11);
    for (int i = 0; i < 300; ++i) {
        const u64 a = rng.next() >> 1;
        const u64 b = rng.next() >> 1;
        EXPECT_EQ((BigUInt(a) + BigUInt(b)).low64(), a + b);
        if (a >= b) {
            EXPECT_EQ((BigUInt(a) - BigUInt(b)).low64(), a - b);
        }
        const u128 p = static_cast<u128>(a) * b;
        const BigUInt prod = BigUInt(a) * b;
        EXPECT_EQ(prod.modSmall(1000000007ULL),
                  static_cast<u64>(p % 1000000007ULL));
    }
}

TEST(BigUInt, DivModSmall)
{
    const BigUInt x = BigUInt::fromDecimal("987654321098765432109876543210");
    u64 rem = 0;
    const BigUInt q = x.divmodSmall(97, rem);
    EXPECT_EQ((q * 97 + rem).toDecimal(), x.toDecimal());
    EXPECT_LT(rem, 97u);
}

TEST(BigUInt, ModBig)
{
    const BigUInt x = BigUInt::fromDecimal("987654321098765432109876543210");
    const BigUInt m = BigUInt::fromDecimal("12345678901234567");
    const BigUInt r = x.mod(m);
    EXPECT_TRUE(r < m);
    // x - r must be an exact multiple of m.
    EXPECT_TRUE((x - r).mod(m).isZero());
    // Consistency with word-sized mod when m fits a word.
    EXPECT_EQ(x.mod(BigUInt(97)).low64(), x.modSmall(97));
}

TEST(BigUInt, ShiftLeft)
{
    EXPECT_EQ(BigUInt(1).shl(100).modSmall(1000000007ULL),
              powMod(2, 100, 1000000007ULL));
    EXPECT_EQ(BigUInt(5).shl(0).low64(), 5u);
}

TEST(BigUInt, Product)
{
    const std::vector<u64> f = {268369921ULL, 268361729ULL, 268271617ULL};
    const BigUInt q = BigUInt::product(f);
    for (u64 p : f)
        EXPECT_EQ(q.modSmall(p), 0u);
    EXPECT_EQ(q.bitLength(), 84u); // 3 x 28-bit primes
}

TEST(BigUInt, CompareAndBitLength)
{
    EXPECT_EQ(BigUInt().bitLength(), 0u);
    EXPECT_EQ(BigUInt(1).bitLength(), 1u);
    EXPECT_EQ(BigUInt(255).bitLength(), 8u);
    EXPECT_TRUE(BigUInt(3) < BigUInt(4));
    EXPECT_TRUE(BigUInt(4) == BigUInt(4));
    EXPECT_EQ(
        BigUInt::fromDecimal("18446744073709551616").compare(BigUInt(~0ULL)),
        1);
}

} // namespace
} // namespace cross::nt
