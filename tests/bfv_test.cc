/**
 * @file
 * BFV tests: batching encoder round trips, encrypt/decrypt, homomorphic
 * add / multiply / rotate against exact Z_t arithmetic, and key-switch
 * noise sanity. BFV is exact (no approximation tolerance): every check
 * is an integer equality.
 *
 * BFV's key switch is the hybrid body CKKS runs, at P = 1: it is
 * checked bit for bit against the textbook key switch of test_refs, its
 * KernelLog shape is pinned, and seeded keys and multiply / rotate
 * outputs are pinned to fingerprints recorded when BFV still ran a key
 * switch of its own.
 */
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "bfv/bfv.h"
#include "common/rng.h"

#include "test_refs.h"

namespace cross::bfv {
namespace {

/** N slot values uniform in Z_t, from @p seed. */
std::vector<u64>
randomSlots(const BfvContext &ctx, u64 seed)
{
    Rng r(seed);
    std::vector<u64> v(ctx.degree());
    for (auto &x : v)
        x = r.uniform(ctx.plainModulus());
    return v;
}

/** FNV-1a over every coefficient of the polynomials added, in order. */
struct Fingerprint
{
    u64 h = 0xcbf29ce484222325ULL;

    Fingerprint &
    add(const poly::RnsPoly &p)
    {
        for (size_t i = 0; i < p.limbCount(); ++i) {
            for (u32 x : p.limb(i)) {
                h ^= x;
                h *= 0x100000001b3ULL;
            }
        }
        return *this;
    }

    Fingerprint &
    add(const BfvSwitchKey &key)
    {
        for (const auto &[b, a] : key.keys)
            add(b).add(a);
        return *this;
    }
};

class BfvFixture : public ::testing::Test
{
  protected:
    BfvFixture()
        : ctx(BfvParams::testSet(1 << 10, 4, 16)), encoder(ctx),
          keygen(ctx, 77), evaluator(ctx), rng(78)
    {
        pk = keygen.publicKey();
    }

    std::vector<u64>
    randomSlots(u64 seed)
    {
        return bfv::randomSlots(ctx, seed);
    }

    BfvContext ctx;
    BfvEncoder encoder;
    BfvKeyGenerator keygen;
    BfvEvaluator evaluator;
    BfvPublicKey pk;
    Rng rng;
};

TEST_F(BfvFixture, ContextInvariants)
{
    EXPECT_EQ(ctx.plainModulus() % (2 * ctx.degree()), 1u);
    EXPECT_GT(ctx.bCount(), ctx.qCount()); // B > 2NQ guarantee
    // Delta * t <= Q < (Delta + 1) * t.
    const auto qt = ctx.bigQ();
    u64 rem = 0;
    const auto delta = qt.divmodSmall(ctx.plainModulus(), rem);
    EXPECT_EQ(delta.modSmall(ctx.ring().modulus(0)),
              ctx.deltaModQ(0) % ctx.ring().modulus(0));
}

TEST_F(BfvFixture, EncodeDecodeRoundTrip)
{
    const auto values = randomSlots(1);
    EXPECT_EQ(encoder.decode(encoder.encode(values)), values);
}

TEST_F(BfvFixture, EncodePartialPadsWithZeros)
{
    const std::vector<u64> values = {1, 2, 3};
    const auto decoded = encoder.decode(encoder.encode(values));
    EXPECT_EQ(decoded[0], 1u);
    EXPECT_EQ(decoded[2], 3u);
    for (size_t i = 3; i < decoded.size(); ++i)
        EXPECT_EQ(decoded[i], 0u);
}

TEST_F(BfvFixture, EncryptDecryptExact)
{
    const auto values = randomSlots(2);
    const auto ct = evaluator.encrypt(encoder.encode(values), pk, rng);
    const auto decoded =
        encoder.decode(evaluator.decrypt(ct, keygen.secretKey()));
    EXPECT_EQ(decoded, values);
}

TEST_F(BfvFixture, HomomorphicAdd)
{
    const auto a = randomSlots(3);
    const auto b = randomSlots(4);
    const auto ca = evaluator.encrypt(encoder.encode(a), pk, rng);
    const auto cb = evaluator.encrypt(encoder.encode(b), pk, rng);
    const auto sum = encoder.decode(
        evaluator.decrypt(evaluator.add(ca, cb), keygen.secretKey()));
    const u64 t = ctx.plainModulus();
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(sum[i], (a[i] + b[i]) % t);
}

TEST_F(BfvFixture, HomomorphicMultiplyExact)
{
    const auto rlk = keygen.relinKey();
    const auto a = randomSlots(5);
    const auto b = randomSlots(6);
    const auto ca = evaluator.encrypt(encoder.encode(a), pk, rng);
    const auto cb = evaluator.encrypt(encoder.encode(b), pk, rng);
    const auto prod = encoder.decode(evaluator.decrypt(
        evaluator.multiply(ca, cb, rlk), keygen.secretKey()));
    const u64 t = ctx.plainModulus();
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(prod[i], a[i] * b[i] % t) << "slot " << i;
}

TEST_F(BfvFixture, MultiplyThenAdd)
{
    const auto rlk = keygen.relinKey();
    const auto a = randomSlots(7);
    const auto b = randomSlots(8);
    const auto c = randomSlots(9);
    const auto ca = evaluator.encrypt(encoder.encode(a), pk, rng);
    const auto cb = evaluator.encrypt(encoder.encode(b), pk, rng);
    const auto cc = evaluator.encrypt(encoder.encode(c), pk, rng);
    const auto result = encoder.decode(evaluator.decrypt(
        evaluator.add(evaluator.multiply(ca, cb, rlk), cc),
        keygen.secretKey()));
    const u64 t = ctx.plainModulus();
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(result[i], (a[i] * b[i] + c[i]) % t);
}

TEST_F(BfvFixture, RotationPermutesSlots)
{
    // Galois element 5 acts on the NTT-mod-t slot order exactly as in
    // CKKS: a cyclic rotation within each conjugacy orbit. Verify against
    // the plaintext automorphism rather than a hardcoded pattern.
    const u32 k = 5;
    const auto key = keygen.rotationKey(k);
    const auto values = randomSlots(10);
    const auto ct = evaluator.encrypt(encoder.encode(values), pk, rng);
    const auto rotated = encoder.decode(
        evaluator.decrypt(evaluator.rotate(ct, k, key),
                          keygen.secretKey()));

    // Expected: apply the same automorphism to the plaintext polynomial.
    auto pt = encoder.encode(values);
    poly::RnsPoly tmp(ctx.ring(), 1, false);
    // Plaintext automorphism in coefficient domain modulo t.
    std::vector<u32> expect_coeffs(ctx.degree());
    const u64 two_n = 2ULL * ctx.degree();
    const u32 t = ctx.plainModulus();
    for (u32 j = 0; j < ctx.degree(); ++j) {
        const u64 e = (static_cast<u64>(j) * k) % two_n;
        const u32 v = pt.coeffs[j];
        if (e < ctx.degree())
            expect_coeffs[e] = v;
        else
            expect_coeffs[e - ctx.degree()] =
                static_cast<u32>(nt::negMod(v, t));
    }
    BfvPlaintext expect_pt;
    expect_pt.coeffs = expect_coeffs;
    EXPECT_EQ(rotated, encoder.decode(expect_pt));
}

TEST_F(BfvFixture, KeySwitchPreservesDecryption)
{
    // keySwitch(c, swk_{s->s}) must decrypt to c * s.
    const auto swk = keygen.relinKey(); // targets s^2
    const auto values = randomSlots(11);
    const auto ct = evaluator.encrypt(encoder.encode(values), pk, rng);
    // relinearising c1 * s^2 is exercised inside multiply; here check the
    // degree-2 pipeline end to end via squaring.
    const auto sq = encoder.decode(evaluator.decrypt(
        evaluator.multiply(ct, ct, swk), keygen.secretKey()));
    const u64 t = ctx.plainModulus();
    for (size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(sq[i], values[i] * values[i] % t);
}

TEST_F(BfvFixture, KernelLogCoversExpectedKinds)
{
    ckks::KernelLog log;
    BfvEvaluator ev(ctx, &log);
    const auto rlk = keygen.relinKey();
    const auto ct = ev.encrypt(encoder.encode(randomSlots(12)), pk, rng);
    (void)ev.multiply(ct, ct, rlk);
    bool has_ntt = false, has_bconv = false, has_mul = false;
    for (const auto &c : log.calls()) {
        has_ntt |= c.kind == ckks::KernelKind::Ntt;
        has_bconv |= c.kind == ckks::KernelKind::BConv;
        has_mul |= c.kind == ckks::KernelKind::VecModMul;
    }
    EXPECT_TRUE(has_ntt);
    EXPECT_TRUE(has_bconv);
    EXPECT_TRUE(has_mul);
}

TEST_F(BfvFixture, RotationKernelLogShape)
{
    // Automorphism, then the shared key switch at P = 1: one INTT, a
    // BConv and an NTT per one-limb digit, the fused inner product
    // (its sums logged at 0 s) and no ModDown; then the c0 add.
    const auto key = keygen.rotationKey(5);
    const auto ct = evaluator.encrypt(encoder.encode(randomSlots(13)), pk,
                                      rng);
    ckks::KernelLog log;
    (void)BfvEvaluator(ctx, &log).rotate(ct, 5, key);

    using K = ckks::KernelKind;
    const u32 l = static_cast<u32>(ctx.qCount());
    std::vector<std::tuple<K, u32, u32>> expect = {{K::Automorphism, 2 * l, 0},
                                                   {K::Intt, l, 0}};
    for (u32 i = 0; i < l; ++i) {
        expect.emplace_back(K::BConv, 1, l - 1);
        expect.emplace_back(K::Ntt, l - 1, 0);
    }
    expect.emplace_back(K::VecModMul, 2 * l * l, 0);
    expect.emplace_back(K::VecModAdd, 2 * l * l, 0);
    expect.emplace_back(K::VecModAdd, l, 0);

    std::vector<std::tuple<K, u32, u32>> got;
    for (const auto &c : log.calls()) {
        EXPECT_EQ(c.n, ctx.degree());
        got.emplace_back(c.kind, c.limbs, c.limbsOut);
    }
    EXPECT_EQ(got, expect);
}

TEST(BfvKeySwitch, MatchesTextbookReferenceBitForBit)
{
    for (size_t limbs : {4u, 8u}) {
        SCOPED_TRACE("limbs " + std::to_string(limbs));
        const BfvContext ctx(BfvParams::testSet(1 << 10, limbs, 16));
        const BfvEncoder encoder(ctx);
        BfvKeyGenerator keygen(ctx, 0x4b5);
        const auto pk = keygen.publicKey();
        const auto rlk = keygen.relinKey();
        const auto rot = keygen.rotationKey(5);
        const BfvEvaluator evaluator(ctx);
        Rng rng(0x4b6);
        const auto ct = evaluator.encrypt(
            encoder.encode(randomSlots(ctx, 14)), pk, rng);
        const auto &ks = ctx.hybridKeySwitch();

        const auto [k0, k1] = ks.keySwitch(ct.c1, rlk, nullptr);
        const auto [r0, r1] = testref::textbookKeySwitch(ks, ct.c1, rlk, 1);
        EXPECT_TRUE(k0 == r0) << "keySwitch c0";
        EXPECT_TRUE(k1 == r1) << "keySwitch c1";

        // rotate: the automorphism first, then the key switch.
        const auto rotated = evaluator.rotate(ct, 5, rot);
        auto [t0, t1] = testref::textbookKeySwitch(
            ks, ct.c1.automorphism(5), rot, 1);
        t0.addInPlace(ct.c0.automorphism(5));
        EXPECT_TRUE(rotated.c0 == t0) << "rotate c0";
        EXPECT_TRUE(rotated.c1 == t1) << "rotate c1";
    }
}

TEST(BfvKeySwitch, KeysAndOutputsMatchRecordedFingerprints)
{
    // Recorded from the same seeded run when BFV had a key-switch loop
    // and key generator of its own (N = 2^10, t of 16 bits).
    struct Pin
    {
        size_t limbs;
        u64 rlk, rot, mult, rotate;
    };
    const Pin pins[] = {
        {4, 0x5988b2b847d71524ULL, 0x4da32f3fb6344973ULL,
         0x5e0d36041ea766beULL, 0x15215c72bb07b1afULL},
        {8, 0xe4fba5bbcc288472ULL, 0x22cff8e224f75883ULL,
         0x3f3ab30c6abd0841ULL, 0x780dc4dfdc6e344bULL},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE("limbs " + std::to_string(pin.limbs));
        const BfvContext ctx(BfvParams::testSet(1 << 10, pin.limbs, 16));
        const BfvEncoder encoder(ctx);
        BfvKeyGenerator keygen(ctx, 77);
        const auto pk = keygen.publicKey();
        const BfvSwitchKey rlk = keygen.relinKey();
        const BfvSwitchKey rot = keygen.rotationKey(5);
        const BfvEvaluator evaluator(ctx);
        Rng rng(78);
        const auto ca = evaluator.encrypt(
            encoder.encode(randomSlots(ctx, 5)), pk, rng);
        const auto cb = evaluator.encrypt(
            encoder.encode(randomSlots(ctx, 6)), pk, rng);
        const auto prod = evaluator.multiply(ca, cb, rlk);
        const auto rotated = evaluator.rotate(ca, 5, rot);

        EXPECT_EQ(Fingerprint().add(rlk).h, pin.rlk);
        EXPECT_EQ(Fingerprint().add(rot).h, pin.rot);
        EXPECT_EQ(Fingerprint().add(prod.c0).add(prod.c1).h, pin.mult);
        EXPECT_EQ(Fingerprint().add(rotated.c0).add(rotated.c1).h,
                  pin.rotate);
    }
}

TEST(BfvParams, OneLimbContextRejectsKeySwitch)
{
    // One limb leaves no other limb to convert a digit into (and there
    // is no auxiliary modulus): the context and keys build, but
    // relinearisation and rotation are rejected.
    const BfvContext ctx(BfvParams::testSet(1 << 10, 1, 16));
    const BfvEncoder encoder(ctx);
    BfvKeyGenerator keygen(ctx, 5);
    const auto pk = keygen.publicKey();
    const auto rlk = keygen.relinKey();
    const auto rot = keygen.rotationKey(5);
    const BfvEvaluator evaluator(ctx);
    Rng rng(6);
    const auto ct = evaluator.encrypt(encoder.encode({1, 2, 3}), pk, rng);
    EXPECT_THROW((void)evaluator.multiply(ct, ct, rlk),
                 std::invalid_argument);
    EXPECT_THROW((void)evaluator.rotate(ct, 5, rot), std::invalid_argument);
}

TEST(BfvParams, Validation)
{
    auto make = [](const BfvParams &p) { BfvContext ctx(p); };
    make(BfvParams::testSet()); // sane params construct fine
    EXPECT_THROW(make(BfvParams::testSet(100, 4)),
                 std::invalid_argument); // non power of two
    auto p = BfvParams::testSet();
    p.logt = 30; // t !<< q
    EXPECT_THROW(make(p), std::invalid_argument);
}

} // namespace
} // namespace cross::bfv
