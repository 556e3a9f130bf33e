/**
 * @file
 * End-to-end CKKS tests: encoder round trips, encrypt/decrypt, the four
 * backbone HE operators against plaintext arithmetic, rotation /
 * conjugation slot semantics, multiplicative depth, and the contract
 * between the functional evaluator's kernel log and the pure schedule
 * enumerator that the TPU cost model replays.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <string>

#include "ckks/bootstrap.h"
#include "ckks/context.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keys.h"
#include "ckks/schedule.h"
#include "common/rng.h"

namespace cross::ckks {
namespace {

constexpr double kScale = static_cast<double>(1ULL << 26);

std::vector<Complex>
randomSlots(size_t count, u64 seed, double mag = 1.0)
{
    Rng rng(seed);
    std::vector<Complex> v(count);
    for (auto &x : v)
        x = Complex((rng.real() * 2 - 1) * mag, (rng.real() * 2 - 1) * mag);
    return v;
}

double
maxError(const std::vector<Complex> &a, const std::vector<Complex> &b)
{
    double e = 0;
    for (size_t i = 0; i < a.size(); ++i)
        e = std::max(e, std::abs(a[i] - b[i]));
    return e;
}

class CkksFixture : public ::testing::Test
{
  protected:
    CkksFixture()
        : ctx(CkksParams::testSet(1 << 10, 5, 2)), encoder(ctx),
          keygen(ctx, 42), encryptor(ctx, keygen.publicKey(), 43),
          decryptor(ctx, keygen.secretKey()), evaluator(ctx)
    {
    }

    CkksContext ctx;
    CkksEncoder encoder;
    KeyGenerator keygen;
    CkksEncryptor encryptor;
    CkksDecryptor decryptor;
    CkksEvaluator evaluator;
};

// ---------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------
TEST_F(CkksFixture, EncodeDecodeRoundTrip)
{
    const auto values = randomSlots(encoder.slotCount(), 1);
    const auto pt = encoder.encode(values, kScale, ctx.qCount());
    const auto decoded = encoder.decode(pt);
    EXPECT_LT(maxError(values, decoded), 1e-5);
}

TEST_F(CkksFixture, EncodePartialVectorPadsWithZeros)
{
    const auto values = randomSlots(8, 2);
    const auto decoded =
        encoder.decode(encoder.encode(values, kScale, 2));
    for (size_t i = 0; i < 8; ++i)
        EXPECT_LT(std::abs(decoded[i] - values[i]), 1e-5);
    for (size_t i = 8; i < decoded.size(); ++i)
        EXPECT_LT(std::abs(decoded[i]), 1e-5);
}

TEST_F(CkksFixture, EncodeRejectsOverflowingScale)
{
    std::vector<Complex> big(4, Complex(1.0, 0));
    // 2^40 overflows a single 28-bit limb...
    EXPECT_THROW(encoder.encode(big, std::ldexp(1.0, 40), 1),
                 std::invalid_argument);
    // ...but is fine against two limbs (Q/2 ~ 2^55): double rescaling
    // relies on this.
    EXPECT_NO_THROW(encoder.encode(big, std::ldexp(1.0, 40), 2));
    // And the i64 lift bound always applies.
    EXPECT_THROW(encoder.encode(big, std::ldexp(1.0, 71), 5),
                 std::invalid_argument);
}

TEST_F(CkksFixture, EncoderIsLinear)
{
    const auto a = randomSlots(encoder.slotCount(), 3);
    const auto b = randomSlots(encoder.slotCount(), 4);
    auto pa = encoder.encode(a, kScale, 3);
    const auto pb = encoder.encode(b, kScale, 3);
    pa.poly.addInPlace(pb.poly);
    const auto sum = encoder.decode(pa);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(sum[i] - (a[i] + b[i])), 1e-5);
}

// ---------------------------------------------------------------------
// Encrypt / decrypt
// ---------------------------------------------------------------------
TEST_F(CkksFixture, EncryptDecryptRoundTrip)
{
    const auto values = randomSlots(encoder.slotCount(), 5);
    const auto ct =
        encryptor.encrypt(encoder.encode(values, kScale, ctx.qCount()));
    const auto decoded = encoder.decode(decryptor.decrypt(ct));
    // Fresh-encryption noise ~ sigma*N at scale 2^26.
    EXPECT_LT(maxError(values, decoded), 1e-3);
}

TEST_F(CkksFixture, FreshCiphertextHasFullLevel)
{
    const auto ct = encryptor.encrypt(
        encoder.encode(randomSlots(4, 6), kScale, ctx.qCount()));
    EXPECT_EQ(ct.limbs(), ctx.qCount());
    EXPECT_DOUBLE_EQ(ct.scale, kScale);
}

// ---------------------------------------------------------------------
// HE-Add / HE-Sub
// ---------------------------------------------------------------------
TEST_F(CkksFixture, HomomorphicAddSub)
{
    const auto a = randomSlots(encoder.slotCount(), 7, 0.5);
    const auto b = randomSlots(encoder.slotCount(), 8, 0.5);
    const auto ca =
        encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    const auto cb =
        encryptor.encrypt(encoder.encode(b, kScale, ctx.qCount()));

    const auto sum = encoder.decode(decryptor.decrypt(evaluator.add(ca, cb)));
    const auto diff =
        encoder.decode(decryptor.decrypt(evaluator.sub(ca, cb)));
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_LT(std::abs(sum[i] - (a[i] + b[i])), 1e-3);
        EXPECT_LT(std::abs(diff[i] - (a[i] - b[i])), 1e-3);
    }
}

TEST_F(CkksFixture, AddPlain)
{
    const auto a = randomSlots(encoder.slotCount(), 9, 0.5);
    const auto b = randomSlots(encoder.slotCount(), 10, 0.5);
    const auto ca =
        encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    const auto pb = encoder.encode(b, kScale, ctx.qCount());
    const auto sum =
        encoder.decode(decryptor.decrypt(evaluator.addPlain(ca, pb)));
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(sum[i] - (a[i] + b[i])), 1e-3);
}

// ---------------------------------------------------------------------
// HE-Mult + relinearisation + rescale
// ---------------------------------------------------------------------
TEST_F(CkksFixture, HomomorphicMultiply)
{
    const auto rlk =
        evaluator.precomputeKeySwitch(keygen.relinKey(), ctx.qCount() - 1);
    const auto a = randomSlots(encoder.slotCount(), 11, 0.8);
    const auto b = randomSlots(encoder.slotCount(), 12, 0.8);
    const auto ca =
        encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    const auto cb =
        encryptor.encrypt(encoder.encode(b, kScale, ctx.qCount()));

    auto prod = evaluator.multiply(ca, cb, rlk);
    EXPECT_DOUBLE_EQ(prod.scale, kScale * kScale);
    prod = evaluator.rescale(prod);
    EXPECT_EQ(prod.limbs(), ctx.qCount() - 1);

    const auto decoded = encoder.decode(decryptor.decrypt(prod));
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(decoded[i] - a[i] * b[i]), 1e-2);
}

TEST_F(CkksFixture, MultiplyPlain)
{
    const auto a = randomSlots(encoder.slotCount(), 13, 0.8);
    const auto w = randomSlots(encoder.slotCount(), 14, 0.8);
    const auto ca =
        encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    const auto pw = encoder.encode(w, kScale, ctx.qCount());
    auto prod = evaluator.rescale(evaluator.multiplyPlain(ca, pw));
    const auto decoded = encoder.decode(decryptor.decrypt(prod));
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(decoded[i] - a[i] * w[i]), 1e-2);
}

// The binary ops read only the limbs their result keeps, so an operand
// with more limbs gives the same bits as its truncation, either side.
TEST_F(CkksFixture, LongerOperandsMatchTheirTruncation)
{
    const auto ca = encryptor.encrypt(encoder.encode(
        randomSlots(encoder.slotCount(), 15, 0.5), kScale, ctx.qCount()));
    const auto cb = encryptor.encrypt(encoder.encode(
        randomSlots(encoder.slotCount(), 16, 0.5), kScale, ctx.qCount()));
    const size_t low = ctx.qCount() - 2;
    const auto rlk = evaluator.precomputeKeySwitch(keygen.relinKey(), low - 1);
    const auto ca_low = evaluator.reduceToLimbs(ca, low);
    const auto cb_low = evaluator.reduceToLimbs(cb, low);
    const auto same = [](const Ciphertext &x, const Ciphertext &y) {
        return x.c0 == y.c0 && x.c1 == y.c1 && x.scale == y.scale;
    };

    const auto sum = evaluator.add(ca_low, cb_low);
    EXPECT_TRUE(same(evaluator.add(ca_low, cb), sum));
    EXPECT_TRUE(same(evaluator.add(ca, cb_low), sum));
    const auto diff = evaluator.sub(ca_low, cb_low);
    EXPECT_TRUE(same(evaluator.sub(ca_low, cb), diff));
    EXPECT_TRUE(same(evaluator.sub(ca, cb_low), diff));
    EXPECT_TRUE(same(evaluator.multiply(ca_low, cb, rlk),
                     evaluator.multiply(ca_low, cb_low, rlk)));

    const auto pt = encoder.encode(randomSlots(encoder.slotCount(), 17, 0.5),
                                   kScale, ctx.qCount());
    Plaintext pt_low = pt;
    pt_low.poly.truncateLimbs(low);
    EXPECT_TRUE(same(evaluator.addPlain(ca_low, pt),
                     evaluator.addPlain(ca_low, pt_low)));
    EXPECT_TRUE(same(evaluator.multiplyPlain(ca_low, pt),
                     evaluator.multiplyPlain(ca_low, pt_low)));
}

// add, sub, relinearize, rescale, addPlain, multiplyPlain, reduceToLimbs
// and keySwitch take the input they change by value: an lvalue argument
// comes back unchanged, and moving the input in gives the same bits as
// copying it, at every level.
TEST_F(CkksFixture, ConsumingOpsLeaveLvaluesAndMatchMovedInputs)
{
    const auto rlk = keygen.relinKey();
    const auto top = encryptor.encrypt(encoder.encode(
        randomSlots(encoder.slotCount(), 40, 0.5), kScale, ctx.qCount()));
    const auto rhs_top = encryptor.encrypt(encoder.encode(
        randomSlots(encoder.slotCount(), 41, 0.5), kScale, ctx.qCount()));
    const auto same = [](const Ciphertext &x, const Ciphertext &y) {
        return x.c0 == y.c0 && x.c1 == y.c1 && x.scale == y.scale;
    };
    for (size_t limbs = ctx.qCount(); limbs >= 2; --limbs) {
        SCOPED_TRACE("limbs " + std::to_string(limbs));
        const Ciphertext x = evaluator.reduceToLimbs(top, limbs);
        const Ciphertext y = evaluator.reduceToLimbs(rhs_top, limbs);
        const Ciphertext y_low = evaluator.reduceToLimbs(rhs_top, limbs - 1);
        const auto pt = encoder.encode(
            randomSlots(encoder.slotCount(), 42, 0.5), kScale, limbs);
        const auto pre = evaluator.precomputeKeySwitch(rlk, limbs - 1);

        // Run op on an lvalue copy of x, then on a moved-in one.
        const auto check = [&](const char *name, const auto &op) {
            SCOPED_TRACE(name);
            Ciphertext kept = x;
            const Ciphertext from_copy = op(kept);
            EXPECT_TRUE(same(kept, x));
            Ciphertext dying = x;
            EXPECT_TRUE(same(op(std::move(dying)), from_copy));
        };
        check("add", [&](auto &&in) {
            return evaluator.add(std::forward<decltype(in)>(in), y);
        });
        check("add to a lower level", [&](auto &&in) {
            return evaluator.add(std::forward<decltype(in)>(in), y_low);
        });
        check("sub", [&](auto &&in) {
            return evaluator.sub(std::forward<decltype(in)>(in), y);
        });
        check("rescale", [&](auto &&in) {
            return evaluator.rescale(std::forward<decltype(in)>(in));
        });
        check("addPlain", [&](auto &&in) {
            return evaluator.addPlain(std::forward<decltype(in)>(in), pt);
        });
        check("multiplyPlain", [&](auto &&in) {
            return evaluator.multiplyPlain(std::forward<decltype(in)>(in),
                                           pt);
        });
        check("reduceToLimbs", [&](auto &&in) {
            return evaluator.reduceToLimbs(std::forward<decltype(in)>(in),
                                           limbs - 1);
        });
        check("keySwitch", [&](auto &&in) {
            auto [k0, k1] = evaluator.keySwitch(
                std::forward<decltype(in)>(in).c1, pre);
            return Ciphertext{std::move(k0), std::move(k1), 1.0};
        });

        const Ciphertext3 c3 = evaluator.multiplyNoRelin(x, y);
        Ciphertext3 kept = c3;
        const Ciphertext relin = evaluator.relinearize(kept, pre);
        EXPECT_TRUE(kept.c0 == c3.c0 && kept.c1 == c3.c1 &&
                    kept.c2 == c3.c2 && kept.scale == c3.scale);
        Ciphertext3 dying = c3;
        EXPECT_TRUE(same(evaluator.relinearize(std::move(dying), pre), relin));
    }
}

TEST_F(CkksFixture, MultiplicativeDepthChain)
{
    const auto rlk = keygen.relinKey();
    const auto a = randomSlots(encoder.slotCount(), 15, 0.9);
    auto ct = encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));

    // Square twice: depth 2 with rescale after each multiply.
    auto sq = evaluator.rescale(evaluator.multiply(
        ct, ct, evaluator.precomputeKeySwitch(rlk, ct.limbs() - 1)));
    auto quad = evaluator.rescale(evaluator.multiply(
        sq, sq, evaluator.precomputeKeySwitch(rlk, sq.limbs() - 1)));
    EXPECT_EQ(quad.limbs(), ctx.qCount() - 2);

    const auto decoded = encoder.decode(decryptor.decrypt(quad));
    for (size_t i = 0; i < a.size(); ++i) {
        const Complex expect = std::pow(a[i], 4);
        EXPECT_LT(std::abs(decoded[i] - expect), 5e-2);
    }
}

TEST_F(CkksFixture, RescaleDividesScale)
{
    const auto a = randomSlots(4, 16, 0.5);
    auto ct = encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    ct.scale = kScale; // fresh
    const auto rlk =
        evaluator.precomputeKeySwitch(keygen.relinKey(), ct.limbs() - 1);
    auto prod = evaluator.multiply(ct, ct, rlk);
    const double before = prod.scale;
    auto rs = evaluator.rescale(prod);
    const double q_l =
        static_cast<double>(ctx.qModulus(ctx.qCount() - 1));
    EXPECT_NEAR(rs.scale, before / q_l, before / q_l * 1e-12);
}

// ---------------------------------------------------------------------
// Rotation / conjugation
// ---------------------------------------------------------------------
TEST_F(CkksFixture, RotationRotatesSlots)
{
    for (i64 steps : {1, 2, 7}) {
        const u32 k = encoder.rotationAutomorphism(steps);
        const auto rot_key = evaluator.precomputeKeySwitch(
            keygen.rotationKey(k), ctx.qCount() - 1);
        const auto a = randomSlots(encoder.slotCount(), 17 + steps, 0.8);
        const auto ct =
            encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
        const auto rotated = evaluator.rotate(ct, k, rot_key);
        const auto decoded = encoder.decode(decryptor.decrypt(rotated));
        const size_t half = encoder.slotCount();
        for (size_t j = 0; j < half; ++j) {
            const Complex expect = a[(j + static_cast<size_t>(steps)) % half];
            EXPECT_LT(std::abs(decoded[j] - expect), 1e-2)
                << "steps=" << steps << " slot=" << j;
        }
    }
}

TEST_F(CkksFixture, ConjugationConjugatesSlots)
{
    const u32 k = encoder.conjugationAutomorphism();
    const auto conj_key = evaluator.precomputeKeySwitch(keygen.rotationKey(k),
                                                        ctx.qCount() - 1);
    const auto a = randomSlots(encoder.slotCount(), 23, 0.8);
    const auto ct =
        encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    const auto decoded =
        encoder.decode(decryptor.decrypt(evaluator.rotate(ct, k, conj_key)));
    for (size_t j = 0; j < a.size(); ++j)
        EXPECT_LT(std::abs(decoded[j] - std::conj(a[j])), 1e-2);
}

TEST_F(CkksFixture, RotationComposition)
{
    // rot(rot(x, 1), 2) == rot(x, 3)
    const u32 k1 = encoder.rotationAutomorphism(1);
    const u32 k2 = encoder.rotationAutomorphism(2);
    const auto key1 =
        evaluator.precomputeKeySwitch(keygen.rotationKey(k1), ctx.qCount() - 1);
    const auto key2 =
        evaluator.precomputeKeySwitch(keygen.rotationKey(k2), ctx.qCount() - 1);
    const auto a = randomSlots(encoder.slotCount(), 24, 0.8);
    const auto ct =
        encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    const auto r12 =
        evaluator.rotate(evaluator.rotate(ct, k1, key1), k2, key2);
    const auto decoded = encoder.decode(decryptor.decrypt(r12));
    const size_t half = encoder.slotCount();
    for (size_t j = 0; j < half; ++j)
        EXPECT_LT(std::abs(decoded[j] - a[(j + 3) % half]), 2e-2);
}

// ---------------------------------------------------------------------
// Precomp / rotation safety (regression: silent-corruption guards)
// ---------------------------------------------------------------------
TEST_F(CkksFixture, MismatchedPrecompLevelThrows)
{
    const auto rlk = keygen.relinKey();
    const auto a = randomSlots(encoder.slotCount(), 31, 0.5);
    const auto ct =
        encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));

    // A precomp one level below the operands: accepted silently, it
    // would key-switch with the wrong digit restriction.
    const auto stale =
        evaluator.precomputeKeySwitch(rlk, ct.limbs() - 2);
    EXPECT_THROW(evaluator.multiply(ct, ct, stale),
                 std::invalid_argument);
    EXPECT_THROW(evaluator.relinearize(evaluator.multiplyNoRelin(ct, ct),
                                       stale),
                 std::invalid_argument);

    const u32 k = encoder.rotationAutomorphism(1);
    const auto rot_key = keygen.rotationKey(k);
    const auto rot_stale =
        evaluator.precomputeKeySwitch(rot_key, ct.limbs() - 2);
    EXPECT_THROW(evaluator.rotate(ct, k, rot_stale),
                 std::invalid_argument);

    // The matching level still works.
    const auto fresh =
        evaluator.precomputeKeySwitch(rlk, ct.limbs() - 1);
    EXPECT_NO_THROW(evaluator.multiply(ct, ct, fresh));

    // A level beyond the modulus chain is named as such, not as a
    // basis or digit fault further down, whatever the chain length.
    for (size_t limbs : {5u, 6u, 7u}) {
        const CkksContext other(CkksParams::testSet(1 << 9, limbs, 2));
        KeyGenerator other_keygen(other, 0x71);
        const auto other_rlk = other_keygen.relinKey();
        const size_t level = other.qCount();
        try {
            (void)CkksEvaluator(other).precomputeKeySwitch(other_rlk,
                                                           level);
            ADD_FAILURE() << "level " << level << " was accepted";
        } catch (const std::invalid_argument &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("level " + std::to_string(level) +
                                " is beyond the modulus chain"),
                      std::string::npos)
                << what;
        }
    }
}

TEST_F(CkksFixture, RotateRejectsNonUnitAutomorphismIndices)
{
    const u32 k = encoder.rotationAutomorphism(1);
    const auto rot_key = keygen.rotationKey(k);
    const auto a = randomSlots(encoder.slotCount(), 32, 0.5);
    const auto ct =
        encryptor.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    const u32 two_n = 2 * ctx.degree();
    const auto pre =
        evaluator.precomputeKeySwitch(rot_key, ct.limbs() - 1);

    // Even indices are not ring automorphisms at all.
    EXPECT_THROW(evaluator.rotate(ct, 2, pre), std::invalid_argument);
    EXPECT_THROW(evaluator.rotate(ct, 0, pre), std::invalid_argument);
    // Indices >= 2N alias a smaller Galois element: previously accepted
    // and silently applied as k mod 2N (with a duplicate cache entry).
    EXPECT_THROW(evaluator.rotate(ct, two_n + k, pre),
                 std::invalid_argument);
    EXPECT_NO_THROW(evaluator.rotate(ct, k, pre));
}

// ---------------------------------------------------------------------
// Schedule enumerator == functional kernel log
// ---------------------------------------------------------------------
class ScheduleMatch : public ::testing::TestWithParam<HeOp>
{
};

TEST_P(ScheduleMatch, EnumeratorPredictsEvaluatorKernels)
{
    const HeOp op = GetParam();
    CkksContext ctx(CkksParams::testSet(1 << 9, 5, 2));
    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx, 99);
    CkksEncryptor enc(ctx, keygen.publicKey(), 100);
    CkksDecryptor dec(ctx, keygen.secretKey());
    KernelLog log;
    CkksEvaluator ev(ctx, &log);

    const auto a = randomSlots(4, 25, 0.5);
    const auto ca = enc.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    const auto cb = enc.encrypt(encoder.encode(a, kScale, ctx.qCount()));
    const auto pt = encoder.encode(a, kScale, ctx.qCount());
    const auto rlk =
        ev.precomputeKeySwitch(keygen.relinKey(), ctx.qCount() - 1);
    const u32 k = encoder.rotationAutomorphism(1);
    const auto rot_key =
        ev.precomputeKeySwitch(keygen.rotationKey(k), ctx.qCount() - 1);

    log.clear();
    switch (op) {
      case HeOp::Add:
        (void)ev.add(ca, cb);
        break;
      case HeOp::Mult:
        (void)ev.multiply(ca, cb, rlk);
        break;
      case HeOp::Rescale:
        (void)ev.rescale(ca);
        break;
      case HeOp::Rotate:
        (void)ev.rotate(ca, k, rot_key);
        break;
      case HeOp::AddPlain:
        (void)ev.addPlain(ca, pt);
        break;
      case HeOp::MultiplyPlain:
        (void)ev.multiplyPlain(ca, pt);
        break;
      case HeOp::LinearTransform:
        // One unweighted branch: rotate the input, fold it back in.
        (void)ev.add(ca, ev.rotate(ca, k, rot_key));
        break;
    }

    const auto predicted =
        enumerateKernels(op, ctx.params(), ctx.qCount() - 1);
    ASSERT_EQ(log.calls().size(), predicted.size()) << heOpName(op);
    for (size_t i = 0; i < predicted.size(); ++i) {
        EXPECT_TRUE(log.calls()[i].sameShape(predicted[i]))
            << heOpName(op) << " kernel " << i << ": got "
            << kernelKindName(log.calls()[i].kind) << "("
            << log.calls()[i].limbs << "->" << log.calls()[i].limbsOut
            << "), want " << kernelKindName(predicted[i].kind) << "("
            << predicted[i].limbs << "->" << predicted[i].limbsOut << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(AllOps, ScheduleMatch,
                         ::testing::Values(HeOp::Add, HeOp::Mult,
                                           HeOp::Rescale, HeOp::Rotate,
                                           HeOp::AddPlain,
                                           HeOp::MultiplyPlain,
                                           HeOp::LinearTransform));

// Conformance at *every* level -- not just the top spot-check above.
TEST(ScheduleMatchAllLevels, EnumeratorPredictsEvaluatorAtEveryLevel)
{
    CkksContext ctx(CkksParams::testSet(1 << 9, 6, 2));
    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx, 101);
    CkksEncryptor enc(ctx, keygen.publicKey(), 102);
    KernelLog log;
    CkksEvaluator ev(ctx, &log);

    const auto rlk = keygen.relinKey();
    const u32 k = encoder.rotationAutomorphism(1);
    const auto rot_key = keygen.rotationKey(k);
    const auto fresh = enc.encrypt(
        encoder.encode(randomSlots(4, 26, 0.5), kScale, ctx.qCount()));

    for (HeOp op : {HeOp::Add, HeOp::Mult, HeOp::Rescale, HeOp::Rotate,
                    HeOp::AddPlain, HeOp::MultiplyPlain,
                    HeOp::LinearTransform}) {
        for (size_t level = 0; level < ctx.qCount(); ++level) {
            if (op == HeOp::Rescale && level == 0)
                continue;
            const auto ct = ev.reduceToLimbs(fresh, level + 1);
            const auto pt = encoder.encode(randomSlots(4, 27, 0.5),
                                           kScale, level + 1);
            const auto rlk_pre = ev.precomputeKeySwitch(rlk, level);
            const auto rot_pre = ev.precomputeKeySwitch(rot_key, level);
            log.clear();
            switch (op) {
              case HeOp::Add:
                (void)ev.add(ct, ct);
                break;
              case HeOp::Mult:
                (void)ev.multiply(ct, ct, rlk_pre);
                break;
              case HeOp::Rescale:
                (void)ev.rescale(ct);
                break;
              case HeOp::Rotate:
                (void)ev.rotate(ct, k, rot_pre);
                break;
              case HeOp::AddPlain:
                (void)ev.addPlain(ct, pt);
                break;
              case HeOp::MultiplyPlain:
                (void)ev.multiplyPlain(ct, pt);
                break;
              case HeOp::LinearTransform:
                (void)ev.add(ct, ev.rotate(ct, k, rot_pre));
                break;
            }

            const auto predicted =
                enumerateKernels(op, ctx.params(), level);
            ASSERT_EQ(log.calls().size(), predicted.size())
                << heOpName(op) << " level " << level;
            for (size_t i = 0; i < predicted.size(); ++i) {
                EXPECT_TRUE(log.calls()[i].sameShape(predicted[i]))
                    << heOpName(op) << " level " << level << " kernel "
                    << i << ": got "
                    << kernelKindName(log.calls()[i].kind) << "("
                    << log.calls()[i].limbs << "->"
                    << log.calls()[i].limbsOut << "), want "
                    << kernelKindName(predicted[i].kind) << "("
                    << predicted[i].limbs << "->"
                    << predicted[i].limbsOut << ")";
            }
        }
    }
}

// keySwitch alone, the core that benches probe directly: its own log
// is enumerateKeySwitch at every level, as relinearisation's and
// rotation's are inside their ops above.
TEST(ScheduleMatchAllLevels, KeySwitchLogMatchesEnumeratorAtEveryLevel)
{
    CkksContext ctx(CkksParams::testSet(1 << 9, 6, 2));
    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx, 103);
    CkksEncryptor enc(ctx, keygen.publicKey(), 104);
    KernelLog log;
    CkksEvaluator ev(ctx, &log);
    const auto rlk = keygen.relinKey();
    const auto fresh = enc.encrypt(
        encoder.encode(randomSlots(4, 28, 0.5), kScale, ctx.qCount()));

    for (size_t level = 0; level < ctx.qCount(); ++level) {
        const auto ct = ev.reduceToLimbs(fresh, level + 1);
        const auto pre = ev.precomputeKeySwitch(rlk, level);
        log.clear();
        (void)ev.keySwitch(ct.c1, pre);
        const auto predicted = enumerateKeySwitch(ctx.params(), level);
        ASSERT_EQ(log.calls().size(), predicted.size()) << "level " << level;
        for (size_t i = 0; i < predicted.size(); ++i) {
            EXPECT_TRUE(log.calls()[i].sameShape(predicted[i]))
                << "level " << level << " kernel " << i << ": got "
                << kernelKindName(log.calls()[i].kind) << "("
                << log.calls()[i].limbs << "->" << log.calls()[i].limbsOut
                << "), want " << kernelKindName(predicted[i].kind) << "("
                << predicted[i].limbs << "->" << predicted[i].limbsOut
                << ")";
        }
    }
}

TEST(Schedule, LowerLevelsShrinkKernelCounts)
{
    const auto p = CkksParams::testSet(1 << 10, 6, 3);
    const auto full = enumerateKernels(HeOp::Mult, p, 5);
    const auto low = enumerateKernels(HeOp::Mult, p, 2);
    EXPECT_GT(full.size(), low.size());
}

TEST(Schedule, PipelineEnumeratorChainsStagesWithEvolvingLevel)
{
    const auto p = CkksParams::testSet(1 << 10, 6, 3);
    // Mult at level 5, Rescale 5 -> 4, Rotate at level 4.
    const std::vector<PipelineOp> pipeline = {
        {HeOp::Mult}, {HeOp::Rescale}, {HeOp::Rotate}};
    const auto fused = enumerateKernels(pipeline, p, 5);

    auto expect = enumerateKernels(HeOp::Mult, p, 5);
    const auto rs = enumerateKernels(HeOp::Rescale, p, 5);
    const auto rot = enumerateKernels(HeOp::Rotate, p, 4);
    expect.insert(expect.end(), rs.begin(), rs.end());
    expect.insert(expect.end(), rot.begin(), rot.end());

    ASSERT_EQ(fused.size(), expect.size());
    for (size_t i = 0; i < fused.size(); ++i)
        EXPECT_TRUE(fused[i].sameShape(expect[i])) << i;

    // Draining past the chain throws like the evaluator would.
    const std::vector<PipelineOp> too_deep(6, {HeOp::Rescale});
    EXPECT_THROW(enumerateKernels(too_deep, p, 5), std::invalid_argument);
}

TEST(Schedule, HeOpNextLevelTracksLimbConsumption)
{
    EXPECT_EQ(heOpNextLevel(HeOp::Add, 5), 5u);
    EXPECT_EQ(heOpNextLevel(HeOp::Mult, 5), 5u);
    EXPECT_EQ(heOpNextLevel(HeOp::Rotate, 5), 5u);
    EXPECT_EQ(heOpNextLevel(HeOp::Rescale, 5), 4u);
    EXPECT_THROW(heOpNextLevel(HeOp::Rescale, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Cost model and bootstrapping estimator sanity
// ---------------------------------------------------------------------
TEST(CostModel, OrderingAndPositivity)
{
    const auto p = CkksParams::paperSet('A');
    lowering::Config cfg;
    HeOpCostModel model(tpu::tpuV6e(), cfg, p);
    const size_t lvl = p.limbs - 1;
    const double add = model.opLatencyUs(HeOp::Add, lvl);
    const double mult = model.opLatencyUs(HeOp::Mult, lvl);
    const double rescale = model.opLatencyUs(HeOp::Rescale, lvl);
    const double rotate = model.opLatencyUs(HeOp::Rotate, lvl);
    EXPECT_GT(add, 0);
    EXPECT_GT(mult, add);
    EXPECT_GT(rotate, add);
    EXPECT_GT(mult, rescale);
}

TEST(CostModel, MoreLimbsCostMore)
{
    lowering::Config cfg;
    const auto pd = CkksParams::paperSet('D');
    HeOpCostModel model(tpu::tpuV6e(), cfg, pd);
    EXPECT_GT(model.opLatencyUs(HeOp::Mult, 50),
              model.opLatencyUs(HeOp::Mult, 20));
}

TEST(CostModel, PipelineCostMatchesStageSum)
{
    lowering::Config cfg;
    const auto p = CkksParams::paperSet('B');
    HeOpCostModel model(tpu::tpuV6e(), cfg, p);
    const size_t lvl = p.limbs - 1;

    const std::vector<PipelineOp> pipeline = {
        {HeOp::Mult}, {HeOp::Rescale}, {HeOp::Rotate}};
    auto sum = model.opCost(HeOp::Mult, lvl);
    sum.append(model.opCost(HeOp::Rescale, lvl));
    sum.append(model.opCost(HeOp::Rotate, lvl - 1));
    const auto fused = model.pipelineCost(pipeline, lvl);

    EXPECT_DOUBLE_EQ(fused.computeUs, sum.computeUs);
    EXPECT_DOUBLE_EQ(fused.fixedUs, sum.fixedUs);
    EXPECT_EQ(fused.paramBytes, sum.paramBytes);
    EXPECT_EQ(fused.dataBytes, sum.dataBytes);
    EXPECT_GT(model.pipelineLatencyUs(pipeline, lvl), 0);
    // Batching amortises the fused launch like any single operator.
    EXPECT_LT(model.pipelineLatencyUs(pipeline, lvl, 16),
              model.pipelineLatencyUs(pipeline, lvl, 1));
}

TEST(CostModel, BreakdownSumsToTotalish)
{
    const auto p = CkksParams::paperSet('D');
    lowering::Config cfg;
    HeOpCostModel model(tpu::tpuV6e(), cfg, p);
    const auto bd = model.opBreakdown(HeOp::Mult, p.limbs - 1);
    double sum = 0;
    for (const auto &[cat, us] : bd)
        sum += us;
    EXPECT_GT(sum, 0);
}

TEST(Bootstrap, EstimateIsConsistent)
{
    const auto p = CkksParams::paperSet('D');
    lowering::Config cfg;
    const auto est = estimateBootstrap(tpu::tpuV6e(), cfg, p);
    EXPECT_GT(est.totalUs, 0);
    EXPECT_GT(est.kernelLaunches, est.heOps);
    double sum = 0;
    for (const auto &[k, us] : est.byKernelUs)
        sum += us;
    EXPECT_NEAR(sum, est.totalUs, est.totalUs * 1e-9);
    // Automorphism should be the dominant share (Table IX: 35.6%).
    EXPECT_GT(est.fraction("Automorphism"), 0.15);
}

TEST(Bootstrap, RejectsShortChains)
{
    const auto p = CkksParams::testSet(1 << 10, 4, 2);
    EXPECT_THROW(enumerateBootstrapOps(p, {}), std::invalid_argument);
}

} // namespace
} // namespace cross::ckks
