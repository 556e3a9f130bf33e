#include "ckks/evaluator.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/check.h"
#include "common/timer.h"
#include "nt/modvec.h"
#include "nt/shoup.h"
#include "poly/limb_pool.h"
#include "poly/ntt_ct.h"

namespace cross::ckks {

using poly::RnsPoly;

namespace {

/** Scales must agree to fp tolerance before add/sub. */
void
checkScales(const Ciphertext &a, const Ciphertext &b)
{
    requireThat(ckksScalesMatch(a.scale, b.scale),
                "ciphertext scales do not match");
}

/** a * b entry-wise on their first @p limbs limbs, into a new polynomial
 *  (the same values as a copy of a times b in place). */
RnsPoly
pointwiseProduct(const RnsPoly &a, const RnsPoly &b, size_t limbs)
{
    internalCheck(a.isEval() && b.isEval(),
                  "pointwiseProduct: both must be in eval");
    internalCheck(limbs <= a.limbCount() && limbs <= b.limbCount(),
                  "pointwiseProduct: limb mismatch");
    const auto first = a.slots().begin();
    RnsPoly r = RnsPoly::forOverwrite(
        a.ring(), std::vector<u32>(first, first + limbs), true);
    for (size_t i = 0; i < limbs; ++i) {
        internalCheck(a.slot(i) == b.slot(i), "pointwiseProduct: slots");
        nt::mulMontVec(r.limb(i).data(), a.limb(i).data(), b.limb(i).data(),
                       a.degree(), a.ring().basis().mont(a.slot(i)));
    }
    return r;
}

} // namespace

void
CkksEvaluator::logCall(KernelKind kind, u32 limbs, u32 limbs_out,
                       double seconds) const
{
    if (log_)
        log_->add(kind, ctx_.degree(), limbs, limbs_out, seconds);
}

Ciphertext
CkksEvaluator::add(Ciphertext a, const Ciphertext &b) const
{
    checkScales(a, b);
    const size_t limbs = std::min(a.limbs(), b.limbs());
    Ciphertext r = reduceToLimbs(std::move(a), limbs);
    WallTimer t;
    r.c0.addInPlace(b.c0);
    r.c1.addInPlace(b.c1);
    logCall(KernelKind::VecModAdd, static_cast<u32>(2 * limbs), 0,
            t.seconds());
    return r;
}

Ciphertext
CkksEvaluator::sub(Ciphertext a, const Ciphertext &b) const
{
    checkScales(a, b);
    const size_t limbs = std::min(a.limbs(), b.limbs());
    Ciphertext r = reduceToLimbs(std::move(a), limbs);
    WallTimer t;
    r.c0.subInPlace(b.c0);
    r.c1.subInPlace(b.c1);
    logCall(KernelKind::VecModSub, static_cast<u32>(2 * limbs), 0,
            t.seconds());
    return r;
}

Ciphertext3
CkksEvaluator::multiplyNoRelin(const Ciphertext &a,
                               const Ciphertext &b) const
{
    const size_t limbs = std::min(a.limbs(), b.limbs());

    // Each product is written straight into its output; a is read in
    // place on its first limbs.
    WallTimer t;
    Ciphertext3 r;
    r.c0 = pointwiseProduct(a.c0, b.c0, limbs);  // a0*b0
    r.c2 = pointwiseProduct(a.c1, b.c1, limbs);  // a1*b1
    r.c1 = pointwiseProduct(a.c0, b.c1, limbs);  // a0*b1
    const RnsPoly t10 = pointwiseProduct(a.c1, b.c0, limbs); // a1*b0
    logCall(KernelKind::VecModMul, static_cast<u32>(4 * limbs), 0,
            t.seconds());
    WallTimer t2;
    r.c1.addInPlace(t10);
    logCall(KernelKind::VecModAdd, static_cast<u32>(limbs), 0, t2.seconds());
    r.scale = a.scale * b.scale;
    return r;
}

Ciphertext
CkksEvaluator::relinearize(Ciphertext3 c, const KeySwitchPrecomp &pre) const
{
    // A stale or mis-indexed precomp would otherwise key-switch with
    // the wrong digit restriction and silently produce garbage.
    requireThat(pre.level == c.c2.limbCount() - 1,
                "relinearize: precomp level does not match ciphertext");
    auto [k0, k1] = keySwitch(std::move(c.c2), pre);
    Ciphertext r;
    r.c0 = std::move(c.c0);
    r.c1 = std::move(c.c1);
    WallTimer t;
    r.c0.addInPlace(k0);
    r.c1.addInPlace(k1);
    logCall(KernelKind::VecModAdd, static_cast<u32>(2 * r.c0.limbCount()),
            0, t.seconds());
    r.scale = c.scale;
    return r;
}

Ciphertext
CkksEvaluator::multiply(const Ciphertext &a, const Ciphertext &b,
                        const KeySwitchPrecomp &pre) const
{
    requireThat(pre.level + 1 == std::min(a.limbs(), b.limbs()),
                "multiply: precomp level does not match operand level");
    return relinearize(multiplyNoRelin(a, b), pre);
}

Ciphertext
CkksEvaluator::rescale(Ciphertext ct) const
{
    const size_t limbs = ct.limbs();
    requireThat(limbs >= 2, "rescale: no limb left to drop");
    const size_t l = limbs - 1;
    const u32 q_l = static_cast<u32>(ctx_.qModulus(l));
    const size_t n = ctx_.degree();
    const auto &basis = ctx_.ring().basis();

    std::vector<u32> lifted = poly::takeLimb(n, false);
    for (RnsPoly *comp : {&ct.c0, &ct.c1}) {
        // INTT the dropped limb to coefficients, in place: it dies here.
        WallTimer t;
        u32 *const last = comp->limb(l).data();
        poly::inverseInPlace(last, ctx_.ring().tables(l));
        logCall(KernelKind::Intt, 1, 0, t.lap());

        // Fold the dropped limb into each remaining limb i:
        // c_i = (c_i - NTT(lift_i(last))) * q_l^-1 mod q_i, where lift_i
        // is the exact centred lift of [c]_{q_l} into q_i. The lift's
        // time goes to the subtraction's entry.
        for (size_t i = 0; i < l; ++i) {
            const u32 q = static_cast<u32>(ctx_.qModulus(i));
            nt::liftCenteredVec(lifted.data(), last, n, q_l,
                                basis.barrett(i));
            const double lift_s = t.lap();
            poly::forwardInPlace(lifted.data(), ctx_.ring().tables(i));
            logCall(KernelKind::Ntt, 1, 0, t.lap());

            u32 *dst = comp->limb(i).data();
            nt::subModVec(dst, dst, lifted.data(), n, q);
            logCall(KernelKind::VecModSub, 1, 0, lift_s + t.lap());
            nt::mulShoupVec(dst, dst,
                            nt::shoupPrecompute(
                                static_cast<u32>(ctx_.qInvModQ(l, i)), q),
                            n, q);
            logCall(KernelKind::VecModMulConst, 1, 0, t.lap());
        }
        comp->dropLastLimb();
    }
    poly::releaseLimb(std::move(lifted), n);
    ct.scale /= static_cast<double>(q_l);
    return ct;
}

Ciphertext
CkksEvaluator::rotate(const Ciphertext &ct, u32 auto_idx,
                      const KeySwitchPrecomp &pre) const
{
    // A fan-out of one: the hoisted path IS the rotate path, so the
    // branches of a hoisted fan-out are bit-identical to rotate calls
    // by construction (same decomposition, same arithmetic order).
    return applyHoistedRotation(ct, hoistedModUp(ct.c1), auto_idx, pre);
}

HoistedDecomp
CkksEvaluator::hoistedModUp(const RnsPoly &c1) const
{
    requireThat(c1.limbCount() >= 1, "hoistedModUp: empty input");
    HoistedDecomp dec;
    dec.level = c1.limbCount() - 1;
    dec.digits = ctx_.hybridKeySwitch().modUp(c1, log_);
    return dec;
}

Ciphertext
CkksEvaluator::applyHoistedRotation(const Ciphertext &ct,
                                    const HoistedDecomp &dec,
                                    u32 auto_idx,
                                    const KeySwitchPrecomp &pre) const
{
    checkAutomorphismIndex(ctx_, auto_idx);
    requireThat(dec.level == ct.limbs() - 1,
                "applyHoistedRotation: decomposition level does not "
                "match ciphertext");
    requireThat(pre.level == dec.level,
                "applyHoistedRotation: precomp level does not match "
                "decomposition");

    // The eval-domain automorphism is a pure slot permutation, so it
    // commutes with the basis extension: the inner product gathers
    // each digit limb through the map as it streams, and the closing
    // add gathers c0 the same way. No rotated copy is built.
    const auto &map = ctx_.ring().evalAutoMap(auto_idx);
    Ciphertext out;
    std::tie(out.c0, out.c1) =
        ctx_.hybridKeySwitch().innerProductModDown(dec.digits, pre, &map,
                                                   log_);
    WallTimer t;
    for (size_t i = 0; i < ct.limbs(); ++i)
        nt::gatherAddModVec(out.c0.limb(i).data(), ct.c0.limb(i).data(),
                            map.data(), ctx_.degree(),
                            static_cast<u32>(ctx_.qModulus(i)));
    logCall(KernelKind::VecModAdd, static_cast<u32>(ct.limbs()), 0,
            t.seconds());
    out.scale = ct.scale;
    return out;
}

void
CkksEvaluator::noteHoistedSaves(size_t fanout) const
{
    if (log_ && fanout > 1)
        log_->noteHoistedModUpSaves(fanout - 1);
}

Ciphertext
CkksEvaluator::addPlain(Ciphertext ct, const Plaintext &pt) const
{
    requireThat(ckksScalesMatch(ct.scale, pt.scale),
                "addPlain: scales do not match");
    // A short plaintext would silently truncate the ciphertext's
    // modulus chain; like the precomp-level checks, level mismatch is
    // the caller's bug, not an implicit conversion.
    requireThat(pt.poly.limbCount() >= ct.limbs(),
                "addPlain: plaintext level below ciphertext level");
    WallTimer t;
    ct.c0.addInPlace(pt.poly);
    logCall(KernelKind::VecModAdd, static_cast<u32>(ct.limbs()), 0,
            t.seconds());
    return ct;
}

Ciphertext
CkksEvaluator::multiplyPlain(Ciphertext ct, const Plaintext &pt) const
{
    requireThat(pt.poly.limbCount() >= ct.limbs(),
                "multiplyPlain: plaintext level below ciphertext level");
    WallTimer t;
    ct.c0.mulPointwiseInPlace(pt.poly);
    ct.c1.mulPointwiseInPlace(pt.poly);
    logCall(KernelKind::VecModMulConst, static_cast<u32>(2 * ct.limbs()), 0,
            t.seconds());
    ct.scale *= pt.scale;
    return ct;
}

Ciphertext
CkksEvaluator::reduceToLimbs(Ciphertext ct, size_t limbs) const
{
    requireThat(limbs >= 1 && limbs <= ct.limbs(),
                "reduceToLimbs: bad limb count");
    ct.c0.truncateLimbs(limbs);
    ct.c1.truncateLimbs(limbs);
    return ct;
}

KeySwitchPrecomp
CkksEvaluator::precomputeKeySwitch(const SwitchKey &swk, size_t level) const
{
    return ctx_.hybridKeySwitch().precompute(swk, level);
}

namespace {

/**
 * Cheap content fingerprint of a switching key (FNV-1a over a few
 * coefficients per digit). Switching keys are uniform ring elements,
 * so a handful of words separates distinct keys with overwhelming
 * probability; the residency cache uses this to detect a different
 * key re-using a cached key's address.
 */
u64
switchKeyFingerprint(const SwitchKey &swk)
{
    u64 h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](u64 v) {
        h ^= v;
        h *= 0x100000001b3ULL;
    };
    mix(swk.digits.size());
    for (const auto &digit : swk.digits) {
        const auto &b = digit.first.limb(0);
        const auto &a = digit.second.limb(0);
        mix(b.front());
        mix(b[b.size() / 2]);
        mix(b.back());
        mix(a.front());
        mix(a.back());
    }
    return h;
}

} // namespace

KeySwitchCache::Shared
CkksEvaluator::precomputeKeySwitchShared(const SwitchKey &swk,
                                         size_t level) const
{
    return ctx_.keySwitchCache().get(
        &swk, switchKeyFingerprint(swk), level,
        [&] { return precomputeKeySwitch(swk, level); });
}

const KeySwitchPrecomp &
CkksEvaluator::precomputeKeySwitchCached(const SwitchKey &swk,
                                         size_t level) const
{
    return *precomputeKeySwitchShared(swk, level);
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::keySwitch(RnsPoly c, const KeySwitchPrecomp &pre) const
{
    return ctx_.hybridKeySwitch().keySwitch(std::move(c), pre, log_);
}

} // namespace cross::ckks
