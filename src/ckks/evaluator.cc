#include "ckks/evaluator.h"

#include <algorithm>
#include <cmath>
#include <string>
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
CkksEvaluator::rescaleMulti(Ciphertext ct) const
{
    const u32 split = ctx_.params().rescaleSplit;
    requireThat(ct.limbs() > split,
                "rescaleMulti: not enough limbs for a double rescale");
    for (u32 i = 0; i < split; ++i)
        ct = rescale(std::move(ct));
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
    dec.extSlots = ctx_.extendedSlots(dec.level);
    dec.digits = modUpPhase(c1, dec.extSlots);
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
    std::tie(out.c0, out.c1) = innerProductModDown(dec.digits, pre, &map);
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
    requireThat(level < ctx_.qCount(),
                "precomputeKeySwitch: level " + std::to_string(level) +
                    " is beyond the modulus chain (top level " +
                    std::to_string(ctx_.qCount() - 1) + ")");
    const size_t d = ctx_.activeDigits(level);
    requireThat(d <= swk.digits.size(),
                "precomputeKeySwitch: not enough digits");
    KeySwitchPrecomp pre;
    pre.level = level;
    pre.extSlots = ctx_.extendedSlots(level);
    pre.keys.reserve(d);
    for (size_t j = 0; j < d; ++j) {
        pre.keys.emplace_back(
            swk.digits[j].first.selectSlots(pre.extSlots),
            swk.digits[j].second.selectSlots(pre.extSlots));
    }
    return pre;
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
    requireThat(c.limbCount() - 1 == pre.level,
                "keySwitch: precomp level mismatch");
    // Phase 1 (ModUp), then the inner product and ModDown the hoisted
    // rotation runs too.
    return innerProductModDown(modUpPhase(std::move(c), pre.extSlots), pre);
}

std::pair<RnsPoly, RnsPoly>
CkksEvaluator::innerProductModDown(const std::vector<RnsPoly> &digits,
                                   const KeySwitchPrecomp &pre,
                                   const std::vector<u32> *auto_map) const
{
    const size_t d = digits.size();
    const size_t ext = pre.extSlots.size();
    const size_t n = ctx_.degree();
    internalCheck(pre.keys.size() == d, "keySwitch: digit count mismatch");
    for (const auto &digit : digits)
        internalCheck(digit.slots() == pre.extSlots,
                      "keySwitch: digit basis mismatch");

    // One fused pass per extended limb: for every coefficient, the d
    // digit values (gathered through auto_map when rotating) times
    // both halves of pre.keys[j] sum in u64 lanes and reduce once. The
    // digits and keys are read in place and each accumulator limb is
    // written once. The pass logs as the gathers, products and sums
    // the schedule prices, with its whole time on the products.
    RnsPoly acc0 = RnsPoly::forOverwrite(ctx_.ring(), pre.extSlots, true);
    RnsPoly acc1 = RnsPoly::forOverwrite(ctx_.ring(), pre.extSlots, true);
    std::vector<const u32 *> ptrs(3 * d); // one limb's digits and keys
    const u32 **const digit = ptrs.data();
    const u32 **const key0 = digit + d;
    const u32 **const key1 = key0 + d;
    const u32 *const map = auto_map ? auto_map->data() : nullptr;
    WallTimer t;
    for (size_t i = 0; i < ext; ++i) {
        for (size_t j = 0; j < d; ++j) {
            digit[j] = digits[j].limb(i).data();
            key0[j] = pre.keys[j].first.limb(i).data();
            key1[j] = pre.keys[j].second.limb(i).data();
        }
        nt::keySwitchProductVec(acc0.limb(i).data(), acc1.limb(i).data(),
                                digit, key0, key1, d, map, n,
                                ctx_.ring().basis().mont(pre.extSlots[i]));
    }
    const double fused_s = t.seconds();
    // A rotation's closing add gathers c0's limbs: they count here with
    // the digits', and their time goes to that add.
    if (map)
        logCall(KernelKind::Automorphism,
                static_cast<u32>(d * ext + pre.level + 1), 0, 0.0);
    logCall(KernelKind::VecModMul, static_cast<u32>(2 * d * ext), 0,
            fused_s);
    logCall(KernelKind::VecModAdd, static_cast<u32>(2 * d * ext), 0, 0.0);
    return {modDownPhase(std::move(acc0), pre.level),
            modDownPhase(std::move(acc1), pre.level)};
}

std::vector<RnsPoly>
CkksEvaluator::modUpPhase(RnsPoly c, const std::vector<u32> &ext_slots) const
{
    requireThat(c.isEval(), "keySwitch: input must be in eval domain");
    const size_t level = c.limbCount() - 1;
    const size_t d = ctx_.activeDigits(level);
    const size_t ext = ext_slots.size();
    // Whether ring modulus ring_idx is one of digit [first, last)'s own.
    const auto inDigit = [&](u32 ring_idx, size_t first, size_t last) {
        return ring_idx >= first && ring_idx < last &&
            ring_idx < ctx_.qCount();
    };

    // The extended-basis digit polynomials, eval domain. A digit's own
    // limbs are c's (already NTT'd), copied before c is INTT'd in
    // place; ModUp converts c's coefficient-form digit limbs straight
    // into the others, which are then NTT'd in place.
    std::vector<RnsPoly> digits;
    digits.reserve(d);
    for (size_t j = 0; j < d; ++j) {
        const auto [first, last] = ctx_.digitRange(j, level);
        RnsPoly &up = digits.emplace_back(
            RnsPoly::forOverwrite(ctx_.ring(), ext_slots, true));
        for (size_t pos = 0; pos < ext; ++pos)
            if (inDigit(ext_slots[pos], first, last))
                up.limb(pos) = c.limb(ext_slots[pos]);
    }

    // INTT the input once; digits share the coefficient form.
    WallTimer ti;
    c.toCoeff();
    logCall(KernelKind::Intt, static_cast<u32>(level + 1), 0, ti.seconds());

    for (size_t j = 0; j < d; ++j) {
        const auto [first, last] = ctx_.digitRange(j, level);
        const auto &conv = ctx_.modUpConv(j, level);
        RnsPoly &up = digits[j];
        std::vector<const u32 *> in;
        for (size_t i = first; i < last; ++i)
            in.push_back(c.limb(i).data());
        std::vector<size_t> conv_limbs;
        std::vector<u32 *> out;
        for (size_t pos = 0; pos < ext; ++pos) {
            if (!inDigit(ext_slots[pos], first, last)) {
                conv_limbs.push_back(pos);
                out.push_back(up.limb(pos).data());
            }
        }
        internalCheck(in.size() == conv.from().size() &&
                          out.size() == conv.to().size(),
                      "keySwitch: modup mismatch");

        WallTimer tb;
        conv.convert(in.data(), out.data(), ctx_.degree());
        logCall(KernelKind::BConv, static_cast<u32>(in.size()),
                static_cast<u32>(out.size()), tb.seconds());

        WallTimer tn;
        for (size_t pos : conv_limbs)
            poly::forwardInPlace(up.limb(pos).data(),
                                 ctx_.ring().tables(ext_slots[pos]));
        logCall(KernelKind::Ntt, static_cast<u32>(conv_limbs.size()), 0,
                tn.seconds());
    }
    // A by-value parameter lives until the caller's full-expression
    // ends, which here spans the inner product: give c's limbs back now.
    c = RnsPoly();
    return digits;
}

RnsPoly
CkksEvaluator::modDownPhase(RnsPoly acc, size_t level) const
{
    // ModDown: (acc - Conv_P->Q(acc_P)) * P^-1, folded into acc's Q
    // limbs in place. The conversion writes each limb of a temporary
    // once and is NTT'd there; acc then drops its P limbs.
    const auto &conv = ctx_.modDownConv(level);
    const size_t n = ctx_.degree();

    WallTimer ti;
    std::vector<const u32 *> p_part(ctx_.pCount());
    for (size_t jj = 0; jj < ctx_.pCount(); ++jj) {
        u32 *limb = acc.limb(level + 1 + jj).data();
        poly::inverseInPlace(limb, ctx_.ring().tables(ctx_.pSlot(jj)));
        p_part[jj] = limb;
    }
    logCall(KernelKind::Intt, static_cast<u32>(ctx_.pCount()), 0,
            ti.seconds());

    std::vector<std::vector<u32>> conv_q(level + 1);
    std::vector<u32 *> q_part(level + 1);
    for (size_t i = 0; i <= level; ++i) {
        conv_q[i] = poly::takeLimb(n, false);
        q_part[i] = conv_q[i].data();
    }
    WallTimer tb;
    conv.convert(p_part.data(), q_part.data(), n);
    logCall(KernelKind::BConv, static_cast<u32>(ctx_.pCount()),
            static_cast<u32>(level + 1), tb.seconds());

    WallTimer tn;
    for (size_t i = 0; i <= level; ++i)
        poly::forwardInPlace(q_part[i], ctx_.ring().tables(i));
    logCall(KernelKind::Ntt, static_cast<u32>(level + 1), 0, tn.seconds());

    WallTimer tv;
    for (size_t i = 0; i <= level; ++i) {
        const u32 q = static_cast<u32>(ctx_.qModulus(i));
        u32 *dst = acc.limb(i).data();
        nt::subModVec(dst, dst, q_part[i], n, q);
        nt::mulShoupVec(dst, dst,
                        nt::shoupPrecompute(
                            static_cast<u32>(ctx_.pInvModQ(i) % q), q),
                        n, q);
    }
    logCall(KernelKind::VecModSub, static_cast<u32>(level + 1), 0, 0.0);
    logCall(KernelKind::VecModMulConst, static_cast<u32>(level + 1), 0,
            tv.seconds());
    for (auto &limb : conv_q)
        poly::releaseLimb(std::move(limb), n);
    acc.truncateLimbs(level + 1);
    return acc;
}

} // namespace cross::ckks
