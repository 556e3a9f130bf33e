#include "ckks/hybrid_keyswitch.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "common/timer.h"
#include "nt/modops.h"
#include "nt/modvec.h"
#include "nt/shoup.h"
#include "poly/limb_pool.h"
#include "poly/ntt_ct.h"

namespace cross::ckks {

using poly::RnsPoly;

HybridKeySwitch::HybridKeySwitch(const poly::Ring &ring, size_t q_count,
                                 size_t p_count, size_t dnum)
    : ring_(ring), qCount_(q_count), pCount_(p_count), dnum_(dnum),
      alpha_((q_count + dnum - 1) / dnum)
{
    internalCheck(dnum >= 1 && dnum <= q_count &&
                      q_count + p_count <= ring.limbCount(),
                  "HybridKeySwitch: bad layout");

    // P mod q_i and its inverse.
    pModQ_.resize(qCount_);
    pInvModQ_.resize(qCount_);
    for (size_t i = 0; i < qCount_; ++i) {
        const u64 q = ring_.modulus(i);
        u64 p_mod = 1;
        for (size_t j = 0; j < pCount_; ++j)
            p_mod = nt::mulMod(p_mod, ring_.modulus(pSlot(j)) % q, q);
        pModQ_[i] = p_mod;
        pInvModQ_[i] = nt::invMod(p_mod, q);
    }

    // ModUp of digit j at level l: the digit's moduli to the rest of
    // q_0..q_l and P. ModDown at level l: P to q_0..q_l.
    const auto &moduli = ring_.basis().moduli();
    const auto q = moduli.begin();
    const std::vector<u64> p_moduli(q + qCount_, q + qCount_ + pCount_);
    for (size_t l = 0; l < qCount_; ++l) {
        if (pCount_ > 0)
            modDownConv_.emplace_back(
                rns::RnsBasis(p_moduli),
                rns::RnsBasis(std::vector<u64>(q, q + l + 1)));
        auto &ups = modUpConv_.emplace_back();
        if (pCount_ == 0 && activeDigits(l) == 1)
            continue; // the one digit is all of Q: nothing to convert to
        for (size_t j = 0; j < activeDigits(l); ++j) {
            const auto [first, last] = digitRange(j, l);
            std::vector<u64> to(q, q + first);
            to.insert(to.end(), q + last, q + l + 1);
            to.insert(to.end(), p_moduli.begin(), p_moduli.end());
            ups.emplace_back(
                rns::RnsBasis(std::vector<u64>(q + first, q + last)),
                rns::RnsBasis(std::move(to)));
        }
    }
}

std::pair<size_t, size_t>
HybridKeySwitch::digitRange(size_t j, size_t level) const
{
    const size_t first = j * alpha_;
    const size_t last = std::min(first + alpha_, level + 1);
    internalCheck(first < last, "digitRange: empty digit");
    return {first, last};
}

std::vector<u32>
HybridKeySwitch::extendedSlots(size_t level) const
{
    std::vector<u32> s;
    s.reserve(level + 1 + pCount_);
    for (size_t i = 0; i <= level; ++i)
        s.push_back(static_cast<u32>(i));
    for (size_t j = 0; j < pCount_; ++j)
        s.push_back(pSlot(j));
    return s;
}

void
HybridKeySwitch::logCall(KernelLog *log, KernelKind kind, u32 limbs,
                         u32 limbs_out, double seconds) const
{
    if (log)
        log->add(kind, ring_.degree(), limbs, limbs_out, seconds);
}

SwitchKey
HybridKeySwitch::switchKeyFor(const RnsPoly &s, const RnsPoly &s_src,
                              Rng &rng, double sigma) const
{
    const size_t full = qCount_ + pCount_;
    SwitchKey swk;
    swk.digits.reserve(dnum_);
    for (size_t j = 0; j < dnum_; ++j) {
        RnsPoly a = RnsPoly::uniform(ring_, full, true, rng);
        RnsPoly e = RnsPoly::gaussian(ring_, full, rng, sigma);
        e.toEval();

        // F_j: P on digit-j q-limbs, 0 elsewhere (incl. all p-limbs).
        std::vector<u64> f(full, 0);
        for (size_t i = 0; i < qCount_; ++i) {
            if (digitOf(i) == j)
                f[i] = pModQ_[i];
        }
        RnsPoly term = s_src;
        term.truncateLimbs(full);
        term.mulScalarPerLimbInPlace(f);

        RnsPoly b = a;
        b.mulPointwiseInPlace(s);
        b.negateInPlace();
        b.addInPlace(e);
        b.addInPlace(term);
        swk.digits.emplace_back(std::move(b), std::move(a));
    }
    return swk;
}

KeySwitchPrecomp
HybridKeySwitch::precompute(const SwitchKey &swk, size_t level) const
{
    requireThat(level < qCount_,
                "precomputeKeySwitch: level " + std::to_string(level) +
                    " is beyond the modulus chain (top level " +
                    std::to_string(qCount_ - 1) + ")");
    const size_t d = activeDigits(level);
    requireThat(d <= swk.digits.size(),
                "precomputeKeySwitch: not enough digits");
    KeySwitchPrecomp pre;
    pre.level = level;
    pre.extSlots = extendedSlots(level);
    pre.keys.reserve(d);
    for (size_t j = 0; j < d; ++j) {
        pre.keys.emplace_back(
            swk.digits[j].first.selectSlots(pre.extSlots),
            swk.digits[j].second.selectSlots(pre.extSlots));
    }
    return pre;
}

size_t
HybridKeySwitch::precompBytes(size_t level) const
{
    const size_t ext = level + 1 + pCount_;
    return ext * sizeof(u32) +
           activeDigits(level) * 2 * ext * ring_.degree() * sizeof(u32);
}

std::pair<RnsPoly, RnsPoly>
HybridKeySwitch::keySwitch(RnsPoly c, const KeySwitchPrecomp &pre,
                           KernelLog *log) const
{
    requireThat(c.limbCount() - 1 == pre.level,
                "keySwitch: precomp level mismatch");
    return innerProductModDown(modUp(std::move(c), log), pre, nullptr, log);
}

std::vector<RnsPoly>
HybridKeySwitch::modUp(RnsPoly c, KernelLog *log) const
{
    requireThat(c.isEval(), "keySwitch: input must be in eval domain");
    const size_t level = c.limbCount() - 1;
    const size_t d = activeDigits(level);
    requireThat(pCount_ > 0 || d > 1,
                "keySwitch: without an auxiliary modulus the input needs "
                "at least two digits");
    // Positions 0..level of the extended basis are q_0..q_level.
    const std::vector<u32> ext_slots = extendedSlots(level);
    const size_t ext = ext_slots.size();

    // The extended-basis digit polynomials, eval domain. A digit's own
    // limbs are c's (already NTT'd), copied before c is INTT'd in
    // place; ModUp converts c's coefficient-form digit limbs straight
    // into the others, which are then NTT'd in place.
    std::vector<RnsPoly> digits;
    digits.reserve(d);
    for (size_t j = 0; j < d; ++j) {
        const auto [first, last] = digitRange(j, level);
        RnsPoly &up = digits.emplace_back(
            RnsPoly::forOverwrite(ring_, ext_slots, true));
        for (size_t i = first; i < last; ++i)
            up.limb(i) = c.limb(i);
    }

    // INTT the input once; digits share the coefficient form.
    WallTimer ti;
    c.toCoeff();
    logCall(log, KernelKind::Intt, static_cast<u32>(level + 1), 0,
            ti.seconds());

    for (size_t j = 0; j < d; ++j) {
        const auto [first, last] = digitRange(j, level);
        const auto &conv = modUpConv(j, level);
        RnsPoly &up = digits[j];
        std::vector<const u32 *> in;
        for (size_t i = first; i < last; ++i)
            in.push_back(c.limb(i).data());
        std::vector<size_t> conv_limbs;
        std::vector<u32 *> out;
        for (size_t pos = 0; pos < ext; ++pos) {
            if (pos < first || pos >= last) {
                conv_limbs.push_back(pos);
                out.push_back(up.limb(pos).data());
            }
        }
        internalCheck(in.size() == conv.from().size() &&
                          out.size() == conv.to().size(),
                      "keySwitch: modup mismatch");

        WallTimer tb;
        conv.convert(in.data(), out.data(), ring_.degree());
        logCall(log, KernelKind::BConv, static_cast<u32>(in.size()),
                static_cast<u32>(out.size()), tb.seconds());

        WallTimer tn;
        for (size_t pos : conv_limbs)
            poly::forwardInPlace(up.limb(pos).data(),
                                 ring_.tables(ext_slots[pos]));
        logCall(log, KernelKind::Ntt, static_cast<u32>(conv_limbs.size()),
                0, tn.seconds());
    }
    // A by-value parameter lives until the caller's full-expression
    // ends, which here spans the inner product: give c's limbs back now.
    c = RnsPoly();
    return digits;
}

std::pair<RnsPoly, RnsPoly>
HybridKeySwitch::innerProductModDown(const std::vector<RnsPoly> &digits,
                                     const KeySwitchPrecomp &pre,
                                     const std::vector<u32> *auto_map,
                                     KernelLog *log) const
{
    const size_t d = digits.size();
    const size_t ext = pre.extSlots.size();
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
    RnsPoly acc0 = RnsPoly::forOverwrite(ring_, pre.extSlots, true);
    RnsPoly acc1 = RnsPoly::forOverwrite(ring_, pre.extSlots, true);
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
                                digit, key0, key1, d, map, ring_.degree(),
                                ring_.basis().mont(pre.extSlots[i]));
    }
    const double fused_s = t.seconds();
    // A rotation's closing add gathers c0's limbs: they count here with
    // the digits', and their time goes to that add.
    if (map)
        logCall(log, KernelKind::Automorphism,
                static_cast<u32>(d * ext + pre.level + 1), 0, 0.0);
    logCall(log, KernelKind::VecModMul, static_cast<u32>(2 * d * ext), 0,
            fused_s);
    logCall(log, KernelKind::VecModAdd, static_cast<u32>(2 * d * ext), 0,
            0.0);
    return {modDown(std::move(acc0), pre.level, log),
            modDown(std::move(acc1), pre.level, log)};
}

RnsPoly
HybridKeySwitch::modDown(RnsPoly acc, size_t level, KernelLog *log) const
{
    if (pCount_ == 0)
        return acc;
    // (acc - Conv_P->Q(acc_P)) * P^-1, folded into acc's Q limbs in
    // place. The conversion writes each limb of a temporary once and
    // is NTT'd there; acc then drops its P limbs.
    const auto &conv = modDownConv(level);
    const size_t n = ring_.degree();

    WallTimer ti;
    std::vector<const u32 *> p_part(pCount_);
    for (size_t jj = 0; jj < pCount_; ++jj) {
        u32 *limb = acc.limb(level + 1 + jj).data();
        poly::inverseInPlace(limb, ring_.tables(pSlot(jj)));
        p_part[jj] = limb;
    }
    logCall(log, KernelKind::Intt, static_cast<u32>(pCount_), 0,
            ti.seconds());

    std::vector<std::vector<u32>> conv_q(level + 1);
    std::vector<u32 *> q_part(level + 1);
    for (size_t i = 0; i <= level; ++i) {
        conv_q[i] = poly::takeLimb(n, false);
        q_part[i] = conv_q[i].data();
    }
    WallTimer tb;
    conv.convert(p_part.data(), q_part.data(), n);
    logCall(log, KernelKind::BConv, static_cast<u32>(pCount_),
            static_cast<u32>(level + 1), tb.seconds());

    WallTimer tn;
    for (size_t i = 0; i <= level; ++i)
        poly::forwardInPlace(q_part[i], ring_.tables(i));
    logCall(log, KernelKind::Ntt, static_cast<u32>(level + 1), 0,
            tn.seconds());

    WallTimer tv;
    for (size_t i = 0; i <= level; ++i) {
        const u32 q = static_cast<u32>(ring_.modulus(i));
        u32 *dst = acc.limb(i).data();
        nt::subModVec(dst, dst, q_part[i], n, q);
        nt::mulShoupVec(dst, dst,
                        nt::shoupPrecompute(
                            static_cast<u32>(pInvModQ_[i] % q), q),
                        n, q);
    }
    logCall(log, KernelKind::VecModSub, static_cast<u32>(level + 1), 0, 0.0);
    logCall(log, KernelKind::VecModMulConst, static_cast<u32>(level + 1), 0,
            tv.seconds());
    for (auto &limb : conv_q)
        poly::releaseLimb(std::move(limb), n);
    acc.truncateLimbs(level + 1);
    return acc;
}

} // namespace cross::ckks
