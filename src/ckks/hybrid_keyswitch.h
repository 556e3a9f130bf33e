/**
 * @file
 * Hybrid key switching over an RNS ring [37], one body for CKKS and
 * BFV: the digit layout, ModUp / ModDown conversions and P constants,
 * the three phases, the precomp builder and the key generator.
 *
 * The ring's first qCount moduli are Q and the next pCount are P;
 * q-limb i is in digit i / alpha, alpha = ceil(qCount / dnum). Digit
 * j's key is (b_j, a_j) over Q u P, b_j = -a_j s + e_j + F_j s_src,
 * with F_j == P (mod q_i) on digit j's q-limbs and 0 elsewhere.
 *
 * BFV runs the degenerate case alpha = 1, dnum = L, P = {} (P = 1):
 * the key lives on Q alone and ModDown is the identity, so it is
 * skipped. No conversion with an empty basis is built, so a one-digit
 * level without P has no ModUp and its key switch is rejected.
 */
#pragma once

#include <utility>
#include <vector>

#include "ckks/kernel_log.h"
#include "ckks/keyswitch_cache.h"
#include "common/rng.h"
#include "poly/ring.h"
#include "rns/bconv.h"

namespace cross::ckks {

/** Hybrid switching key: one (b_j, a_j) pair per digit, over Q u P. */
struct SwitchKey
{
    std::vector<std::pair<poly::RnsPoly, poly::RnsPoly>> digits;
};

/** The key-switch layout of one ring and the phases that run on it. */
class HybridKeySwitch
{
  public:
    /** Q = ring moduli [0, @p q_count), P = the next @p p_count;
     *  builds every level's conversions, so lookups are read-only. */
    HybridKeySwitch(const poly::Ring &ring, size_t q_count, size_t p_count,
                    size_t dnum);

    size_t pCount() const { return pCount_; }
    /** Ring modulus index of auxiliary prime j. */
    u32 pSlot(size_t j) const { return static_cast<u32>(qCount_ + j); }

    /** [P]_{q_i} and [P^-1]_{q_i} (both 1 when P is empty). */
    u64 pModQ(size_t i) const { return pModQ_[i]; }
    u64 pInvModQ(size_t i) const { return pInvModQ_[i]; }

    /** Digit index of q-limb i. */
    size_t digitOf(size_t i) const { return i / alpha_; }

    /** q-limb range [first, last) of digit j at level l (limbs 0..l). */
    std::pair<size_t, size_t> digitRange(size_t j, size_t level) const;

    /** Number of active digits when limbs 0..l are live. */
    size_t activeDigits(size_t l) const { return (l + alpha_) / alpha_; }

    /** [0..level] q-limbs followed by all p-limbs. */
    std::vector<u32> extendedSlots(size_t level) const;

    /** ModUp conversion for digit @p j at level @p l: the digit's moduli
     *  to the complement q-moduli + all p-moduli.
     *  @throws std::out_of_range if none was built. */
    const rns::BasisConversion &
    modUpConv(size_t j, size_t l) const { return modUpConv_.at(l).at(j); }

    /** ModDown conversion at level @p l: P to q_0..q_l.
     *  @throws std::out_of_range if none was built. */
    const rns::BasisConversion &
    modDownConv(size_t l) const { return modDownConv_.at(l); }

    /** Switching key from eval-domain @p s_src to @p s (both covering
     *  Q u P): per digit, a uniform a_j, then a Gaussian e_j. */
    SwitchKey switchKeyFor(const poly::RnsPoly &s,
                           const poly::RnsPoly &s_src, Rng &rng,
                           double sigma) const;

    /** keySwitch's operands at @p level: the extended slot list and
     *  the key digits restricted to it. */
    KeySwitchPrecomp precompute(const SwitchKey &swk, size_t level) const;

    /** paramBytes() of a precompute(swk, @p level) result, without
     *  building it: the extended slot list plus, per active digit, two
     *  polynomials over the extended basis. */
    size_t precompBytes(size_t level) const;

    /** ModUp -> inner product -> ModDown of @p c against @p pre, the
     *  pair that adds onto (c0, c1); kernels go to @p log if not null.
     *  Consumes @p c: ModUp INTTs it in place. */
    std::pair<poly::RnsPoly, poly::RnsPoly>
    keySwitch(poly::RnsPoly c, const KeySwitchPrecomp &pre,
              KernelLog *log) const;

    /** Phase 1: @p c's digits lifted to extendedSlots of c's level, one
     *  eval-domain polynomial each; INTTs @p c in place once, then a
     *  BConv and an NTT per digit. */
    std::vector<poly::RnsPoly> modUp(poly::RnsPoly c, KernelLog *log) const;

    /**
     * Phases 2+3: the inner product of the extended-basis @p digits
     * with pre.keys, one fused pass per limb (nt::keySwitchProductVec:
     * the d products sum in registers and reduce once, both read in
     * place), then ModDown of both accumulators. With @p auto_map
     * (Ring::evalAutoMap of a rotation) the pass gathers each digit
     * value through the map, and an Automorphism entry covering the
     * digits and the caller's c0 fold is logged ahead of the products.
     * The pass books its time to the VecModMul entry; the Automorphism
     * and VecModAdd entries log 0 s.
     */
    std::pair<poly::RnsPoly, poly::RnsPoly>
    innerProductModDown(const std::vector<poly::RnsPoly> &digits,
                        const KeySwitchPrecomp &pre,
                        const std::vector<u32> *auto_map,
                        KernelLog *log) const;

  private:
    /** Phase 3: (acc - Conv_P->Q(acc_P)) * P^-1 at @p level over acc's
     *  Q limbs, its P limbs given back; the identity when P is empty. */
    poly::RnsPoly modDown(poly::RnsPoly acc, size_t level,
                          KernelLog *log) const;
    void logCall(KernelLog *log, KernelKind kind, u32 limbs, u32 limbs_out,
                 double seconds) const;

    const poly::Ring &ring_;
    size_t qCount_;
    size_t pCount_;
    size_t dnum_;
    size_t alpha_;
    std::vector<u64> pModQ_;
    std::vector<u64> pInvModQ_;
    // modUpConv_[level][j] (none for a level whose digits convert into
    // an empty basis) and modDownConv_[level] (none when P is empty).
    std::vector<std::vector<rns::BasisConversion>> modUpConv_;
    std::vector<rns::BasisConversion> modDownConv_;
};

} // namespace cross::ckks
