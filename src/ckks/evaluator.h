/**
 * @file
 * The CKKS evaluator: the four backbone HE operators the paper benchmarks
 * (HE-Add, HE-Mult, Rescale, Rotate) plus plaintext variants. The
 * hybrid key switch they share is the context's HybridKeySwitch
 * (hybrid_keyswitch.h), the body BFV runs too.
 *
 * Every key switch takes a KeySwitchPrecomp, the key's batch-reusable
 * operands at one level (precomputeKeySwitch builds one, the context's
 * KeySwitchCache keeps them resident). Relinearisation, rotation and
 * each branch of a hoisted fan-out run the same inner product and
 * ModDown against it.
 *
 * Every kernel executed is reported to an optional KernelLog with its
 * shape and wall time; tests check the log against the pure schedule
 * enumerator (schedule.h), which is what the TPU cost model replays --
 * guaranteeing the simulator prices exactly the kernels the functional
 * implementation runs.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "ckks/ciphertext.h"
#include "ckks/context.h"
#include "ckks/kernel_log.h"
#include "ckks/keys.h"
#include "ckks/keyswitch_cache.h"
#include "common/check.h"

namespace cross::ckks {

/**
 * Galois elements are the units of Z_2N: odd and reduced mod 2N. Even
 * indices are not ring automorphisms at all, and indices >= 2N alias a
 * smaller element (a silently wrong rotation plus a duplicated
 * automorphism-map cache entry), so both are rejected up front. Shared
 * by the scalar and batch rotate paths so the predicate cannot
 * diverge.
 */
inline void
checkAutomorphismIndex(const CkksContext &ctx, u32 auto_idx)
{
    requireThat(auto_idx % 2 == 1 && auto_idx < 2 * ctx.degree(),
                "rotate: automorphism index must be odd and < 2N");
}

/**
 * CKKS scales must agree to this relative tolerance before add /
 * addPlain. One definition shared by the scalar evaluator and
 * BatchEvaluator::run's fail-fast prevalidation walk, so the batch
 * walk accepts exactly the operands the per-item execution would.
 */
inline bool
ckksScalesMatch(double a, double b)
{
    return std::abs(a - b) <= 1e-6 * std::max(a, b);
}

/**
 * The shared ModUp of one ciphertext polynomial: its digit
 * decomposition lifted to the extended basis (Q + complement + P), in
 * eval domain. Halevi-Shoup hoisting computes this once per input and
 * amortises it across a whole rotation fan-out -- the eval-domain
 * automorphism is a pure slot permutation, so each rotation gathers
 * the decomposed digits through it inside its inner product instead
 * of re-running ModUp.
 */
struct HoistedDecomp
{
    /** Level the decomposition was taken at (input limbs - 1). */
    size_t level = 0;
    /** One polynomial per active digit over extendedSlots(level), eval
     *  domain. */
    std::vector<poly::RnsPoly> digits;
};

/**
 * Homomorphic operator implementations.
 *
 * An operator that returns a changed copy of an input takes that input
 * by value (add and sub their first operand, relinearize, rescale,
 * addPlain, multiplyPlain, reduceToLimbs) and works in its limbs: a
 * caller that moves a dying value in pays no copy, and an lvalue
 * argument is copied once and left unchanged.
 */
class CkksEvaluator
{
  public:
    explicit CkksEvaluator(const CkksContext &ctx, KernelLog *log = nullptr)
        : ctx_(ctx), log_(log)
    {
    }

    /** @name Backbone HE operators (Table VIII workloads). @{ */
    Ciphertext add(Ciphertext a, const Ciphertext &b) const;
    Ciphertext sub(Ciphertext a, const Ciphertext &b) const;
    /** Tensor product without relinearisation. */
    Ciphertext3 multiplyNoRelin(const Ciphertext &a,
                                const Ciphertext &b) const;
    /** Key-switch the degree-2 term back to a 2-element ciphertext;
     *  @p pre is the relinearisation key's at c's level. */
    Ciphertext relinearize(Ciphertext3 c, const KeySwitchPrecomp &pre) const;
    /** multiplyNoRelin + relinearize, at the lower operand's level. */
    Ciphertext multiply(const Ciphertext &a, const Ciphertext &b,
                        const KeySwitchPrecomp &pre) const;
    /** Drop the last limb, dividing the scale by q_l. */
    Ciphertext rescale(Ciphertext ct) const;
    /** Slot rotation: automorphism + key switch. Implemented as a
     *  fan-out-of-one hoisted rotation (hoistedModUp +
     *  applyHoistedRotation), so each branch of a hoisted fan-out is
     *  bit-identical to its own rotate call by construction. */
    Ciphertext rotate(const Ciphertext &ct, u32 auto_idx,
                      const KeySwitchPrecomp &pre) const;
    /** @} */

    /** @name Halevi-Shoup hoisted rotations. @{ */
    /**
     * Phase 1 of the key switch, standalone: decompose @p c1 into
     * digits and lift each to the extended basis (one INTT + per-digit
     * BConv/NTT). The result is rotation-independent and can be shared
     * across every rotation of the same ciphertext at this level.
     */
    HoistedDecomp hoistedModUp(const poly::RnsPoly &c1) const;

    /**
     * Phases 2+3 against a shared decomposition: inner-product the
     * decomposed digits, permuted by @p auto_idx, with the rotation
     * key's digits, ModDown, and fold in c0 permuted the same way --
     * one rotation of the fan-out. The permutation is a gather inside
     * those loops; no rotated digit or c0 is built, and @p dec is only
     * read. Bit-identical to rotate(ct, auto_idx, pre) and only valid
     * when @p dec came from hoistedModUp(ct.c1).
     */
    Ciphertext applyHoistedRotation(const Ciphertext &ct,
                                    const HoistedDecomp &dec, u32 auto_idx,
                                    const KeySwitchPrecomp &pre) const;

    /** Credit a fan-out of @p fanout rotations sharing one ModUp to
     *  the log's shared-ModUp save counter (fanout-1 saves; no-op
     *  without a log or for fanout <= 1). The LinearTransform
     *  pipeline stage, the one fan-out, calls this after driving
     *  applyHoistedRotation once per branch. */
    void noteHoistedSaves(size_t fanout) const;
    /** @} */

    /** @name Plaintext operands. @{ */
    Ciphertext addPlain(Ciphertext ct, const Plaintext &pt) const;
    Ciphertext multiplyPlain(Ciphertext ct, const Plaintext &pt) const;
    /** @} */

    /** Truncate to @p limbs limbs (level reduction; scale unchanged). */
    Ciphertext reduceToLimbs(Ciphertext ct, size_t limbs) const;

    /**
     * Hybrid key-switching core (ModUp -> inner product -> ModDown)
     * against a shared per-level precomputation: the context's
     * HybridKeySwitch, logging here. Public because benches probe it
     * directly. Consumes @p c: ModUp INTTs it in place.
     */
    std::pair<poly::RnsPoly, poly::RnsPoly>
    keySwitch(poly::RnsPoly c, const KeySwitchPrecomp &pre) const;

    /**
     * Build the batch-reusable operands of keySwitch at @p level: the
     * extended slot list and the key digits restricted to it (the
     * context holds the conversions). Uncached: every call builds, so
     * a one-off key switch or a reference run leaves the context's
     * KeySwitchCache untouched.
     */
    KeySwitchPrecomp precomputeKeySwitch(const SwitchKey &swk,
                                         size_t level) const;

    /**
     * Like precomputeKeySwitch, but resident: served from the
     * context's KeySwitchCache, building at most once per
     * (key identity, level) while the entry stays resident. The
     * returned owner keeps the precomp valid after an eviction,
     * invalidate() or clear() (keyswitch_cache.h); BatchEvaluator::run
     * holds every precomp it fetches this way until it returns.
     */
    KeySwitchCache::Shared
    precomputeKeySwitchShared(const SwitchKey &swk, size_t level) const;

    /**
     * precomputeKeySwitchShared without the owner: the reference is
     * valid only while the entry stays resident, i.e. until an LRU
     * eviction, invalidate() or clear() drops it.
     */
    const KeySwitchPrecomp &
    precomputeKeySwitchCached(const SwitchKey &swk, size_t level) const;

  private:
    void logCall(KernelKind kind, u32 limbs, u32 limbs_out,
                 double seconds) const;

    const CkksContext &ctx_;
    KernelLog *log_;
};

} // namespace cross::ckks
