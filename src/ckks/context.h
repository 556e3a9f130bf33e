/**
 * @file
 * CKKS context: ring over Q u P, key-switching digit layout, the basis
 * conversions of ModUp and ModDown and the P-related constants of ModDown.
 */
#pragma once

#include <memory>
#include <vector>

#include "ckks/keyswitch_cache.h"
#include "ckks/params.h"
#include "poly/ring.h"
#include "rns/bconv.h"

namespace cross::ckks {

/** Immutable scheme context shared by encoder/encryptor/evaluator. */
class CkksContext
{
  public:
    explicit CkksContext(CkksParams params);

    const CkksParams &params() const { return params_; }
    const poly::Ring &ring() const { return *ring_; }
    u32 degree() const { return params_.n; }

    /** L: number of ciphertext (q) limbs. */
    size_t qCount() const { return params_.limbs; }
    /** Number of auxiliary (p) limbs. */
    size_t pCount() const { return params_.auxCount(); }
    /** Ring modulus index of auxiliary prime j. */
    u32 pSlot(size_t j) const { return static_cast<u32>(qCount() + j); }

    u64 qModulus(size_t i) const { return ring_->modulus(i); }
    u64 pModulus(size_t j) const { return ring_->modulus(pSlot(j)); }

    /** [P]_{q_i} and [P^-1]_{q_i} for ModDown. */
    u64 pModQ(size_t i) const { return pModQ_[i]; }
    u64 pInvModQ(size_t i) const { return pInvModQ_[i]; }

    /** [q_l^-1]_{q_i} for rescale from level l (i < l). */
    u64 qInvModQ(size_t l, size_t i) const;

    /** Digit index of q-limb i. */
    size_t digitOf(size_t i) const { return i / params_.alpha(); }

    /** q-limb range [first, last) of digit j at level l (limbs 0..l). */
    std::pair<size_t, size_t> digitRange(size_t j, size_t level) const;

    /** Number of active digits when limbs 0..level are live. */
    size_t activeDigits(size_t level) const;

    /**
     * Slot list used during key switching at @p level:
     * [0..level] q-limbs followed by all p-limbs.
     */
    std::vector<u32> extendedSlots(size_t level) const;

    /**
     * ModUp conversion for digit @p j at @p level: from the digit's
     * moduli to the complement q-moduli + all p-moduli. Every one is
     * built by the constructor, so lookups are read-only.
     * @throws std::out_of_range unless level < qCount() and
     *         j < activeDigits(level).
     */
    const rns::BasisConversion &modUpConv(size_t j, size_t level) const;

    /**
     * ModDown conversion at @p level: from P basis to q_0..q_level.
     * @throws std::out_of_range unless level < qCount().
     */
    const rns::BasisConversion &modDownConv(size_t level) const;

    /** Rescale conversion from q_l to q_0..q_{l-1} handled inline (exact
     *  small-value lift), no BasisConversion needed. */

    /**
     * Residency cache of key-switching operands, shared by every
     * evaluator and batch pipeline on this context: one
     * KeySwitchPrecomp per (key identity, level), built on first use
     * (see keyswitch_cache.h for the invalidation rules).
     */
    KeySwitchCache &keySwitchCache() const { return ksCache_; }

  private:
    CkksParams params_;
    std::unique_ptr<poly::Ring> ring_;
    std::vector<u64> pModQ_;
    std::vector<u64> pInvModQ_;
    // qInvModQ_[l][i] = q_l^-1 mod q_i
    std::vector<std::vector<u64>> qInvModQ_;
    // modUpConv_[level][j] and modDownConv_[level].
    std::vector<std::vector<rns::BasisConversion>> modUpConv_;
    std::vector<rns::BasisConversion> modDownConv_;
    mutable KeySwitchCache ksCache_;
};

} // namespace cross::ckks
