/**
 * @file
 * CKKS context: ring over Q u P, the rescale constants and the hybrid
 * key switch over that ring (digit layout, ModUp / ModDown conversions
 * and P constants; see hybrid_keyswitch.h).
 */
#pragma once

#include <memory>
#include <vector>

#include "ckks/hybrid_keyswitch.h"
#include "ckks/keyswitch_cache.h"
#include "ckks/params.h"
#include "poly/ring.h"

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

    u64 qModulus(size_t i) const { return ring_->modulus(i); }

    /** [q_l^-1]_{q_i} for rescale from level l (i < l). */
    u64 qInvModQ(size_t l, size_t i) const;

    /**
     * The hybrid key switch over this context's ring (Q u P, dnum
     * digits): its layout, the phases the evaluator runs and the
     * switching-key generator (see hybrid_keyswitch.h for each).
     */
    const HybridKeySwitch &hybridKeySwitch() const { return *ks_; }

    /** hybridKeySwitch().modUpConv(j, l), kept for setbench/ledger.cc. */
    const rns::BasisConversion &
    modUpConv(size_t j, size_t l) const { return ks_->modUpConv(j, l); }

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
    std::unique_ptr<HybridKeySwitch> ks_;
    // qInvModQ_[l][i] = q_l^-1 mod q_i
    std::vector<std::vector<u64>> qInvModQ_;
    mutable KeySwitchCache ksCache_;
};

} // namespace cross::ckks
