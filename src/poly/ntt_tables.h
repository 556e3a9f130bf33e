/**
 * @file
 * Per-(N, q) negacyclic NTT twiddle tables.
 *
 * psi is a primitive 2N-th root of unity mod q; the negacyclic NTT
 * evaluates a polynomial at the odd powers psi^(2k+1), which is what makes
 * products reduce modulo x^N + 1 instead of x^N - 1. Tables are stored in
 * bit-reversed order with Shoup precomputation, the layout expected by the
 * Cooley-Tukey / Gentleman-Sande in-place kernels in ntt_ct.h.
 *
 * Each direction is one ShoupTwiddles: three u32 arrays (w and the two
 * halves of its Shoup factor) instead of one array of padded 16-byte
 * ShoupConst, so a vector stage loads one twiddle per lane with plain
 * contiguous loads, at 12 bytes per twiddle. psiBr()/psiInvBr() rebuild
 * one entry as a ShoupConst by value for scalar callers.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "nt/shoup.h"

namespace cross::poly {

/**
 * Shoup-form twiddles as structure-of-arrays: entry i is w[i] with the
 * Shoup factor shoupHi[i] * 2^32 + shoupLo[i].
 */
struct ShoupTwiddles
{
    std::vector<u32> w;
    std::vector<u32> shoupLo;
    std::vector<u32> shoupHi;

    /** Entry @p i as a ShoupConst. */
    nt::ShoupConst at(size_t i) const
    {
        return {w[i], (static_cast<u64>(shoupHi[i]) << 32) | shoupLo[i]};
    }
};

/** Twiddle-factor tables for a fixed ring degree N and prime modulus q. */
class NttTables
{
  public:
    /**
     * @param n ring degree (power of two)
     * @param q NTT prime with q == 1 (mod 2n)
     */
    NttTables(u32 n, u32 q);

    u32 degree() const { return n_; }
    u32 modulus() const { return q_; }

    /** The primitive 2N-th root psi used by these tables. */
    u32 psi() const { return psi_; }

    /** psi^bitrev(i) for i in [0, N), the forward (CT) twiddles. */
    const ShoupTwiddles &forwardTwiddles() const { return psiBr_; }

    /** psi^-bitrev(i), the inverse (GS) twiddles. */
    const ShoupTwiddles &inverseTwiddles() const { return psiInvBr_; }

    /** psi^bitrev(i), Shoup form; i in [0, N). */
    nt::ShoupConst psiBr(u32 i) const { return psiBr_.at(i); }

    /** psi^-bitrev(i), Shoup form. */
    nt::ShoupConst psiInvBr(u32 i) const { return psiInvBr_.at(i); }

    /** N^-1 mod q, Shoup form (final INTT scaling). */
    const nt::ShoupConst &nInv() const { return nInv_; }

    /** Natural-order power psi^e (e in [0, 2N)); used to build matrices. */
    u32 psiPow(u64 e) const;

  private:
    u32 n_;
    u32 q_;
    u32 psi_;
    u32 psiInv_;
    ShoupTwiddles psiBr_;
    ShoupTwiddles psiInvBr_;
    nt::ShoupConst nInv_;
};

} // namespace cross::poly
