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
 * Each direction is two u32 arrays, w and its 32-bit Shoup factor
 * floor(w * 2^32 / q) (nt/shoup.h), read through a ShoupTwiddles view:
 * 8 bytes per twiddle, and a vector stage loads one twiddle per lane
 * with plain contiguous loads. psiBr()/psiInvBr() return one entry as
 * a ShoupConst by value for scalar callers.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "nt/shoup.h"

namespace cross::poly {

/**
 * Shoup-form twiddles as structure-of-arrays: entry i is w[i] with the
 * Shoup factor wShoup[i]. A view of the NttTables that made it, valid
 * while they live; the vector stage kernels read the arrays through
 * these plain pointers.
 */
struct ShoupTwiddles
{
    const u32 *w;
    const u32 *wShoup;

    /** Entry @p i as a ShoupConst. */
    nt::ShoupConst at(size_t i) const { return {w[i], wShoup[i]}; }
};

/** Twiddle-factor tables for a fixed ring degree N and prime modulus q. */
class NttTables
{
  public:
    /**
     * @param n ring degree (power of two)
     * @param q NTT prime with q == 1 (mod 2n) and q < 2^31
     */
    NttTables(u32 n, u32 q);

    u32 degree() const { return n_; }
    u32 modulus() const { return q_; }

    /** The primitive 2N-th root psi used by these tables. */
    u32 psi() const { return psi_; }

    /** psi^bitrev(i) for i in [0, N), the forward (CT) twiddles. */
    ShoupTwiddles forwardTwiddles() const { return twiddles(0); }

    /** psi^-bitrev(i), the inverse (GS) twiddles. */
    ShoupTwiddles inverseTwiddles() const { return twiddles(1); }

    /** psi^bitrev(i), Shoup form; i in [0, N). */
    nt::ShoupConst psiBr(u32 i) const { return forwardTwiddles().at(i); }

    /** psi^-bitrev(i), Shoup form. */
    nt::ShoupConst psiInvBr(u32 i) const { return inverseTwiddles().at(i); }

    /** N^-1 mod q, Shoup form (final INTT scaling). */
    const nt::ShoupConst &nInv() const { return nInv_; }

    /** Natural-order power psi^e (e in [0, 2N)); used to build matrices. */
    u32 psiPow(u64 e) const;

  private:
    /** Direction @p dir's arrays: w and wShoup, N each. */
    ShoupTwiddles twiddles(size_t dir) const
    {
        const u32 *p = twiddles_.data() + 2 * dir * n_;
        return {p, p + n_};
    }

    u32 n_;
    u32 q_;
    u32 psi_;
    u32 psiInv_;
    std::vector<u32> twiddles_; ///< forward, then inverse (twiddles())
    nt::ShoupConst nInv_;
};

} // namespace cross::poly
