/**
 * @file
 * Basis Conversion (BConv), paper Section F2 / Fig. 15b.
 *
 * Converts RNS residues from basis B1 = {q_i} to basis B2 = {p_j}:
 *
 *   Conv(a)_j = ( sum_i [a_i * qHatInv_i]_{q_i} * [Q/q_i]_{p_j} ) mod p_j
 *
 * split into the two steps the paper schedules separately:
 *   Step 1: L x N-VecModMul   (b_i = a_i * qHatInv_i mod q_i)
 *   Step 2: (N, L, L')-MatModMul  (the latency-dominant part that BAT
 *           turns into an INT8 MXU matmul, Table VI)
 *
 * This is the standard *approximate* conversion: the result represents
 * x + alpha*Q (mod p_j) for some 0 <= alpha < L, which HE schemes absorb
 * into noise. Tests verify exactness of the computed sum against BigUInt.
 *
 * The arithmetic lives in one body over limb pointers (convert), so a
 * caller converts between limbs it already owns -- the key switch reads
 * a digit's limbs in place and writes the converted limbs straight into
 * the extended-basis polynomial. The LimbMatrix forms check shapes and
 * forward to it.
 */
#pragma once

#include <vector>

#include "nt/shoup.h"
#include "rns/basis.h"

namespace cross::rns {

/** Limb-major data layout: data[i][n] = coefficient n modulo modulus i. */
using LimbMatrix = std::vector<std::vector<u32>>;

/** Precomputed conversion between two RNS bases. */
class BasisConversion
{
  public:
    BasisConversion(const RnsBasis &from, const RnsBasis &to);

    const RnsBasis &from() const { return from_; }
    const RnsBasis &to() const { return to_; }

    /**
     * The conversion body: reads from().size() limbs through @p in and
     * writes to().size() limbs through @p out, @p n coefficients each.
     * Both steps run one block of coefficients at a time through a few
     * KiB of step-1 scratch allocated per call; step 2 sums each
     * output coefficient in registers (nt::bconvDotVec) and writes each
     * output limb once, so @p out may point into a polynomial's limbs.
     */
    void convert(const u32 *const *in, u32 *const *out, size_t n) const;

    /**
     * Step 1 alone: b_i = a_i * qHatInv_i mod q_i (per-limb VecModMul),
     * convert's first half. The three LimbMatrix forms throw
     * std::invalid_argument on a wrong limb count or on limbs of
     * unequal length, size @p out to its shape (reusing its storage)
     * and forward to convert's halves.
     */
    void step1(const LimbMatrix &in, LimbMatrix &out) const;

    /**
     * Step 2 alone: c_j = sum_i b_i * [Q/q_i]_{p_j} mod p_j; requires
     * b_i < q_i, step 1's output range.
     */
    void step2(const LimbMatrix &b, LimbMatrix &out) const;

    /** Both steps (convert). Output gets shape [to.size()][N]. */
    void apply(const LimbMatrix &in, LimbMatrix &out) const;

    /** Step-2 parameter matrix entry [Q/q_i]_{p_j}; fed to BAT offline. */
    u32
    table(size_t i, size_t j) const
    {
        return weights_[j * from_.size() + i];
    }

  private:
    /** convert's halves, over limb pointers. */
    void scaleLimbs(const u32 *const *in, u32 *const *b, size_t n) const;
    void accumulateLimbs(const u32 *const *b, u32 *const *out,
                         size_t n) const;

    RnsBasis from_;
    RnsBasis to_;
    // weights_[j * from.size() + i] = [Q/q_i]_{p_j}: target j's row is
    // contiguous for nt::bconvDotVec.
    std::vector<u32> weights_;
    // Per target j: products between two folds of its lazy sums.
    std::vector<size_t> budget_;
    // Shoup precomputation of qHatInv per source limb for step 1.
    std::vector<nt::ShoupConst> qHatInvShoup_;
};

} // namespace cross::rns
