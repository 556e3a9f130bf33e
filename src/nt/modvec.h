/**
 * @file
 * Vector lanes for the element-wise modular kernels.
 *
 * Every limb-wise hot loop in poly/ring.cc, rns/bconv.cc and the key
 * switch bottoms out in one of these array operations. Each has a scalar
 * implementation (a plain loop over the nt/ scalar primitives -- the
 * ground truth) plus AVX2 / AVX-512 variants selected at runtime
 * through nt/simd_dispatch.h. All variants are bit-identical: the
 * vector kernels replicate the scalar arithmetic exactly (same
 * reductions, same lazy windows, same final folds), they just do it
 * 4-16 elements at a time.
 *
 * Aliasing: the element-wise operations let dst alias a or b
 * element-for-element (the in-place forms in RnsPoly rely on this); the
 * lazy product sums, which gather or sum across limbs, say what must
 * not overlap.
 */
#pragma once

#include <cstddef>

#include "common/types.h"
#include "nt/barrett.h"
#include "nt/montgomery.h"
#include "nt/shoup.h"

namespace cross::nt {

/** dst[j] = (a[j] + b[j]) mod q; requires a[j], b[j] < q. */
void addModVec(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q);

/** dst[j] = (a[j] - b[j]) mod q; requires a[j], b[j] < q. */
void subModVec(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q);

/** dst[j] = (-a[j]) mod q; requires a[j] < q. */
void negModVec(u32 *dst, const u32 *a, size_t n, u32 q);

/** dst[j] = shoupMul(a[j], c, q), strict [0, q); any u32 a[j] (lazy
 *  inputs below 2q included). */
void mulShoupVec(u32 *dst, const u32 *a, const ShoupConst &c, size_t n,
                 u32 q);

/** dst[j] = mont.mulPlain(a[j], b[j]); requires a[j], b[j] < q. */
void mulMontVec(u32 *dst, const u32 *a, const u32 *b, size_t n,
                const Montgomery &mont);

/**
 * dst[j] = (a[j] * b[j]) mod q via Barrett, canonical [0, q);
 * requires a[j], b[j] < q. Same value as nt::mulMod -- the elementwise
 * twiddle lane of the 3-step/4-step matrix NTTs.
 */
void mulModVec(u32 *dst, const u32 *a, const u32 *b, size_t n,
               const Barrett &bar);

/**
 * acc[j] += a[j] * w (plain u64 accumulate, no reduction). The caller
 * owns the overflow budget -- poly::matMulRaw reduces every window of
 * additions precisely so this product sum stays < 2^63.
 */
void accumMulVec(u64 *acc, const u32 *a, u32 w, size_t n);

/** dst[j] = bar.reduceWide(acc[j]); requires acc[j] < 2^63. */
void reduceWideVec(u32 *dst, const u64 *acc, size_t n,
                   const Barrett &bar);

/**
 * acc[j] = bar.reduceWide(acc[j]) in place -- the mid-window reduction
 * of a lazy accumulation chain (ModMatMul).
 */
void reduceWideInPlaceVec(u64 *acc, size_t n, const Barrett &bar);

/**
 * Centred lift between moduli: dst[j] = a[j] when a[j] <= q_from / 2,
 * else (a[j] - q_from) mod q, canonical in [0, q) for
 * q = bar.modulus(); requires a[j] < q_from. One select per element
 * when q_from < 2q, which holds for any two primes of one bit width
 * (so for every CKKS rescale); a Barrett reduction otherwise. The
 * rescale lifts its dropped limb into each remaining one with it.
 */
void liftCenteredVec(u32 *dst, const u32 *a, size_t n, u32 q_from,
                     const Barrett &bar);

/**
 * @name Lazy product sums
 * Dot products whose reduction is deferred: each coefficient's plain
 * 32x32-bit products add in a u64 lane and the sum reduces once
 * (Montgomery, times 2^64 mod q, Montgomery again, fold), the CPU form
 * of the MXU's wide accumulate. A lane sum must stay below q * 2^32:
 * it folds through the same reduction after every lazySumBudget
 * products that more products follow. Outputs are canonical, so they
 * equal mulMontVec + addModVec on the same inputs bit for bit. @{
 */

/**
 * Products of at most @p max_product each that a lane can add between
 * two folds: it starts at 0 or at a folded residue below q and must
 * stay below q * 2^32. 16 for 28-bit operands under a 28-bit q, 2-3
 * for 31-bit ones.
 */
size_t lazySumBudget(u32 q, u64 max_product);

/**
 * The key switch's digit x key inner product on one extended-basis
 * limb of modulus q = mont.modulus(), both halves at once:
 *   out0[m] = sum_j digits[j][map[m]] * key0[j][m] mod q,
 *   out1[m] = sum_j digits[j][map[m]] * key1[j][m] mod q,
 * over j < d, with map[m] = m when @p map is null (no rotation). The
 * vector paths gather through the map in-register. Requires every
 * digit and key value < q and every map entry < n; the outputs must
 * not overlap the inputs.
 */
void keySwitchProductVec(u32 *out0, u32 *out1, const u32 *const *digits,
                         const u32 *const *key0, const u32 *const *key1,
                         size_t d, const u32 *map, size_t n,
                         const Montgomery &mont);

/**
 * BConv's step-2 row for one target modulus q = mont.modulus():
 * out[m] = sum_i b[i][m] * w[i] mod q over i < k, folding every
 * @p budget products (lazySumBudget of the largest b x w product).
 * Requires w[i] < q; @p out must not overlap the b limbs.
 */
void bconvDotVec(u32 *out, const u32 *const *b, const u32 *w, size_t k,
                 size_t n, size_t budget, const Montgomery &mont);

/**
 * dst[m] = (dst[m] + src[map[m]]) mod q: a rotation's closing add of
 * c0 with the automorphism gathered in. Requires dst[m], src[m] < q
 * and map entries < n; dst must not overlap src.
 */
void gatherAddModVec(u32 *dst, const u32 *src, const u32 *map, size_t n,
                     u32 q);
/** @} */

} // namespace cross::nt
