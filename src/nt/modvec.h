/**
 * @file
 * Vector lanes for the element-wise modular kernels.
 *
 * Every limb-wise hot loop in poly/ring.cc and rns/bconv.cc bottoms out
 * in one of these array operations. Each has a scalar
 * implementation (a plain loop over the nt/ scalar primitives -- the
 * ground truth) plus AVX2 / AVX-512 variants selected at runtime
 * through nt/simd_dispatch.h. All variants are bit-identical: the
 * vector kernels replicate the scalar arithmetic exactly (same
 * reductions, same lazy windows, same final folds), they just do it
 * 4-16 elements at a time.
 *
 * Aliasing: all operations are element-wise, so dst may alias a or b
 * element-for-element (the in-place forms in RnsPoly rely on this).
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

/** dst[j] = shoupMul(a[j], c, q), strict [0, q); a[j] < 2q allowed. */
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
 * owns the overflow budget -- BConv's step 2 reduces every
 * reduceEvery_ additions precisely so this product sum stays < 2^63.
 */
void accumMulVec(u64 *acc, const u32 *a, u32 w, size_t n);

/** dst[j] = bar.reduceWide(acc[j]); requires acc[j] < 2^63. */
void reduceWideVec(u32 *dst, const u64 *acc, size_t n,
                   const Barrett &bar);

/**
 * acc[j] = bar.reduceWide(acc[j]) in place -- the mid-window reduction
 * of a lazy accumulation chain (BConv step 2, ModMatMul).
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

} // namespace cross::nt
