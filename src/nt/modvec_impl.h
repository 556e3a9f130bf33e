/**
 * @file
 * Internal kernel table shared by the per-ISA modvec translation units.
 * Not installed / not part of the public surface -- include modvec.h.
 *
 * The table entries take raw precomputed parameters (q, qInv, r2, m64)
 * instead of the Montgomery/Barrett objects so the vector TUs depend
 * only on arithmetic, and so the scalar kernels can run the tail of
 * every vector kernel (identical formula => identical bits): a vector
 * body calls the scalar table entry or one of the out-of-line loops
 * below, never an inline helper of this header (docs/SIMD.md).
 */
#pragma once

#include <cstddef>

#include "common/types.h"
#include "nt/shoup.h"

namespace cross::nt::detail {

/**
 * Montgomery reduction, wide form, raw parameters: returns
 * z * 2^-32 mod q in the lazy range [0, 2q). Formula is byte-for-byte
 * Montgomery::reduce().
 */
inline u32
montReduceRaw(u64 z, u32 q, u32 qInv)
{
    u32 t = static_cast<u32>(z) * qInv;
    u32 t_final = static_cast<u32>((static_cast<u64>(t) * q) >> 32);
    return static_cast<u32>(z >> 32) + q - t_final;
}

/** mont.mulPlain(a, b) on raw parameters (r2 = 2^64 mod q). */
inline u32
montMulPlainRaw(u32 a, u32 b, u32 q, u32 qInv, u32 r2)
{
    u32 am = montReduceRaw(static_cast<u64>(a) * r2, q, qInv);
    am = am >= q ? am - q : am;
    u32 r = montReduceRaw(static_cast<u64>(am) * b, q, qInv);
    return r >= q ? r - q : r;
}

/** bar.reduceWide(z) on raw parameters (m64 = floor(2^64 / q)). */
inline u32
barrettReduceWideRaw(u64 z, u32 q, u64 m64)
{
    u64 t = static_cast<u64>((static_cast<u128>(z) * m64) >> 64);
    u64 r = z - t * q;
    if (r >= q)
        r -= q;
    if (r >= q)
        r -= q;
    return static_cast<u32>(r);
}

/**
 * liftCenteredVec's general form on raw parameters, its ground truth:
 * v when v <= q_from / 2, else -(q_from - v) mod q, both canonical in
 * [0, q) through a Barrett reduction of the magnitude.
 */
inline u32
liftCenteredRaw(u32 v, u32 q_from, u32 q, u64 m64)
{
    if (v <= q_from / 2)
        return barrettReduceWideRaw(v, q, m64);
    const u32 r = barrettReduceWideRaw(q_from - v, q, m64);
    return r == 0 ? 0 : q - r;
}

/**
 * With q_from < 2q every v <= q_from / 2 is already below q and every
 * magnitude q_from - v of the other half is in [1, q), so the lift is
 * one select: v, or v + (q - q_from) (mod 2^32). The vector kernels
 * take this path and fall back to the general loop otherwise.
 */
inline bool
liftIsSelect(u32 q_from, u32 q)
{
    return q_from < 2ULL * q;
}

/** The general loop, shared by every dispatch path. */
inline void
liftCenteredLoop(u32 *dst, const u32 *a, size_t n, u32 q_from, u32 q,
                 u64 m64)
{
    for (size_t j = 0; j < n; ++j)
        dst[j] = liftCenteredRaw(a[j], q_from, q, m64);
}

/** The select form of one element (liftIsSelect holds). */
inline u32
liftCenteredSelect(u32 v, u32 half, u32 shift)
{
    return v > half ? v + shift : v;
}

/**
 * The one reduction of a lazy product sum: Montgomery-reduce z (to
 * z * 2^-32 in [0, 2q)), multiply by r2 = 2^64 mod q and reduce again
 * (back to z mod q, in [0, 2q)), then fold. Requires z < q * 2^32 and
 * q < 2^31, so the second product stays below q * 2^32 too; only
 * 32x32->64 multiplies, the shape every vector path has.
 */
inline u32
lazySumReduceRaw(u64 z, u32 q, u32 qInv, u32 r2)
{
    const u32 r = montReduceRaw(z, q, qInv);
    const u32 s = montReduceRaw(static_cast<u64>(r) * r2, q, qInv);
    return s >= q ? s - q : s;
}

/**
 * keySwitchProductVec's scalar loop over coefficients [from, n), the
 * ground truth and every vector kernel's tail: both sums take one
 * product per digit and fold through lazySumReduceRaw after every
 * @p budget products that more products follow. This loop and the two
 * below are defined out of line in modvec.cc, so a vector translation
 * unit reaches them by call and compiles no copy of its own.
 */
void keySwitchProductLoop(u32 *out0, u32 *out1, const u32 *const *digits,
                          const u32 *const *key0, const u32 *const *key1,
                          size_t d, const u32 *map, size_t from, size_t n,
                          u32 q, u32 qInv, u32 r2, size_t budget);

/**
 * bconvDotVec's scalar loop over [from, n), the ground truth and every
 * vector kernel's tail. Limb-outer over blocks of kDotLanes u64 lane
 * sums, so the product loop auto-vectorises; each lane folds like the
 * above, after every @p budget products that more products follow.
 */
void bconvDotLoop(u32 *out, const u32 *const *b, const u32 *w, size_t k,
                  size_t from, size_t n, u32 q, u32 qInv, u32 r2,
                  size_t budget);

/** gatherAddModVec's scalar loop over [from, n). */
void gatherAddModLoop(u32 *dst, const u32 *src, const u32 *map, size_t from,
                      size_t n, u32 q);

/** One dispatch path's implementations of the modvec.h operations. */
struct ModVecKernels
{
    void (*addMod)(u32 *, const u32 *, const u32 *, size_t, u32);
    void (*subMod)(u32 *, const u32 *, const u32 *, size_t, u32);
    void (*negMod)(u32 *, const u32 *, size_t, u32);
    void (*mulShoup)(u32 *, const u32 *, ShoupConst, size_t, u32);
    void (*mulMont)(u32 *, const u32 *, const u32 *, size_t, u32 q,
                    u32 qInv, u32 r2);
    void (*mulMod)(u32 *, const u32 *, const u32 *, size_t, u32 q,
                   u64 m64);
    void (*accumMul)(u64 *, const u32 *, u32, size_t);
    void (*reduceWide)(u32 *, const u64 *, size_t, u32 q, u64 m64);
    void (*reduceWideInPlace)(u64 *, size_t, u32 q, u64 m64);
    void (*liftCentered)(u32 *, const u32 *, size_t, u32 q_from, u32 q,
                         u64 m64);
    void (*keySwitchProduct)(u32 *, u32 *, const u32 *const *,
                             const u32 *const *, const u32 *const *,
                             size_t d, const u32 *map, size_t n, u32 q,
                             u32 qInv, u32 r2, size_t budget);
    void (*bconvDot)(u32 *, const u32 *const *, const u32 *, size_t k,
                     size_t n, u32 q, u32 qInv, u32 r2, size_t budget);
    void (*gatherAddMod)(u32 *, const u32 *, const u32 *, size_t, u32);
};

const ModVecKernels &modVecKernelsScalar();
#ifdef CROSS_HAVE_AVX2
const ModVecKernels &modVecKernelsAvx2();
#endif
#ifdef CROSS_HAVE_AVX512
const ModVecKernels &modVecKernelsAvx512();
#endif

} // namespace cross::nt::detail
