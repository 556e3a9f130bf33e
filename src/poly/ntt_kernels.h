/**
 * @file
 * Dispatch table for the radix-2 NTT stage kernels (internal to poly/).
 *
 * The lazy-reduction NTT (ntt_ct.cc) keeps coefficients in a redundant
 * representation across stages -- [0, 4q) through the Cooley-Tukey
 * forward passes, [0, 2q) through the Gentleman-Sande inverse passes --
 * and only folds back to the canonical [0, q) at transform outputs.
 * That removes the per-butterfly conditional corrections the strict
 * kernels pay, and it is exactly the shape the SIMD variants want: one
 * unsigned-min fold per vector instead of compare/branch per element.
 * Requires q < 2^30 so 4q fits u32; ntt_ct.cc falls back to the strict
 * scalar kernels for wider moduli.
 *
 * Every stage entry runs one whole stage over a limb of n coefficients:
 * the n / (2t) butterfly blocks of span t, where block i pairs a[2it + j]
 * with a[2it + t + j] (j < t) under twiddle n / (2t) + i of the
 * direction's table -- the same rule forward and inverse. The transform
 * makes one indirect call per stage. The vector entries broadcast the
 * block's twiddle when t is at least one vector wide; narrower spans run
 * on two vectors at a time, permuted into x and y halves with one
 * twiddle per lane (docs/SIMD.md), and a degree below two vectors runs
 * the scalar stage. The scalar one-element helpers below ARE the
 * semantics; the vector kernels must match them bit-for-bit (enforced
 * by tests/simd_test.cc).
 */
#pragma once

#include <cstddef>

#include "common/types.h"
#include "nt/shoup.h"
#include "poly/ntt_tables.h"

namespace cross::poly::detail {

/**
 * Lazy CT butterfly: x in [0, 4q) folded to [0, 2q), v = y * w lazily
 * in [0, 2q); writes x' = x + v and y' = x - v + 2q, both in [0, 4q).
 */
inline void
fwdButterflyLazyOne(u32 *x, u32 *y, const nt::ShoupConst &c, u32 q,
                    u32 two_q)
{
    u32 u = *x;
    if (u >= two_q)
        u -= two_q;
    const u32 v = nt::shoupMulLazy(*y, c, q);
    *x = u + v;
    *y = u - v + two_q;
}

/**
 * Lazy GS butterfly with the [0, 2q) invariant: x' = x + y folded to
 * [0, 2q); y' = (x - y + 2q) * w lazily in [0, 2q) (the Shoup multiply
 * accepts the full u32 range, so x - y + 2q < 4q needs no pre-fold).
 */
inline void
invButterflyLazyOne(u32 *x, u32 *y, const nt::ShoupConst &c, u32 q,
                    u32 two_q)
{
    const u32 u = *x;
    const u32 v = *y;
    u32 s = u + v;
    if (s >= two_q)
        s -= two_q;
    *x = s;
    *y = nt::shoupMulLazy(u - v + two_q, c, q);
}

/** Canonical fold of one redundant value from [0, 4q) to [0, q). */
inline u32
fold4qOne(u32 v, u32 q, u32 two_q)
{
    if (v >= two_q)
        v -= two_q;
    if (v >= q)
        v -= q;
    return v;
}

/** One dispatch path's stage kernels. */
struct NttKernels
{
    void (*fwdStage)(u32 *a, u32 n, u32 t, const ShoupTwiddles &tw, u32 q);
    void (*invStage)(u32 *a, u32 n, u32 t, const ShoupTwiddles &tw, u32 q);
    void (*fold4q)(u32 *a, size_t len, u32 q);
};

const NttKernels &nttKernelsScalar();
#ifdef CROSS_HAVE_AVX2
const NttKernels &nttKernelsAvx2();
#endif
#ifdef CROSS_HAVE_AVX512
const NttKernels &nttKernelsAvx512();
#endif

/** The table for the currently dispatched ISA (nt/simd_dispatch.h). */
const NttKernels &activeNttKernels();

} // namespace cross::poly::detail
