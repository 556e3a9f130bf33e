/**
 * @file
 * AVX-512 (F+DQ+VL) lane primitives shared by the -mavx512* TUs
 * (nt/modvec_avx512.cc, poly/ntt_simd_avx512.cc). Same structure and
 * bit-exactness contract as simd_lanes_avx2.h, at twice the width and
 * with the 512 niceties: mask registers replace blendv, vpmullq (DQ)
 * replaces the two-multiply low-64 product, and vpmovqd compresses
 * u64 lanes in one instruction.
 */
#pragma once

#if !defined(__AVX512F__) || !defined(__AVX512DQ__) || \
    !defined(__AVX512VL__)
#error "simd_lanes_avx512.h requires an -mavx512f/dq/vl translation unit"
#endif

#include <immintrin.h>

#include "common/types.h"

namespace cross::nt::avx512 {

/** Fold 16 u32 lanes from [0, 2q) into [0, q). */
inline __m512i
fold2qU32(__m512i x, __m512i q)
{
    return _mm512_min_epu32(x, _mm512_sub_epi32(x, q));
}

/** Fold u64 lanes holding values < 2^32 (masked subtract -- no
 *  wrap-around trickery needed with AVX-512 compares). */
inline __m512i
fold2qU64Lane(__m512i x, __m512i q64)
{
    const __mmask8 ge = _mm512_cmpge_epu64_mask(x, q64);
    return _mm512_mask_sub_epi64(x, ge, x, q64);
}

/** Merge even-half and odd-half u64-lane results into 16 u32 lanes. */
inline __m512i
mergeHalves(__m512i re, __m512i ro)
{
    return _mm512_mask_blend_epi32(0xAAAA, re,
                                   _mm512_slli_epi64(ro, 32));
}

/** shoupMulLazy on one u64-lane half; see simd_lanes_avx2.h. */
inline __m512i
shoupMulLazyHalf(__m512i xh, __m512i wV, __m512i wsLoV, __m512i wsHiV,
                 __m512i qV)
{
    const __m512i p0 = _mm512_mul_epu32(xh, wsLoV);
    const __m512i p1 = _mm512_mul_epu32(xh, wsHiV);
    const __m512i hi = _mm512_srli_epi64(
        _mm512_add_epi64(p1, _mm512_srli_epi64(p0, 32)), 32);
    const __m512i wa = _mm512_mul_epu32(xh, wV);
    return _mm512_sub_epi64(wa, _mm512_mul_epu32(hi, qV));
}

/** shoupMulLazy on 16 u32 lanes (any u32 input, results in [0, 2q)). */
inline __m512i
shoupMulLazy16(__m512i x, __m512i wV, __m512i wsLoV, __m512i wsHiV,
               __m512i qV)
{
    const __m512i re = shoupMulLazyHalf(x, wV, wsLoV, wsHiV, qV);
    const __m512i ro = shoupMulLazyHalf(_mm512_srli_epi64(x, 32), wV,
                                        wsLoV, wsHiV, qV);
    return mergeHalves(re, ro);
}

/**
 * shoupMulLazy with one twiddle per u32 lane: lane l of w, wsLo and
 * wsHi holds lane l's w and the two halves of its Shoup factor (a
 * _mm512_set1_epi32 broadcast works too). The odd half shifts its
 * twiddles down with x. Scalar twin: shoupMulLazy() in nt/shoup.h.
 */
inline __m512i
shoupMulLazy16PerLane(__m512i x, __m512i w, __m512i wsLo, __m512i wsHi,
                      __m512i qV)
{
    const __m512i re = shoupMulLazyHalf(x, w, wsLo, wsHi, qV);
    const __m512i ro = shoupMulLazyHalf(
        _mm512_srli_epi64(x, 32), _mm512_srli_epi64(w, 32),
        _mm512_srli_epi64(wsLo, 32), _mm512_srli_epi64(wsHi, 32), qV);
    return mergeHalves(re, ro);
}

/** Montgomery reduce u64 lanes z = a*b (a, b < q) into [0, 2q). */
inline __m512i
montReduce64(__m512i z, __m512i qV, __m512i qInvV)
{
    const __m512i t = _mm512_mul_epu32(z, qInvV);
    const __m512i tf =
        _mm512_srli_epi64(_mm512_mul_epu32(t, qV), 32);
    const __m512i zhi = _mm512_srli_epi64(z, 32);
    return _mm512_sub_epi64(_mm512_add_epi64(zhi, qV), tf);
}

/** mont.mulPlain on one u64-lane half (inputs < q in low dwords). */
inline __m512i
montMulPlainHalf(__m512i ah, __m512i bh, __m512i qV, __m512i qInvV,
                 __m512i r2V)
{
    const __m512i am = fold2qU64Lane(
        montReduce64(_mm512_mul_epu32(ah, r2V), qV, qInvV), qV);
    return fold2qU64Lane(
        montReduce64(_mm512_mul_epu32(am, bh), qV, qInvV), qV);
}

/**
 * The lazy-sum reduction on u64 lanes z < q * 2^32: Montgomery, times
 * r2 = 2^64 mod q, Montgomery again, fold; results < q in the low
 * dwords. Scalar twin: lazySumReduceRaw() in nt/modvec_impl.h.
 */
inline __m512i
lazySumReduce64(__m512i z, __m512i qV, __m512i qInvV, __m512i r2V)
{
    const __m512i r = montReduce64(z, qV, qInvV);
    return fold2qU64Lane(
        montReduce64(_mm512_mul_epu32(r, r2V), qV, qInvV), qV);
}

/** floor(x * m / 2^64) for full-u64 lanes x, m split into dwords. */
inline __m512i
mulHi64(__m512i x, __m512i mLo, __m512i mHi, __m512i lo32)
{
    const __m512i xh = _mm512_srli_epi64(x, 32);
    const __m512i ll = _mm512_mul_epu32(x, mLo);
    const __m512i hl = _mm512_mul_epu32(xh, mLo);
    const __m512i lh = _mm512_mul_epu32(x, mHi);
    const __m512i hh = _mm512_mul_epu32(xh, mHi);
    const __m512i cross = _mm512_add_epi64(
        _mm512_add_epi64(_mm512_srli_epi64(ll, 32),
                         _mm512_and_si512(hl, lo32)),
        _mm512_and_si512(lh, lo32));
    return _mm512_add_epi64(
        _mm512_add_epi64(hh, _mm512_srli_epi64(hl, 32)),
        _mm512_add_epi64(_mm512_srli_epi64(lh, 32),
                         _mm512_srli_epi64(cross, 32)));
}

/** One conditional `r >= q ? r - q : r` on u64 lanes (masked). */
inline __m512i
condSubQ64(__m512i r, __m512i q64)
{
    const __mmask8 ge = _mm512_cmpge_epu64_mask(r, q64);
    return _mm512_mask_sub_epi64(r, ge, r, q64);
}

} // namespace cross::nt::avx512
