/**
 * @file
 * AVX2 lane primitives shared by the -mavx2 translation units
 * (nt/modvec_avx2.cc, poly/ntt_simd_avx2.cc). Include ONLY from
 * sources compiled with -mavx2 -- the guard below makes a stray
 * include a compile error instead of an illegal-instruction crash.
 *
 * Conventions:
 *  - "u32 lanes": a __m256i holding 8 independent u32 values.
 *  - "u64 lanes": a __m256i holding 4 values, each in the LOW 32 bits
 *    of a 64-bit lane with the high 32 bits zero (the natural output
 *    shape of _mm256_mul_epu32-based reductions).
 *  - 8-wide ops use the even/odd split: the even u64 half is the
 *    register itself (mul_epu32 reads low dwords), the odd half is the
 *    register shifted right 32; results recombine with a lane blend.
 *
 * Every helper mirrors one scalar primitive in nt/ bit-for-bit; the
 * comments name the scalar twin.
 */
#pragma once

#ifndef __AVX2__
#error "simd_lanes_avx2.h requires an -mavx2 translation unit"
#endif

#include <immintrin.h>

#include "common/types.h"

namespace cross::nt::avx2 {

/**
 * Fold 8 u32 lanes from [0, 2q) into [0, q): min(x, x - q) unsigned.
 * When x < q the subtraction wraps above 2^31 > x, so min keeps x.
 * Scalar twin: `r >= q ? r - q : r`.
 */
inline __m256i
fold2qU32(__m256i x, __m256i q)
{
    return _mm256_min_epu32(x, _mm256_sub_epi32(x, q));
}

/**
 * Same fold for u64 lanes holding values < 2^32: a wrapped 64-bit
 * subtraction leaves all-ones in the high dword, which min_epu32
 * squashes back to the zero high dword of x.
 */
inline __m256i
fold2qU64Lane(__m256i x, __m256i q64)
{
    return _mm256_min_epu32(x, _mm256_sub_epi64(x, q64));
}

/** Merge even-half results re and odd-half results ro (both u64
 *  lanes) back into 8 u32 lanes. */
inline __m256i
mergeHalves(__m256i re, __m256i ro)
{
    return _mm256_blend_epi32(re, _mm256_slli_epi64(ro, 32), 0xAA);
}

/**
 * shoupMulLazy on one u64-lane half: x * w - floor(x * wShoup / 2^96
 * ... ) -- precisely, hi = floor(wShoup * x / 2^64) computed as
 * (wsHi*x + ((wsLo*x) >> 32)) >> 32 (exact: both partials < 2^64 and
 * their sum cannot carry), then x*w - hi*q in [0, 2q).
 * Scalar twin: shoupMulLazy() in nt/shoup.h.
 */
inline __m256i
shoupMulLazyHalf(__m256i xh, __m256i wV, __m256i wsLoV, __m256i wsHiV,
                 __m256i qV)
{
    const __m256i p0 = _mm256_mul_epu32(xh, wsLoV);
    const __m256i p1 = _mm256_mul_epu32(xh, wsHiV);
    const __m256i hi = _mm256_srli_epi64(
        _mm256_add_epi64(p1, _mm256_srli_epi64(p0, 32)), 32);
    const __m256i wa = _mm256_mul_epu32(xh, wV);
    return _mm256_sub_epi64(wa, _mm256_mul_epu32(hi, qV));
}

/** shoupMulLazy on 8 u32 lanes (any u32 input, results in [0, 2q)). */
inline __m256i
shoupMulLazy8(__m256i x, __m256i wV, __m256i wsLoV, __m256i wsHiV,
              __m256i qV)
{
    const __m256i re = shoupMulLazyHalf(x, wV, wsLoV, wsHiV, qV);
    const __m256i ro = shoupMulLazyHalf(_mm256_srli_epi64(x, 32), wV,
                                        wsLoV, wsHiV, qV);
    return mergeHalves(re, ro);
}

/**
 * shoupMulLazy with one twiddle per u32 lane: lane l of w, wsLo and
 * wsHi holds lane l's w and the two halves of its Shoup factor (a
 * _mm256_set1_epi32 broadcast works too). The odd half shifts its
 * twiddles down with x. Scalar twin: shoupMulLazy() in nt/shoup.h.
 */
inline __m256i
shoupMulLazy8PerLane(__m256i x, __m256i w, __m256i wsLo, __m256i wsHi,
                     __m256i qV)
{
    const __m256i re = shoupMulLazyHalf(x, w, wsLo, wsHi, qV);
    const __m256i ro = shoupMulLazyHalf(
        _mm256_srli_epi64(x, 32), _mm256_srli_epi64(w, 32),
        _mm256_srli_epi64(wsLo, 32), _mm256_srli_epi64(wsHi, 32), qV);
    return mergeHalves(re, ro);
}

/**
 * Montgomery reduce u64 lanes z = a*b (a, b < q): returns u64 lanes in
 * [0, 2q). Scalar twin: Montgomery::reduce() / montReduceRaw().
 */
inline __m256i
montReduce64(__m256i z, __m256i qV, __m256i qInvV)
{
    const __m256i t = _mm256_mul_epu32(z, qInvV); // low dword == t
    const __m256i tf =
        _mm256_srli_epi64(_mm256_mul_epu32(t, qV), 32);
    const __m256i zhi = _mm256_srli_epi64(z, 32);
    return _mm256_sub_epi64(_mm256_add_epi64(zhi, qV), tf);
}

/** mont.mulPlain on one u64-lane half (inputs < q in low dwords). */
inline __m256i
montMulPlainHalf(__m256i ah, __m256i bh, __m256i qV, __m256i qInvV,
                 __m256i r2V)
{
    const __m256i am = fold2qU64Lane(
        montReduce64(_mm256_mul_epu32(ah, r2V), qV, qInvV), qV);
    return fold2qU64Lane(
        montReduce64(_mm256_mul_epu32(am, bh), qV, qInvV), qV);
}

/**
 * The lazy-sum reduction on u64 lanes z < q * 2^32: Montgomery, times
 * r2 = 2^64 mod q, Montgomery again, fold; results < q in the low
 * dwords. Scalar twin: lazySumReduceRaw() in nt/modvec_impl.h.
 */
inline __m256i
lazySumReduce64(__m256i z, __m256i qV, __m256i qInvV, __m256i r2V)
{
    const __m256i r = montReduce64(z, qV, qInvV);
    return fold2qU64Lane(
        montReduce64(_mm256_mul_epu32(r, r2V), qV, qInvV), qV);
}

/**
 * floor(x * m / 2^64) for u64 lanes x (full 64-bit values) and a
 * broadcast u64 constant m split into mLo/mHi dword halves. The
 * classic four-partial-product high word; `cross` collects the carries
 * out of bit 32 exactly (it fits 34 bits, far below overflow).
 */
inline __m256i
mulHi64(__m256i x, __m256i mLo, __m256i mHi, __m256i lo32)
{
    const __m256i xh = _mm256_srli_epi64(x, 32);
    const __m256i ll = _mm256_mul_epu32(x, mLo);
    const __m256i hl = _mm256_mul_epu32(xh, mLo);
    const __m256i lh = _mm256_mul_epu32(x, mHi);
    const __m256i hh = _mm256_mul_epu32(xh, mHi);
    const __m256i cross = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_srli_epi64(ll, 32),
                         _mm256_and_si256(hl, lo32)),
        _mm256_and_si256(lh, lo32));
    return _mm256_add_epi64(
        _mm256_add_epi64(hh, _mm256_srli_epi64(hl, 32)),
        _mm256_add_epi64(_mm256_srli_epi64(lh, 32),
                         _mm256_srli_epi64(cross, 32)));
}

/** (t * q) mod 2^64 for u64 lanes t and a broadcast u32 constant q. */
inline __m256i
mulLow64U32(__m256i t, __m256i qV)
{
    const __m256i lo = _mm256_mul_epu32(t, qV);
    const __m256i hi =
        _mm256_mul_epu32(_mm256_srli_epi64(t, 32), qV);
    return _mm256_add_epi64(lo, _mm256_slli_epi64(hi, 32));
}

/**
 * One conditional `r >= q ? r - q : r` on u64 lanes whose values stay
 * below 2^62 (so the signed compare is valid). Scalar twin: the
 * correction steps of Barrett::reduceWide().
 */
inline __m256i
condSubQ64(__m256i r, __m256i q64)
{
    const __m256i rq = _mm256_sub_epi64(r, q64);
    const __m256i keep = _mm256_cmpgt_epi64(q64, r);
    return _mm256_blendv_epi8(rq, r, keep);
}

/** Compress the low dwords of 4 u64 lanes into a 128-bit vector. */
inline __m128i
packLo32(__m256i x)
{
    const __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(x, idx));
}

} // namespace cross::nt::avx2
