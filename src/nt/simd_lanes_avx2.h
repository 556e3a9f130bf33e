/**
 * @file
 * The AVX2 lanes type: 8 u32 / 4 u64 lanes in a __m256i. Include ONLY
 * from sources compiled with -mavx2 -- the guard below makes a stray
 * include a compile error instead of an illegal-instruction crash.
 * nt/simd_lanes.h lists what a lanes type provides and builds the
 * composite helpers on it.
 */
#pragma once

#ifndef __AVX2__
#error "simd_lanes_avx2.h requires an -mavx2 translation unit"
#endif

#include <immintrin.h>

#include "nt/simd_lanes.h"

namespace cross::nt::simd {

struct Avx2 : LaneOps<Avx2>
{
    using V = __m256i;
    static constexpr u32 kU32 = 8;
    static constexpr u32 kU64 = 4;

    static V load(const void *p)
    {
        return _mm256_loadu_si256(static_cast<const V *>(p));
    }
    static void store(void *p, V v)
    {
        _mm256_storeu_si256(static_cast<V *>(p), v);
    }
    static V set1(u32 x) { return _mm256_set1_epi32(static_cast<int>(x)); }
    static V set1x64(u64 x)
    {
        return _mm256_set1_epi64x(static_cast<i64>(x));
    }
    static V zero() { return _mm256_setzero_si256(); }

    static V add32(V a, V b) { return _mm256_add_epi32(a, b); }
    static V sub32(V a, V b) { return _mm256_sub_epi32(a, b); }
    static V minU32(V a, V b) { return _mm256_min_epu32(a, b); }
    static V mulLo32(V a, V b) { return _mm256_mullo_epi32(a, b); }
    static V add64(V a, V b) { return _mm256_add_epi64(a, b); }
    static V sub64(V a, V b) { return _mm256_sub_epi64(a, b); }
    static V andBits(V a, V b) { return _mm256_and_si256(a, b); }
    static V shr32(V a) { return _mm256_srli_epi64(a, 32); }
    static V mul32(V a, V b) { return _mm256_mul_epu32(a, b); }

    /**
     * floor(a * b / 2^32) per u32 lane: the even and odd lanes' 64-bit
     * products (vpmuludq), and one blend of their high dwords.
     */
    static V mulHi32(V a, V b)
    {
        const V even = _mm256_srli_epi64(_mm256_mul_epu32(a, b), 32);
        const V odd = _mm256_mul_epu32(_mm256_srli_epi64(a, 32),
                                       _mm256_srli_epi64(b, 32));
        return _mm256_blend_epi32(even, odd, 0xAA);
    }

    /**
     * Fold u64 lanes holding values < 2^32 from [0, 2q) into [0, q): a
     * wrapped 64-bit subtraction leaves all-ones in the high dword,
     * which minU32 squashes back to the zero high dword of x.
     */
    static V foldU64(V x, V q64)
    {
        return _mm256_min_epu32(x, _mm256_sub_epi64(x, q64));
    }

    /** Merge even-half results re and odd-half results ro (both u64
     *  lanes) back into 8 u32 lanes. */
    static V mergeHalves(V re, V ro)
    {
        return _mm256_blend_epi32(re, _mm256_slli_epi64(ro, 32), 0xAA);
    }

    /**
     * One conditional `r >= q ? r - q : r` on u64 lanes whose values
     * stay below 2^62 (so the signed compare is valid). Scalar twin:
     * the correction steps of barrettReduceWideRaw().
     */
    static V condSubQ64(V r, V q64)
    {
        const V rq = _mm256_sub_epi64(r, q64);
        const V keep = _mm256_cmpgt_epi64(q64, r);
        return _mm256_blendv_epi8(rq, r, keep);
    }

    /** (t * q) mod 2^64 for u64 lanes t and q < 2^32 (no vpmullq). */
    static V mulLo64(V t, V q64)
    {
        const V lo = _mm256_mul_epu32(t, q64);
        const V hi = _mm256_mul_epu32(_mm256_srli_epi64(t, 32), q64);
        return _mm256_add_epi64(lo, _mm256_slli_epi64(hi, 32));
    }

    /** 4 u32 values zero-extended into u64 lanes. */
    static V loadWidened(const u32 *p)
    {
        return _mm256_cvtepu32_epi64(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
    }

    /** Store the low dwords of 4 u64 lanes as 4 u32 values. */
    static void storePacked(u32 *p, V x)
    {
        const V idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(p),
            _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(x, idx)));
    }

    /** base[idx[l]] in u32 lane l (vpgatherdd). */
    static V gather(const u32 *base, V idx)
    {
        return _mm256_i32gather_epi32(reinterpret_cast<const int *>(base),
                                      idx, 4);
    }

    /** v > half ? v + shift : v per u32 lane (liftCenteredSelect):
     *  v <= half exactly where min(v, half) == v. */
    static V liftSelect(V v, V half, V shift)
    {
        const V low = _mm256_cmpeq_epi32(_mm256_min_epu32(v, half), v);
        return _mm256_add_epi32(v, _mm256_andnot_si256(low, shift));
    }
};

} // namespace cross::nt::simd
