/**
 * @file
 * The AVX-512 (F+DQ+VL) lanes type: 16 u32 / 8 u64 lanes in a
 * __m512i. Include ONLY from sources compiled with -mavx512f/dq/vl.
 * Same contract as simd_lanes_avx2.h, with the 512 niceties: mask
 * registers replace blendv, vpmullq (DQ) replaces the two-multiply
 * low-64 product, and vpmovqd packs u64 lanes in one instruction.
 */
#pragma once

#if !defined(__AVX512F__) || !defined(__AVX512DQ__) || \
    !defined(__AVX512VL__)
#error "simd_lanes_avx512.h requires an -mavx512f/dq/vl translation unit"
#endif

#include <immintrin.h>

#include "nt/simd_lanes.h"

namespace cross::nt::simd {

struct Avx512 : LaneOps<Avx512>
{
    using V = __m512i;
    static constexpr u32 kU32 = 16;
    static constexpr u32 kU64 = 8;

    static V load(const void *p) { return _mm512_loadu_si512(p); }
    static void store(void *p, V v) { _mm512_storeu_si512(p, v); }
    static V set1(u32 x) { return _mm512_set1_epi32(static_cast<int>(x)); }
    static V set1x64(u64 x)
    {
        return _mm512_set1_epi64(static_cast<i64>(x));
    }
    static V zero() { return _mm512_setzero_si512(); }

    static V add32(V a, V b) { return _mm512_add_epi32(a, b); }
    static V sub32(V a, V b) { return _mm512_sub_epi32(a, b); }
    static V minU32(V a, V b) { return _mm512_min_epu32(a, b); }
    static V mulLo32(V a, V b) { return _mm512_mullo_epi32(a, b); }
    static V add64(V a, V b) { return _mm512_add_epi64(a, b); }
    static V sub64(V a, V b) { return _mm512_sub_epi64(a, b); }
    static V andBits(V a, V b) { return _mm512_and_si512(a, b); }
    static V shr32(V a) { return _mm512_srli_epi64(a, 32); }
    static V mul32(V a, V b) { return _mm512_mul_epu32(a, b); }

    /** floor(a * b / 2^32) per u32 lane: the even and odd lanes' 64-bit
     *  products (vpmuludq), and one masked blend of their high dwords. */
    static V mulHi32(V a, V b)
    {
        const V even = _mm512_srli_epi64(_mm512_mul_epu32(a, b), 32);
        const V odd = _mm512_mul_epu32(_mm512_srli_epi64(a, 32),
                                       _mm512_srli_epi64(b, 32));
        return _mm512_mask_blend_epi32(0xAAAA, even, odd);
    }

    /** Fold u64 lanes holding values < 2^32 from [0, 2q) into [0, q)
     *  with a masked subtract. */
    static V foldU64(V x, V q64)
    {
        const __mmask8 ge = _mm512_cmpge_epu64_mask(x, q64);
        return _mm512_mask_sub_epi64(x, ge, x, q64);
    }

    /** Merge even-half and odd-half u64-lane results into 16 u32
     *  lanes. */
    static V mergeHalves(V re, V ro)
    {
        return _mm512_mask_blend_epi32(0xAAAA, re,
                                       _mm512_slli_epi64(ro, 32));
    }

    /** One conditional `r >= q ? r - q : r` on u64 lanes (masked). */
    static V condSubQ64(V r, V q64)
    {
        const __mmask8 ge = _mm512_cmpge_epu64_mask(r, q64);
        return _mm512_mask_sub_epi64(r, ge, r, q64);
    }

    /** (t * q) mod 2^64 for u64 lanes (vpmullq). */
    static V mulLo64(V t, V q64) { return _mm512_mullo_epi64(t, q64); }

    /** 8 u32 values zero-extended into u64 lanes. */
    static V loadWidened(const u32 *p)
    {
        return _mm512_cvtepu32_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p)));
    }

    /** Store the low dwords of 8 u64 lanes as 8 u32 values (vpmovqd). */
    static void storePacked(u32 *p, V x)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p),
                            _mm512_cvtepi64_epi32(x));
    }

    /** base[idx[l]] in u32 lane l (vpgatherdd). */
    static V gather(const u32 *base, V idx)
    {
        return _mm512_i32gather_epi32(idx, base, 4);
    }

    /** v > half ? v + shift : v per u32 lane (liftCenteredSelect), as
     *  one masked add. */
    static V liftSelect(V v, V half, V shift)
    {
        const __mmask16 high = _mm512_cmpgt_epu32_mask(v, half);
        return _mm512_mask_add_epi32(v, high, v, shift);
    }
};

} // namespace cross::nt::simd
