/**
 * AVX-512 implementations of the modvec.h kernels. Compiled with
 * -mavx512f -mavx512dq -mavx512vl; reached only through the dispatch
 * table after a runtime CPUID check. Bit-identical to the scalar
 * kernels in modvec.cc.
 */
#include "nt/modvec_impl.h"
#include "nt/simd_lanes_avx512.h"

namespace cross::nt::detail {

namespace {

using namespace cross::nt::avx512;

void
addModAvx512(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q)
{
    const __m512i qV = _mm512_set1_epi32(static_cast<int>(q));
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512i va = _mm512_loadu_si512(a + j);
        const __m512i vb = _mm512_loadu_si512(b + j);
        _mm512_storeu_si512(dst + j,
                            fold2qU32(_mm512_add_epi32(va, vb), qV));
    }
    for (; j < n; ++j)
        dst[j] = static_cast<u32>(
            a[j] + b[j] >= q ? a[j] + b[j] - q : a[j] + b[j]);
}

void
subModAvx512(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q)
{
    const __m512i qV = _mm512_set1_epi32(static_cast<int>(q));
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512i va = _mm512_loadu_si512(a + j);
        const __m512i vb = _mm512_loadu_si512(b + j);
        const __m512i d =
            _mm512_sub_epi32(_mm512_add_epi32(va, qV), vb);
        _mm512_storeu_si512(dst + j, fold2qU32(d, qV));
    }
    for (; j < n; ++j)
        dst[j] = a[j] >= b[j] ? a[j] - b[j] : a[j] + q - b[j];
}

void
negModAvx512(u32 *dst, const u32 *a, size_t n, u32 q)
{
    const __m512i qV = _mm512_set1_epi32(static_cast<int>(q));
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512i va = _mm512_loadu_si512(a + j);
        _mm512_storeu_si512(dst + j,
                            fold2qU32(_mm512_sub_epi32(qV, va), qV));
    }
    for (; j < n; ++j)
        dst[j] = a[j] == 0 ? 0 : q - a[j];
}

void
mulShoupAvx512(u32 *dst, const u32 *a, ShoupConst c, size_t n, u32 q)
{
    const __m512i qV = _mm512_set1_epi32(static_cast<int>(q));
    const __m512i q64V = _mm512_set1_epi64(q);
    const __m512i wV = _mm512_set1_epi64(c.w);
    const __m512i wsLoV =
        _mm512_set1_epi64(static_cast<i64>(c.wShoup & 0xffffffffULL));
    const __m512i wsHiV =
        _mm512_set1_epi64(static_cast<i64>(c.wShoup >> 32));
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512i x = _mm512_loadu_si512(a + j);
        const __m512i lazy =
            shoupMulLazy16(x, wV, wsLoV, wsHiV, q64V);
        _mm512_storeu_si512(dst + j, fold2qU32(lazy, qV));
    }
    for (; j < n; ++j)
        dst[j] = shoupMul(a[j], c, q);
}

void
mulMontAvx512(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q,
              u32 qInv, u32 r2)
{
    const __m512i qV = _mm512_set1_epi64(q);
    const __m512i qInvV = _mm512_set1_epi64(qInv);
    const __m512i r2V = _mm512_set1_epi64(r2);
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512i va = _mm512_loadu_si512(a + j);
        const __m512i vb = _mm512_loadu_si512(b + j);
        const __m512i re = montMulPlainHalf(va, vb, qV, qInvV, r2V);
        const __m512i ro =
            montMulPlainHalf(_mm512_srli_epi64(va, 32),
                             _mm512_srli_epi64(vb, 32), qV, qInvV,
                             r2V);
        _mm512_storeu_si512(dst + j, mergeHalves(re, ro));
    }
    for (; j < n; ++j)
        dst[j] = montMulPlainRaw(a[j], b[j], q, qInv, r2);
}

/** One even/odd half of mulMod: z = a*b, then the wide Barrett. */
inline __m512i
mulModHalf(__m512i ah, __m512i bh, __m512i qV, __m512i mLo, __m512i mHi,
           __m512i lo32)
{
    const __m512i z = _mm512_mul_epu32(ah, bh);
    const __m512i t = mulHi64(z, mLo, mHi, lo32);
    const __m512i r = _mm512_sub_epi64(z, _mm512_mullo_epi64(t, qV));
    return condSubQ64(condSubQ64(r, qV), qV);
}

void
mulModAvx512(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q,
             u64 m64)
{
    const __m512i qV = _mm512_set1_epi64(q);
    const __m512i mLo =
        _mm512_set1_epi64(static_cast<i64>(m64 & 0xffffffffULL));
    const __m512i mHi = _mm512_set1_epi64(static_cast<i64>(m64 >> 32));
    const __m512i lo32 = _mm512_set1_epi64(0xffffffffLL);
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512i va = _mm512_loadu_si512(a + j);
        const __m512i vb = _mm512_loadu_si512(b + j);
        const __m512i re = mulModHalf(va, vb, qV, mLo, mHi, lo32);
        const __m512i ro =
            mulModHalf(_mm512_srli_epi64(va, 32),
                       _mm512_srli_epi64(vb, 32), qV, mLo, mHi, lo32);
        _mm512_storeu_si512(dst + j, mergeHalves(re, ro));
    }
    for (; j < n; ++j)
        dst[j] = barrettReduceWideRaw(static_cast<u64>(a[j]) * b[j], q,
                                      m64);
}

void
accumMulAvx512(u64 *acc, const u32 *a, u32 w, size_t n)
{
    const __m512i wV = _mm512_set1_epi64(w);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i a64 = _mm512_cvtepu32_epi64(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + j)));
        const __m512i cur = _mm512_loadu_si512(acc + j);
        _mm512_storeu_si512(
            acc + j,
            _mm512_add_epi64(cur, _mm512_mul_epu32(a64, wV)));
    }
    for (; j < n; ++j)
        acc[j] += static_cast<u64>(a[j]) * w;
}

void
reduceWideAvx512(u32 *dst, const u64 *acc, size_t n, u32 q, u64 m64)
{
    const __m512i qV = _mm512_set1_epi64(q);
    const __m512i mLo =
        _mm512_set1_epi64(static_cast<i64>(m64 & 0xffffffffULL));
    const __m512i mHi = _mm512_set1_epi64(static_cast<i64>(m64 >> 32));
    const __m512i lo32 = _mm512_set1_epi64(0xffffffffLL);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i z = _mm512_loadu_si512(acc + j);
        const __m512i t = mulHi64(z, mLo, mHi, lo32);
        // vpmullq (DQ) gives the low 64 bits of t*q directly.
        __m512i r = _mm512_sub_epi64(z, _mm512_mullo_epi64(t, qV));
        r = condSubQ64(condSubQ64(r, qV), qV);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + j),
                            _mm512_cvtepi64_epi32(r));
    }
    for (; j < n; ++j)
        dst[j] = barrettReduceWideRaw(acc[j], q, m64);
}

void
reduceWideInPlaceAvx512(u64 *acc, size_t n, u32 q, u64 m64)
{
    const __m512i qV = _mm512_set1_epi64(q);
    const __m512i mLo =
        _mm512_set1_epi64(static_cast<i64>(m64 & 0xffffffffULL));
    const __m512i mHi = _mm512_set1_epi64(static_cast<i64>(m64 >> 32));
    const __m512i lo32 = _mm512_set1_epi64(0xffffffffLL);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m512i z = _mm512_loadu_si512(acc + j);
        const __m512i t = mulHi64(z, mLo, mHi, lo32);
        __m512i r = _mm512_sub_epi64(z, _mm512_mullo_epi64(t, qV));
        r = condSubQ64(condSubQ64(r, qV), qV);
        _mm512_storeu_si512(acc + j, r);
    }
    for (; j < n; ++j)
        acc[j] = barrettReduceWideRaw(acc[j], q, m64);
}

void
liftCenteredAvx512(u32 *dst, const u32 *a, size_t n, u32 q_from, u32 q,
                   u64 m64)
{
    if (!liftIsSelect(q_from, q)) {
        liftCenteredLoop(dst, a, n, q_from, q, m64);
        return;
    }
    const u32 half = q_from / 2;
    const u32 shift = q - q_from;
    const __m512i halfV = _mm512_set1_epi32(static_cast<int>(half));
    const __m512i shiftV = _mm512_set1_epi32(static_cast<int>(shift));
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
        const __m512i v = _mm512_loadu_si512(a + j);
        const __mmask16 high = _mm512_cmpgt_epu32_mask(v, halfV);
        _mm512_storeu_si512(dst + j,
                            _mm512_mask_add_epi32(v, high, v, shiftV));
    }
    for (; j < n; ++j)
        dst[j] = liftCenteredSelect(a[j], half, shift);
}

/**
 * keySwitchProductVec, 16 coefficients a step: each digit's 16 values
 * (one vpgatherdd through the map when kGather) feed both products,
 * and the four u64 sums (two keys, even and odd lanes) reduce once.
 */
template <bool kGather>
void
keySwitchProductBody(u32 *out0, u32 *out1, const u32 *const *digits,
                     const u32 *const *key0, const u32 *const *key1,
                     size_t d, const u32 *map, size_t n, u32 q, u32 qInv,
                     u32 r2, size_t budget)
{
    const __m512i qV = _mm512_set1_epi64(q);
    const __m512i qInvV = _mm512_set1_epi64(qInv);
    const __m512i r2V = _mm512_set1_epi64(r2);
    const auto reduce = [&](__m512i z) {
        return lazySumReduce64(z, qV, qInvV, r2V);
    };
    size_t m = 0;
    for (; m + 16 <= n; m += 16) {
        __m512i idx = _mm512_setzero_si512();
        if constexpr (kGather)
            idx = _mm512_loadu_si512(map + m);
        __m512i s0e = _mm512_setzero_si512(), s0o = s0e, s1e = s0e,
                s1o = s0e;
        size_t left = budget;
        for (size_t j = 0; j < d; ++j, --left) {
            if (left == 0) {
                s0e = reduce(s0e);
                s0o = reduce(s0o);
                s1e = reduce(s1e);
                s1o = reduce(s1o);
                left = budget;
            }
            __m512i x;
            if constexpr (kGather)
                x = _mm512_i32gather_epi32(idx, digits[j], 4);
            else
                x = _mm512_loadu_si512(digits[j] + m);
            const __m512i k0 = _mm512_loadu_si512(key0[j] + m);
            const __m512i k1 = _mm512_loadu_si512(key1[j] + m);
            const __m512i xo = _mm512_srli_epi64(x, 32);
            s0e = _mm512_add_epi64(s0e, _mm512_mul_epu32(x, k0));
            s0o = _mm512_add_epi64(
                s0o, _mm512_mul_epu32(xo, _mm512_srli_epi64(k0, 32)));
            s1e = _mm512_add_epi64(s1e, _mm512_mul_epu32(x, k1));
            s1o = _mm512_add_epi64(
                s1o, _mm512_mul_epu32(xo, _mm512_srli_epi64(k1, 32)));
        }
        _mm512_storeu_si512(out0 + m,
                            mergeHalves(reduce(s0e), reduce(s0o)));
        _mm512_storeu_si512(out1 + m,
                            mergeHalves(reduce(s1e), reduce(s1o)));
    }
    keySwitchProductLoop(out0, out1, digits, key0, key1, d, map, m, n, q,
                         qInv, r2, budget);
}

void
keySwitchProductAvx512(u32 *out0, u32 *out1, const u32 *const *digits,
                       const u32 *const *key0, const u32 *const *key1,
                       size_t d, const u32 *map, size_t n, u32 q,
                       u32 qInv, u32 r2, size_t budget)
{
    if (map)
        keySwitchProductBody<true>(out0, out1, digits, key0, key1, d, map,
                                   n, q, qInv, r2, budget);
    else
        keySwitchProductBody<false>(out0, out1, digits, key0, key1, d,
                                    nullptr, n, q, qInv, r2, budget);
}

void
bconvDotAvx512(u32 *out, const u32 *const *b, const u32 *w, size_t k,
               size_t n, u32 q, u32 qInv, u32 r2, size_t budget)
{
    const __m512i qV = _mm512_set1_epi64(q);
    const __m512i qInvV = _mm512_set1_epi64(qInv);
    const __m512i r2V = _mm512_set1_epi64(r2);
    const auto reduce = [&](__m512i z) {
        return lazySumReduce64(z, qV, qInvV, r2V);
    };
    size_t m = 0;
    for (; m + 16 <= n; m += 16) {
        __m512i se = _mm512_setzero_si512(), so = se;
        size_t left = budget;
        for (size_t i = 0; i < k; ++i, --left) {
            if (left == 0) {
                se = reduce(se);
                so = reduce(so);
                left = budget;
            }
            const __m512i x = _mm512_loadu_si512(b[i] + m);
            const __m512i wV = _mm512_set1_epi64(w[i]);
            se = _mm512_add_epi64(se, _mm512_mul_epu32(x, wV));
            so = _mm512_add_epi64(
                so, _mm512_mul_epu32(_mm512_srli_epi64(x, 32), wV));
        }
        _mm512_storeu_si512(out + m, mergeHalves(reduce(se), reduce(so)));
    }
    bconvDotLoop(out, b, w, k, m, n, q, qInv, r2, budget);
}

void
gatherAddModAvx512(u32 *dst, const u32 *src, const u32 *map, size_t n,
                   u32 q)
{
    const __m512i qV = _mm512_set1_epi32(static_cast<int>(q));
    size_t m = 0;
    for (; m + 16 <= n; m += 16) {
        const __m512i g = _mm512_i32gather_epi32(
            _mm512_loadu_si512(map + m), src, 4);
        const __m512i v = _mm512_loadu_si512(dst + m);
        _mm512_storeu_si512(dst + m,
                            fold2qU32(_mm512_add_epi32(v, g), qV));
    }
    gatherAddModLoop(dst, src, map, m, n, q);
}

} // namespace

const ModVecKernels &
modVecKernelsAvx512()
{
    static const ModVecKernels k = {
        addModAvx512,   subModAvx512,   negModAvx512,
        mulShoupAvx512, mulMontAvx512,  mulModAvx512,
        accumMulAvx512, reduceWideAvx512, reduceWideInPlaceAvx512,
        liftCenteredAvx512, keySwitchProductAvx512, bconvDotAvx512,
        gatherAddModAvx512,
    };
    return k;
}

} // namespace cross::nt::detail
