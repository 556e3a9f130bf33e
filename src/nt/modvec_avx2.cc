/**
 * AVX2 implementations of the modvec.h kernels. Compiled with -mavx2
 * (see src/nt/CMakeLists.txt); only reached through the dispatch table
 * after a runtime CPUID check. Bit-identical to the scalar kernels in
 * modvec.cc: tails run the very same scalar helpers.
 */
#include "nt/modvec_impl.h"
#include "nt/simd_lanes_avx2.h"

namespace cross::nt::detail {

namespace {

using namespace cross::nt::avx2;

void
addModAvx2(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q)
{
    const __m256i qV = _mm256_set1_epi32(static_cast<int>(q));
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + j));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + j));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst + j),
            fold2qU32(_mm256_add_epi32(va, vb), qV));
    }
    for (; j < n; ++j)
        dst[j] = static_cast<u32>(
            a[j] + b[j] >= q ? a[j] + b[j] - q : a[j] + b[j]);
}

void
subModAvx2(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q)
{
    const __m256i qV = _mm256_set1_epi32(static_cast<int>(q));
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + j));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + j));
        const __m256i d =
            _mm256_sub_epi32(_mm256_add_epi32(va, qV), vb);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + j),
                            fold2qU32(d, qV));
    }
    for (; j < n; ++j)
        dst[j] = a[j] >= b[j] ? a[j] - b[j] : a[j] + q - b[j];
}

void
negModAvx2(u32 *dst, const u32 *a, size_t n, u32 q)
{
    const __m256i qV = _mm256_set1_epi32(static_cast<int>(q));
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + j));
        // q - a is in [1, q] (a == 0 lands exactly on q); the fold
        // maps q -> 0, matching scalar negMod's zero special-case.
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + j),
                            fold2qU32(_mm256_sub_epi32(qV, va), qV));
    }
    for (; j < n; ++j)
        dst[j] = a[j] == 0 ? 0 : q - a[j];
}

void
mulShoupAvx2(u32 *dst, const u32 *a, ShoupConst c, size_t n, u32 q)
{
    const __m256i qV = _mm256_set1_epi32(static_cast<int>(q));
    const __m256i wV = _mm256_set1_epi64x(c.w);
    const __m256i wsLoV =
        _mm256_set1_epi64x(static_cast<i64>(c.wShoup & 0xffffffffULL));
    const __m256i wsHiV =
        _mm256_set1_epi64x(static_cast<i64>(c.wShoup >> 32));
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + j));
        const __m256i lazy = shoupMulLazy8(x, wV, wsLoV, wsHiV, qV);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + j),
                            fold2qU32(lazy, qV));
    }
    for (; j < n; ++j)
        dst[j] = shoupMul(a[j], c, q);
}

void
mulMontAvx2(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q,
            u32 qInv, u32 r2)
{
    const __m256i qV = _mm256_set1_epi64x(q);
    const __m256i qInvV = _mm256_set1_epi64x(qInv);
    const __m256i r2V = _mm256_set1_epi64x(r2);
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + j));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + j));
        const __m256i re = montMulPlainHalf(va, vb, qV, qInvV, r2V);
        const __m256i ro =
            montMulPlainHalf(_mm256_srli_epi64(va, 32),
                             _mm256_srli_epi64(vb, 32), qV, qInvV, r2V);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + j),
                            mergeHalves(re, ro));
    }
    for (; j < n; ++j)
        dst[j] = montMulPlainRaw(a[j], b[j], q, qInv, r2);
}

/**
 * Barrett mulMod stays SCALAR on the AVX2 path: the wide reduction
 * needs a full 64x64->hi64, which AVX2 can only emulate with four
 * mul_epu32 partial products per lane -- measured at 0.78x of the
 * scalar 128-bit multiply on this kernel (bench_micro_modred dispatch
 * sweep), so the "vectorised" version was a pessimisation. AVX-512
 * keeps its vector version (vpmullq makes it 1.6x). Dispatch tables
 * are allowed to mix lane widths per op; conformance tests only
 * require bit-identical outputs.
 */
void
mulModAvx2(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q,
           u64 m64)
{
    for (size_t j = 0; j < n; ++j)
        dst[j] = barrettReduceWideRaw(static_cast<u64>(a[j]) * b[j], q,
                                      m64);
}

void
accumMulAvx2(u64 *acc, const u32 *a, u32 w, size_t n)
{
    const __m256i wV = _mm256_set1_epi64x(w);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i a64 = _mm256_cvtepu32_epi64(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(a + j)));
        const __m256i cur = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc + j));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(acc + j),
            _mm256_add_epi64(cur, _mm256_mul_epu32(a64, wV)));
    }
    for (; j < n; ++j)
        acc[j] += static_cast<u64>(a[j]) * w;
}

void
reduceWideAvx2(u32 *dst, const u64 *acc, size_t n, u32 q, u64 m64)
{
    const __m256i qV = _mm256_set1_epi64x(q);
    const __m256i mLo =
        _mm256_set1_epi64x(static_cast<i64>(m64 & 0xffffffffULL));
    const __m256i mHi = _mm256_set1_epi64x(static_cast<i64>(m64 >> 32));
    const __m256i lo32 = _mm256_set1_epi64x(0xffffffffLL);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i z = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc + j));
        const __m256i t = mulHi64(z, mLo, mHi, lo32);
        __m256i r = _mm256_sub_epi64(z, mulLow64U32(t, qV));
        r = condSubQ64(condSubQ64(r, qV), qV);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + j),
                         packLo32(r));
    }
    for (; j < n; ++j)
        dst[j] = barrettReduceWideRaw(acc[j], q, m64);
}

void
reduceWideInPlaceAvx2(u64 *acc, size_t n, u32 q, u64 m64)
{
    const __m256i qV = _mm256_set1_epi64x(q);
    const __m256i mLo =
        _mm256_set1_epi64x(static_cast<i64>(m64 & 0xffffffffULL));
    const __m256i mHi = _mm256_set1_epi64x(static_cast<i64>(m64 >> 32));
    const __m256i lo32 = _mm256_set1_epi64x(0xffffffffLL);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m256i z = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc + j));
        const __m256i t = mulHi64(z, mLo, mHi, lo32);
        __m256i r = _mm256_sub_epi64(z, mulLow64U32(t, qV));
        r = condSubQ64(condSubQ64(r, qV), qV);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + j), r);
    }
    for (; j < n; ++j)
        acc[j] = barrettReduceWideRaw(acc[j], q, m64);
}

void
liftCenteredAvx2(u32 *dst, const u32 *a, size_t n, u32 q_from, u32 q,
                 u64 m64)
{
    if (!liftIsSelect(q_from, q)) {
        liftCenteredLoop(dst, a, n, q_from, q, m64);
        return;
    }
    const u32 half = q_from / 2;
    const u32 shift = q - q_from;
    const __m256i halfV = _mm256_set1_epi32(static_cast<int>(half));
    const __m256i shiftV = _mm256_set1_epi32(static_cast<int>(shift));
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + j));
        // v <= half exactly where min(v, half) == v (unsigned).
        const __m256i low =
            _mm256_cmpeq_epi32(_mm256_min_epu32(v, halfV), v);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(dst + j),
            _mm256_add_epi32(v, _mm256_andnot_si256(low, shiftV)));
    }
    for (; j < n; ++j)
        dst[j] = liftCenteredSelect(a[j], half, shift);
}

/**
 * keySwitchProductVec, 8 coefficients a step: each digit's 8 values
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
    const __m256i qV = _mm256_set1_epi64x(q);
    const __m256i qInvV = _mm256_set1_epi64x(qInv);
    const __m256i r2V = _mm256_set1_epi64x(r2);
    const auto reduce = [&](__m256i z) {
        return lazySumReduce64(z, qV, qInvV, r2V);
    };
    const auto load = [](const u32 *p) {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    };
    size_t m = 0;
    for (; m + 8 <= n; m += 8) {
        __m256i idx = _mm256_setzero_si256();
        if constexpr (kGather)
            idx = load(map + m);
        __m256i s0e = _mm256_setzero_si256(), s0o = s0e, s1e = s0e,
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
            __m256i x;
            if constexpr (kGather)
                x = _mm256_i32gather_epi32(
                    reinterpret_cast<const int *>(digits[j]), idx, 4);
            else
                x = load(digits[j] + m);
            const __m256i k0 = load(key0[j] + m);
            const __m256i k1 = load(key1[j] + m);
            const __m256i xo = _mm256_srli_epi64(x, 32);
            s0e = _mm256_add_epi64(s0e, _mm256_mul_epu32(x, k0));
            s0o = _mm256_add_epi64(
                s0o, _mm256_mul_epu32(xo, _mm256_srli_epi64(k0, 32)));
            s1e = _mm256_add_epi64(s1e, _mm256_mul_epu32(x, k1));
            s1o = _mm256_add_epi64(
                s1o, _mm256_mul_epu32(xo, _mm256_srli_epi64(k1, 32)));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out0 + m),
                            mergeHalves(reduce(s0e), reduce(s0o)));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out1 + m),
                            mergeHalves(reduce(s1e), reduce(s1o)));
    }
    keySwitchProductLoop(out0, out1, digits, key0, key1, d, map, m, n, q,
                         qInv, r2, budget);
}

void
keySwitchProductAvx2(u32 *out0, u32 *out1, const u32 *const *digits,
                     const u32 *const *key0, const u32 *const *key1,
                     size_t d, const u32 *map, size_t n, u32 q, u32 qInv,
                     u32 r2, size_t budget)
{
    if (map)
        keySwitchProductBody<true>(out0, out1, digits, key0, key1, d, map,
                                   n, q, qInv, r2, budget);
    else
        keySwitchProductBody<false>(out0, out1, digits, key0, key1, d,
                                    nullptr, n, q, qInv, r2, budget);
}

void
bconvDotAvx2(u32 *out, const u32 *const *b, const u32 *w, size_t k,
             size_t n, u32 q, u32 qInv, u32 r2, size_t budget)
{
    const __m256i qV = _mm256_set1_epi64x(q);
    const __m256i qInvV = _mm256_set1_epi64x(qInv);
    const __m256i r2V = _mm256_set1_epi64x(r2);
    const auto reduce = [&](__m256i z) {
        return lazySumReduce64(z, qV, qInvV, r2V);
    };
    size_t m = 0;
    for (; m + 8 <= n; m += 8) {
        __m256i se = _mm256_setzero_si256(), so = se;
        size_t left = budget;
        for (size_t i = 0; i < k; ++i, --left) {
            if (left == 0) {
                se = reduce(se);
                so = reduce(so);
                left = budget;
            }
            const __m256i x = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b[i] + m));
            const __m256i wV = _mm256_set1_epi64x(w[i]);
            se = _mm256_add_epi64(se, _mm256_mul_epu32(x, wV));
            so = _mm256_add_epi64(
                so, _mm256_mul_epu32(_mm256_srli_epi64(x, 32), wV));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + m),
                            mergeHalves(reduce(se), reduce(so)));
    }
    bconvDotLoop(out, b, w, k, m, n, q, qInv, r2, budget);
}

void
gatherAddModAvx2(u32 *dst, const u32 *src, const u32 *map, size_t n,
                 u32 q)
{
    const __m256i qV = _mm256_set1_epi32(static_cast<int>(q));
    size_t m = 0;
    for (; m + 8 <= n; m += 8) {
        const __m256i g = _mm256_i32gather_epi32(
            reinterpret_cast<const int *>(src),
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(map + m)),
            4);
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(dst + m));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + m),
                            fold2qU32(_mm256_add_epi32(v, g), qV));
    }
    gatherAddModLoop(dst, src, map, m, n, q);
}

} // namespace

const ModVecKernels &
modVecKernelsAvx2()
{
    static const ModVecKernels k = {
        addModAvx2,    subModAvx2,  negModAvx2,
        mulShoupAvx2,  mulMontAvx2, mulModAvx2,
        accumMulAvx2,  reduceWideAvx2, reduceWideInPlaceAvx2,
        liftCenteredAvx2, keySwitchProductAvx2, bconvDotAvx2,
        gatherAddModAvx2,
    };
    return k;
}

} // namespace cross::nt::detail
