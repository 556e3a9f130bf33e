/**
 * AVX2 stage kernels for the lazy-reduction NTT. Compiled with -mavx2;
 * reached only behind the runtime dispatch. Vector lanes mirror the
 * scalar helpers in ntt_kernels.h bit-for-bit: the conditional folds
 * become unsigned-min selects and the Shoup multiply is the shared
 * shoupMulLazy8PerLane lane (nt/simd_lanes_avx2.h).
 *
 * A span t of 8 or more runs each block as whole vectors under the
 * block's broadcast twiddle. A span of 4, 2 or 1 runs on 16
 * coefficients (8 / t blocks) at a time: split<t> separates the two
 * loaded vectors into the blocks' x and y halves (a 128-bit lane swap
 * for t = 4, in-lane unpacks and shuffles below that), the butterfly
 * takes one twiddle per lane, and merge<t> puts the results back. A
 * degree below 16 runs the scalar stage.
 */
#include "nt/simd_lanes_avx2.h"
#include "poly/ntt_kernels.h"

namespace cross::poly::detail {

namespace {

using namespace cross::nt::avx2;

/** One twiddle per u32 lane: w and the two halves of its Shoup factor. */
struct LaneTwiddles
{
    __m256i w, lo, hi;
};

/** Split 16 coefficients (v0, v1) of span-T blocks into x and y halves. */
template <u32 T>
void
split(__m256i v0, __m256i v1, __m256i &x, __m256i &y)
{
    if constexpr (T == 4) {
        x = _mm256_permute2x128_si256(v0, v1, 0x20);
        y = _mm256_permute2x128_si256(v0, v1, 0x31);
    } else if constexpr (T == 2) {
        x = _mm256_unpacklo_epi64(v0, v1);
        y = _mm256_unpackhi_epi64(v0, v1);
    } else {
        const __m256 f0 = _mm256_castsi256_ps(v0);
        const __m256 f1 = _mm256_castsi256_ps(v1);
        x = _mm256_castps_si256(
            _mm256_shuffle_ps(f0, f1, _MM_SHUFFLE(2, 0, 2, 0)));
        y = _mm256_castps_si256(
            _mm256_shuffle_ps(f0, f1, _MM_SHUFFLE(3, 1, 3, 1)));
    }
}

/** The inverse of split<T>. */
template <u32 T>
void
merge(__m256i x, __m256i y, __m256i &v0, __m256i &v1)
{
    if constexpr (T == 4) {
        v0 = _mm256_permute2x128_si256(x, y, 0x20);
        v1 = _mm256_permute2x128_si256(x, y, 0x31);
    } else if constexpr (T == 2) {
        v0 = _mm256_unpacklo_epi64(x, y);
        v1 = _mm256_unpackhi_epi64(x, y);
    } else {
        v0 = _mm256_unpacklo_epi32(x, y);
        v1 = _mm256_unpackhi_epi32(x, y);
    }
}

/** Lane l's block within the chunk, in split<T>'s lane order. */
template <u32 T>
__m256i
blockOfLane()
{
    if constexpr (T == 4)
        return _mm256_setr_epi32(0, 0, 0, 0, 1, 1, 1, 1);
    else if constexpr (T == 2)
        return _mm256_setr_epi32(0, 0, 2, 2, 1, 1, 3, 3);
    else
        return _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
}

/**
 * The 8 / T twiddles of one chunk's blocks, starting at p, spread to
 * the lanes by @p block. Each load reads exactly those entries, so no
 * chunk reads past the end of the table.
 */
template <u32 T>
__m256i
chunkTwiddles(const u32 *p, __m256i block)
{
    __m256i v;
    if constexpr (T == 1)
        v = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    else if constexpr (T == 2)
        v = _mm256_zextsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
    else
        v = _mm256_zextsi128_si256(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)));
    return _mm256_permutevar8x32_epi32(v, block);
}

/** A stage of span T < 8; w, lo and hi point at its first twiddle. */
template <u32 T, class Butterfly>
void
shortSpanStage(u32 *a, u32 n, const u32 *w, const u32 *lo, const u32 *hi,
               Butterfly bfly)
{
    const __m256i block = blockOfLane<T>();
    for (u32 k = 0; k < n; k += 16) {
        __m256i v0 = _mm256_loadu_si256(reinterpret_cast<__m256i *>(a + k));
        __m256i v1 =
            _mm256_loadu_si256(reinterpret_cast<__m256i *>(a + k + 8));
        __m256i x, y;
        split<T>(v0, v1, x, y);
        const u32 b = k / (2 * T); // the chunk's first block
        bfly(x, y,
             LaneTwiddles{chunkTwiddles<T>(w + b, block),
                          chunkTwiddles<T>(lo + b, block),
                          chunkTwiddles<T>(hi + b, block)});
        merge<T>(x, y, v0, v1);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(a + k), v0);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(a + k + 8), v1);
    }
}

/** One stage of span t over n >= 16 coefficients. */
template <class Butterfly>
void
stage(u32 *a, u32 n, u32 t, const ShoupTwiddles &tw, Butterfly bfly)
{
    const u32 m = n / (2 * t);
    const u32 *w = tw.w.data() + m;
    const u32 *lo = tw.shoupLo.data() + m;
    const u32 *hi = tw.shoupHi.data() + m;
    switch (t) {
    case 1:
        return shortSpanStage<1>(a, n, w, lo, hi, bfly);
    case 2:
        return shortSpanStage<2>(a, n, w, lo, hi, bfly);
    case 4:
        return shortSpanStage<4>(a, n, w, lo, hi, bfly);
    default:
        break;
    }
    for (u32 i = 0; i < m; ++i) {
        const LaneTwiddles c{_mm256_set1_epi32(static_cast<int>(w[i])),
                             _mm256_set1_epi32(static_cast<int>(lo[i])),
                             _mm256_set1_epi32(static_cast<int>(hi[i]))};
        u32 *x = a + 2 * i * t;
        for (u32 j = 0; j < t; j += 8) {
            auto *xp = reinterpret_cast<__m256i *>(x + j);
            auto *yp = reinterpret_cast<__m256i *>(x + t + j);
            __m256i xv = _mm256_loadu_si256(xp);
            __m256i yv = _mm256_loadu_si256(yp);
            bfly(xv, yv, c);
            _mm256_storeu_si256(xp, xv);
            _mm256_storeu_si256(yp, yv);
        }
    }
}

void
fwdStageAvx2(u32 *a, u32 n, u32 t, const ShoupTwiddles &tw, u32 q)
{
    if (n < 16) {
        nttKernelsScalar().fwdStage(a, n, t, tw, q);
        return;
    }
    const __m256i qV = _mm256_set1_epi32(static_cast<int>(q));
    const __m256i twoQV = _mm256_set1_epi32(static_cast<int>(2 * q));
    // fwdButterflyLazyOne on every lane.
    stage(a, n, t, tw,
          [=](__m256i &x, __m256i &y, const LaneTwiddles &c) {
              const __m256i u =
                  _mm256_min_epu32(x, _mm256_sub_epi32(x, twoQV));
              const __m256i v =
                  shoupMulLazy8PerLane(y, c.w, c.lo, c.hi, qV);
              x = _mm256_add_epi32(u, v);
              y = _mm256_sub_epi32(_mm256_add_epi32(u, twoQV), v);
          });
}

void
invStageAvx2(u32 *a, u32 n, u32 t, const ShoupTwiddles &tw, u32 q)
{
    if (n < 16) {
        nttKernelsScalar().invStage(a, n, t, tw, q);
        return;
    }
    const __m256i qV = _mm256_set1_epi32(static_cast<int>(q));
    const __m256i twoQV = _mm256_set1_epi32(static_cast<int>(2 * q));
    // invButterflyLazyOne on every lane.
    stage(a, n, t, tw,
          [=](__m256i &x, __m256i &y, const LaneTwiddles &c) {
              const __m256i s = _mm256_add_epi32(x, y);
              const __m256i d =
                  _mm256_sub_epi32(_mm256_add_epi32(x, twoQV), y);
              x = _mm256_min_epu32(s, _mm256_sub_epi32(s, twoQV));
              y = shoupMulLazy8PerLane(d, c.w, c.lo, c.hi, qV);
          });
}

void
fold4qAvx2(u32 *a, size_t len, u32 q)
{
    const u32 two_q = 2 * q;
    const __m256i qV = _mm256_set1_epi32(static_cast<int>(q));
    const __m256i twoQV = _mm256_set1_epi32(static_cast<int>(two_q));
    size_t j = 0;
    for (; j + 8 <= len; j += 8) {
        __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + j));
        v = _mm256_min_epu32(v, _mm256_sub_epi32(v, twoQV));
        v = _mm256_min_epu32(v, _mm256_sub_epi32(v, qV));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(a + j), v);
    }
    for (; j < len; ++j)
        a[j] = fold4qOne(a[j], q, two_q);
}

} // namespace

const NttKernels &
nttKernelsAvx2()
{
    static const NttKernels k = {
        fwdStageAvx2,
        invStageAvx2,
        fold4qAvx2,
    };
    return k;
}

} // namespace cross::poly::detail
