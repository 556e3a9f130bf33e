/**
 * AVX-512 stage kernels for the lazy-reduction NTT. Compiled with
 * -mavx512f/dq/vl; reached only behind the runtime dispatch. Vector
 * lanes mirror the scalar helpers in ntt_kernels.h bit-for-bit: the
 * conditional folds become unsigned-min selects and the Shoup multiply
 * is the shared shoupMulLazy16PerLane lane (nt/simd_lanes_avx512.h).
 *
 * A span t of 16 or more runs each block as whole vectors under the
 * block's broadcast twiddle. A span of 8, 4, 2 or 1 runs on 32
 * coefficients (16 / t blocks) at a time: two vpermt2d split the two
 * loaded vectors into the blocks' x and y halves, the butterfly takes
 * one twiddle per lane, and two more put the results back in place. A
 * degree below 32 runs the scalar stage.
 */
#include "nt/simd_lanes_avx512.h"
#include "poly/ntt_kernels.h"

namespace cross::poly::detail {

namespace {

using namespace cross::nt::avx512;

/** One twiddle per u32 lane: w and the two halves of its Shoup factor. */
struct LaneTwiddles
{
    __m512i w, lo, hi;
};

/**
 * vpermt2d indices for span T < 16 over a 32-coefficient chunk. Lane l
 * of the x half is offset l % T of the chunk's block l / T, and the
 * y half is that plus T (toX, toY index the two loaded vectors). from
 * indexes (x, y) back into chunk order: entries 0..15 build the first
 * vector, 16..31 the second.
 */
template <u32 T>
struct SpanLanes
{
    alignas(64) u32 toX[16]{};
    alignas(64) u32 toY[16]{};
    alignas(64) u32 block[16]{};
    alignas(64) u32 from[32]{};

    constexpr SpanLanes()
    {
        for (u32 l = 0; l < 16; ++l) {
            toX[l] = l / T * 2 * T + l % T;
            toY[l] = toX[l] + T;
            block[l] = l / T;
        }
        for (u32 e = 0; e < 32; ++e) {
            const u32 lane = e / (2 * T) * T + e % T;
            from[e] = e % (2 * T) < T ? lane : 16 + lane;
        }
    }
};

template <u32 T>
constexpr SpanLanes<T> kSpanLanes{};

/**
 * The 16 / T twiddles of one chunk's blocks, starting at p, spread so
 * that lane l holds entry l / T. Each load reads exactly those entries,
 * so no chunk reads past the end of the table.
 */
template <u32 T>
__m512i
chunkTwiddles(const u32 *p, __m512i block)
{
    if constexpr (T == 1) {
        return _mm512_loadu_si512(p);
    } else {
        __m512i v;
        if constexpr (T == 2)
            v = _mm512_zextsi256_si512(
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p)));
        else if constexpr (T == 4)
            v = _mm512_zextsi128_si512(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
        else
            v = _mm512_zextsi128_si512(
                _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)));
        return _mm512_permutexvar_epi32(block, v);
    }
}

/** A stage of span T < 16; w, lo and hi point at its first twiddle. */
template <u32 T, class Butterfly>
void
shortSpanStage(u32 *a, u32 n, const u32 *w, const u32 *lo, const u32 *hi,
               Butterfly bfly)
{
    const SpanLanes<T> &ix = kSpanLanes<T>;
    const __m512i toX = _mm512_load_si512(ix.toX);
    const __m512i toY = _mm512_load_si512(ix.toY);
    const __m512i block = _mm512_load_si512(ix.block);
    const __m512i fromLo = _mm512_load_si512(ix.from);
    const __m512i fromHi = _mm512_load_si512(ix.from + 16);
    for (u32 k = 0; k < n; k += 32) {
        const __m512i v0 = _mm512_loadu_si512(a + k);
        const __m512i v1 = _mm512_loadu_si512(a + k + 16);
        __m512i x = _mm512_permutex2var_epi32(v0, toX, v1);
        __m512i y = _mm512_permutex2var_epi32(v0, toY, v1);
        const u32 b = k / (2 * T); // the chunk's first block
        bfly(x, y,
             LaneTwiddles{chunkTwiddles<T>(w + b, block),
                          chunkTwiddles<T>(lo + b, block),
                          chunkTwiddles<T>(hi + b, block)});
        _mm512_storeu_si512(a + k, _mm512_permutex2var_epi32(x, fromLo, y));
        _mm512_storeu_si512(a + k + 16,
                            _mm512_permutex2var_epi32(x, fromHi, y));
    }
}

/** One stage of span t over n >= 32 coefficients. */
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
    case 8:
        return shortSpanStage<8>(a, n, w, lo, hi, bfly);
    default:
        break;
    }
    for (u32 i = 0; i < m; ++i) {
        const LaneTwiddles c{_mm512_set1_epi32(static_cast<int>(w[i])),
                             _mm512_set1_epi32(static_cast<int>(lo[i])),
                             _mm512_set1_epi32(static_cast<int>(hi[i]))};
        u32 *x = a + 2 * i * t;
        for (u32 j = 0; j < t; j += 16) {
            __m512i xv = _mm512_loadu_si512(x + j);
            __m512i yv = _mm512_loadu_si512(x + t + j);
            bfly(xv, yv, c);
            _mm512_storeu_si512(x + j, xv);
            _mm512_storeu_si512(x + t + j, yv);
        }
    }
}

void
fwdStageAvx512(u32 *a, u32 n, u32 t, const ShoupTwiddles &tw, u32 q)
{
    if (n < 32) {
        nttKernelsScalar().fwdStage(a, n, t, tw, q);
        return;
    }
    const __m512i q64V = _mm512_set1_epi64(q);
    const __m512i twoQV = _mm512_set1_epi32(static_cast<int>(2 * q));
    // fwdButterflyLazyOne on every lane.
    stage(a, n, t, tw,
          [=](__m512i &x, __m512i &y, const LaneTwiddles &c) {
              const __m512i u =
                  _mm512_min_epu32(x, _mm512_sub_epi32(x, twoQV));
              const __m512i v =
                  shoupMulLazy16PerLane(y, c.w, c.lo, c.hi, q64V);
              x = _mm512_add_epi32(u, v);
              y = _mm512_sub_epi32(_mm512_add_epi32(u, twoQV), v);
          });
}

void
invStageAvx512(u32 *a, u32 n, u32 t, const ShoupTwiddles &tw, u32 q)
{
    if (n < 32) {
        nttKernelsScalar().invStage(a, n, t, tw, q);
        return;
    }
    const __m512i q64V = _mm512_set1_epi64(q);
    const __m512i twoQV = _mm512_set1_epi32(static_cast<int>(2 * q));
    // invButterflyLazyOne on every lane.
    stage(a, n, t, tw,
          [=](__m512i &x, __m512i &y, const LaneTwiddles &c) {
              const __m512i s = _mm512_add_epi32(x, y);
              const __m512i d =
                  _mm512_sub_epi32(_mm512_add_epi32(x, twoQV), y);
              x = _mm512_min_epu32(s, _mm512_sub_epi32(s, twoQV));
              y = shoupMulLazy16PerLane(d, c.w, c.lo, c.hi, q64V);
          });
}

void
fold4qAvx512(u32 *a, size_t len, u32 q)
{
    const u32 two_q = 2 * q;
    const __m512i qV = _mm512_set1_epi32(static_cast<int>(q));
    const __m512i twoQV = _mm512_set1_epi32(static_cast<int>(two_q));
    size_t j = 0;
    for (; j + 16 <= len; j += 16) {
        __m512i v = _mm512_loadu_si512(a + j);
        v = _mm512_min_epu32(v, _mm512_sub_epi32(v, twoQV));
        v = _mm512_min_epu32(v, _mm512_sub_epi32(v, qV));
        _mm512_storeu_si512(a + j, v);
    }
    for (; j < len; ++j)
        a[j] = fold4qOne(a[j], q, two_q);
}

} // namespace

const NttKernels &
nttKernelsAvx512()
{
    static const NttKernels k = {
        fwdStageAvx512,
        invStageAvx512,
        fold4qAvx512,
    };
    return k;
}

} // namespace cross::poly::detail
