/**
 * The AVX-512 NttKernels table: the stage kernels of poly/ntt_simd.h
 * over the AVX-512 lanes. Compiled with -mavx512f/dq/vl; reached only
 * behind the runtime dispatch.
 *
 * The short-span permutes: a span of 8, 4, 2 or 1 runs on 32
 * coefficients (16 / t blocks) at a time. Two vpermt2d split the two
 * loaded vectors into the blocks' x and y halves, and two more put the
 * results back in place.
 */
#include "nt/simd_lanes_avx512.h"
#include "poly/ntt_simd.h"

namespace cross::poly::detail {

namespace {

/**
 * vpermt2d indices for span T < 16 over a 32-coefficient chunk. Lane l
 * of the x half is offset l % T of the chunk's block l / T, and the
 * y half is that plus T (toX, toY index the two loaded vectors). from
 * indexes (x, y) back into chunk order: entries 0..15 build the first
 * vector, 16..31 the second.
 */
template <u32 T>
struct SpanIndex
{
    alignas(64) u32 toX[16]{};
    alignas(64) u32 toY[16]{};
    alignas(64) u32 block[16]{};
    alignas(64) u32 from[32]{};

    constexpr SpanIndex()
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
constexpr SpanIndex<T> kSpanIndex{};

struct NttLanes : nt::simd::Avx512
{
    template <u32 T>
    struct Span
    {
        V toX = _mm512_load_si512(kSpanIndex<T>.toX);
        V toY = _mm512_load_si512(kSpanIndex<T>.toY);
        V block = _mm512_load_si512(kSpanIndex<T>.block);
        V fromLo = _mm512_load_si512(kSpanIndex<T>.from);
        V fromHi = _mm512_load_si512(kSpanIndex<T>.from + 16);

        void split(V v0, V v1, V &x, V &y) const
        {
            x = _mm512_permutex2var_epi32(v0, toX, v1);
            y = _mm512_permutex2var_epi32(v0, toY, v1);
        }

        void merge(V x, V y, V &v0, V &v1) const
        {
            v0 = _mm512_permutex2var_epi32(x, fromLo, y);
            v1 = _mm512_permutex2var_epi32(x, fromHi, y);
        }

        /** At T = 1 the twiddles load in lane order. */
        V twiddles(const u32 *p) const
        {
            if constexpr (T == 1) {
                return load(p);
            } else {
                V v;
                if constexpr (T == 2)
                    v = _mm512_zextsi256_si512(_mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(p)));
                else if constexpr (T == 4)
                    v = _mm512_zextsi128_si512(_mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(p)));
                else
                    v = _mm512_zextsi128_si512(_mm_loadl_epi64(
                        reinterpret_cast<const __m128i *>(p)));
                return _mm512_permutexvar_epi32(block, v);
            }
        }
    };
};

} // namespace

const NttKernels &
nttKernelsAvx512()
{
    static const NttKernels k = {
        simd::fwdStage<NttLanes>,
        simd::invStage<NttLanes>,
        simd::fold4q<NttLanes>,
    };
    return k;
}

} // namespace cross::poly::detail
