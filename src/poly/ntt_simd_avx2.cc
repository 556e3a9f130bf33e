/**
 * The AVX2 NttKernels table: the stage kernels of poly/ntt_simd.h over
 * the AVX2 lanes. Compiled with -mavx2; reached only behind the
 * runtime dispatch.
 *
 * The short-span permutes: a span of 4, 2 or 1 runs on 16 coefficients
 * (8 / t blocks) at a time. Span<t>::split separates the two loaded
 * vectors into the blocks' x and y halves with a 128-bit lane swap for
 * t = 4 and in-lane unpacks and shuffles below that, and merge puts the
 * results back.
 */
#include "nt/simd_lanes_avx2.h"
#include "poly/ntt_simd.h"

namespace cross::poly::detail {

namespace {

struct NttLanes : nt::simd::Avx2
{
    template <u32 T>
    struct Span
    {
        /** Lane l's block within the chunk, in split's lane order. */
        V block = T == 4   ? _mm256_setr_epi32(0, 0, 0, 0, 1, 1, 1, 1)
                  : T == 2 ? _mm256_setr_epi32(0, 0, 2, 2, 1, 1, 3, 3)
                           : _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);

        void split(V v0, V v1, V &x, V &y) const
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

        void merge(V x, V y, V &v0, V &v1) const
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

        V twiddles(const u32 *p) const
        {
            V v;
            if constexpr (T == 1)
                v = load(p);
            else if constexpr (T == 2)
                v = _mm256_zextsi128_si256(
                    _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
            else
                v = _mm256_zextsi128_si256(
                    _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)));
            return _mm256_permutevar8x32_epi32(v, block);
        }
    };
};

} // namespace

const NttKernels &
nttKernelsAvx2()
{
    static const NttKernels k = {
        simd::fwdStage<NttLanes>,
        simd::invStage<NttLanes>,
        simd::fold4q<NttLanes>,
    };
    return k;
}

} // namespace cross::poly::detail
