#include "poly/ntt_kernels.h"

#include "nt/simd_dispatch.h"

namespace cross::poly::detail {

namespace {

void
fwdStageScalar(u32 *a, u32 n, u32 t, const ShoupTwiddles &tw, u32 q)
{
    const u32 two_q = 2 * q;
    const u32 m = n / (2 * t);
    for (u32 i = 0; i < m; ++i) {
        const nt::ShoupConst c = tw.at(m + i);
        u32 *x = a + 2 * i * t;
        for (u32 j = 0; j < t; ++j)
            fwdButterflyLazyOne(x + j, x + t + j, c, q, two_q);
    }
}

void
invStageScalar(u32 *a, u32 n, u32 t, const ShoupTwiddles &tw, u32 q)
{
    const u32 two_q = 2 * q;
    const u32 m = n / (2 * t);
    for (u32 i = 0; i < m; ++i) {
        const nt::ShoupConst c = tw.at(m + i);
        u32 *x = a + 2 * i * t;
        for (u32 j = 0; j < t; ++j)
            invButterflyLazyOne(x + j, x + t + j, c, q, two_q);
    }
}

void
fold4qScalar(u32 *a, size_t len, u32 q)
{
    const u32 two_q = 2 * q;
    for (size_t j = 0; j < len; ++j)
        a[j] = fold4qOne(a[j], q, two_q);
}

} // namespace

const NttKernels &
nttKernelsScalar()
{
    static const NttKernels k = {
        fwdStageScalar,
        invStageScalar,
        fold4qScalar,
    };
    return k;
}

const NttKernels &
activeNttKernels()
{
    switch (nt::activeSimdIsa()) {
#ifdef CROSS_HAVE_AVX2
    case nt::SimdIsa::Avx2:
        return nttKernelsAvx2();
#endif
#ifdef CROSS_HAVE_AVX512
    case nt::SimdIsa::Avx512:
        return nttKernelsAvx512();
#endif
    default:
        return nttKernelsScalar();
    }
}

} // namespace cross::poly::detail
