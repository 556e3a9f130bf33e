/**
 * The AVX-512 ModVecKernels table: the bodies of nt/modvec_simd.h over
 * the AVX-512 lanes. Compiled with -mavx512f -mavx512dq -mavx512vl;
 * reached only through the dispatch table after a runtime CPUID check.
 */
#include "nt/modvec_simd.h"
#include "nt/simd_lanes_avx512.h"

namespace cross::nt::detail {

const ModVecKernels &
modVecKernelsAvx512()
{
    using L = simd::Avx512;
    static const ModVecKernels k = {
        simd::addMod<L>,
        simd::subMod<L>,
        simd::negMod<L>,
        simd::mulShoup<L>,
        simd::mulMont<L>,
        simd::mulMod<L>,
        simd::accumMul<L>,
        simd::reduceWide<L>,
        simd::reduceWideInPlace<L>,
        simd::liftCentered<L>,
        simd::keySwitchProduct<L>,
        simd::bconvDot<L>,
        simd::gatherAddMod<L>,
    };
    return k;
}

} // namespace cross::nt::detail
