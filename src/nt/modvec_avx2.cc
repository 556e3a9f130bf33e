/**
 * The AVX2 ModVecKernels table: the bodies of nt/modvec_simd.h over
 * the AVX2 lanes. Compiled with -mavx2 (see src/nt/CMakeLists.txt);
 * only reached through the dispatch table after a runtime CPUID check.
 */
#include "nt/modvec_simd.h"
#include "nt/simd_lanes_avx2.h"

namespace cross::nt::detail {

const ModVecKernels &
modVecKernelsAvx2()
{
    using L = simd::Avx2;
    static const ModVecKernels k = {
        simd::addMod<L>,
        simd::subMod<L>,
        simd::negMod<L>,
        simd::mulShoup<L>,
        simd::mulMont<L>,
        // Barrett mulMod stays SCALAR on the AVX2 path: the wide
        // reduction needs a full 64x64->hi64, which AVX2 can only
        // emulate with four mul_epu32 partial products per lane --
        // measured at 0.78x of the scalar 128-bit multiply on this
        // kernel (bench_micro_modred dispatch sweep). AVX-512 keeps its
        // vector version (vpmullq makes it 1.6x). Tables may mix lane
        // widths per op; conformance only requires identical bits.
        modVecKernelsScalar().mulMod,
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
