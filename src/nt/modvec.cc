#include "nt/modvec.h"

#include <algorithm>

#include "nt/modops.h"
#include "nt/modvec_impl.h"
#include "nt/simd_dispatch.h"

namespace cross::nt {

namespace detail {

void
keySwitchProductLoop(u32 *out0, u32 *out1, const u32 *const *digits,
                     const u32 *const *key0, const u32 *const *key1,
                     size_t d, const u32 *map, size_t from, size_t n,
                     u32 q, u32 qInv, u32 r2, size_t budget)
{
    for (size_t m = from; m < n; ++m) {
        const size_t src = map ? map[m] : m;
        u64 s0 = 0, s1 = 0;
        size_t left = budget;
        for (size_t j = 0; j < d; ++j, --left) {
            if (left == 0) {
                s0 = lazySumReduceRaw(s0, q, qInv, r2);
                s1 = lazySumReduceRaw(s1, q, qInv, r2);
                left = budget;
            }
            const u64 x = digits[j][src];
            s0 += x * key0[j][m];
            s1 += x * key1[j][m];
        }
        out0[m] = lazySumReduceRaw(s0, q, qInv, r2);
        out1[m] = lazySumReduceRaw(s1, q, qInv, r2);
    }
}

void
bconvDotLoop(u32 *out, const u32 *const *b, const u32 *w, size_t k,
             size_t from, size_t n, u32 q, u32 qInv, u32 r2,
             size_t budget)
{
    constexpr size_t kDotLanes = 64;
    for (size_t m0 = from; m0 < n; m0 += kDotLanes) {
        const size_t len = std::min(kDotLanes, n - m0);
        u64 s[kDotLanes] = {};
        size_t left = budget;
        for (size_t i = 0; i < k; ++i, --left) {
            if (left == 0) {
                for (size_t m = 0; m < len; ++m)
                    s[m] = lazySumReduceRaw(s[m], q, qInv, r2);
                left = budget;
            }
            for (size_t m = 0; m < len; ++m)
                s[m] += static_cast<u64>(b[i][m0 + m]) * w[i];
        }
        for (size_t m = 0; m < len; ++m)
            out[m0 + m] = lazySumReduceRaw(s[m], q, qInv, r2);
    }
}

void
gatherAddModLoop(u32 *dst, const u32 *src, const u32 *map, size_t from,
                 size_t n, u32 q)
{
    for (size_t m = from; m < n; ++m) {
        const u32 s = dst[m] + src[map[m]];
        dst[m] = s >= q ? s - q : s;
    }
}

namespace {

void
addModScalar(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q)
{
    for (size_t j = 0; j < n; ++j)
        dst[j] = static_cast<u32>(addMod(a[j], b[j], q));
}

void
subModScalar(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q)
{
    for (size_t j = 0; j < n; ++j)
        dst[j] = static_cast<u32>(subMod(a[j], b[j], q));
}

void
negModScalar(u32 *dst, const u32 *a, size_t n, u32 q)
{
    for (size_t j = 0; j < n; ++j)
        dst[j] = static_cast<u32>(negMod(a[j], q));
}

void
mulShoupScalar(u32 *dst, const u32 *a, ShoupConst c, size_t n, u32 q)
{
    for (size_t j = 0; j < n; ++j)
        dst[j] = shoupMul(a[j], c, q);
}

void
mulMontScalar(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q,
              u32 qInv, u32 r2)
{
    for (size_t j = 0; j < n; ++j)
        dst[j] = montMulPlainRaw(a[j], b[j], q, qInv, r2);
}

void
mulModScalar(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q,
             u64 m64)
{
    for (size_t j = 0; j < n; ++j)
        dst[j] = barrettReduceWideRaw(static_cast<u64>(a[j]) * b[j], q,
                                      m64);
}

void
accumMulScalar(u64 *acc, const u32 *a, u32 w, size_t n)
{
    for (size_t j = 0; j < n; ++j)
        acc[j] += static_cast<u64>(a[j]) * w;
}

void
reduceWideScalar(u32 *dst, const u64 *acc, size_t n, u32 q, u64 m64)
{
    for (size_t j = 0; j < n; ++j)
        dst[j] = barrettReduceWideRaw(acc[j], q, m64);
}

void
reduceWideInPlaceScalar(u64 *acc, size_t n, u32 q, u64 m64)
{
    for (size_t j = 0; j < n; ++j)
        acc[j] = barrettReduceWideRaw(acc[j], q, m64);
}

void
liftCenteredScalar(u32 *dst, const u32 *a, size_t n, u32 q_from, u32 q,
                   u64 m64)
{
    if (!liftIsSelect(q_from, q)) {
        liftCenteredLoop(dst, a, n, q_from, q, m64);
        return;
    }
    const u32 half = q_from / 2;
    const u32 shift = q - q_from;
    for (size_t j = 0; j < n; ++j)
        dst[j] = liftCenteredSelect(a[j], half, shift);
}

void
keySwitchProductScalar(u32 *out0, u32 *out1, const u32 *const *digits,
                       const u32 *const *key0, const u32 *const *key1,
                       size_t d, const u32 *map, size_t n, u32 q,
                       u32 qInv, u32 r2, size_t budget)
{
    keySwitchProductLoop(out0, out1, digits, key0, key1, d, map, 0, n, q,
                         qInv, r2, budget);
}

void
bconvDotScalar(u32 *out, const u32 *const *b, const u32 *w, size_t k,
               size_t n, u32 q, u32 qInv, u32 r2, size_t budget)
{
    bconvDotLoop(out, b, w, k, 0, n, q, qInv, r2, budget);
}

void
gatherAddModScalar(u32 *dst, const u32 *src, const u32 *map, size_t n,
                   u32 q)
{
    gatherAddModLoop(dst, src, map, 0, n, q);
}

} // namespace

const ModVecKernels &
modVecKernelsScalar()
{
    static const ModVecKernels k = {
        addModScalar,    subModScalar,  negModScalar,
        mulShoupScalar,  mulMontScalar, mulModScalar,
        accumMulScalar,  reduceWideScalar, reduceWideInPlaceScalar,
        liftCenteredScalar, keySwitchProductScalar, bconvDotScalar,
        gatherAddModScalar,
    };
    return k;
}

namespace {

/**
 * The dispatch read: one atomic load per array call (the arrays are
 * >= degree-sized, so the switch is noise), and the selected table is
 * consistent for the whole call -- setSimdIsa refuses to run while a
 * parallel kernel is mid-flight (see simd_dispatch.h).
 */
const ModVecKernels &
kernels()
{
    switch (activeSimdIsa()) {
#ifdef CROSS_HAVE_AVX2
    case SimdIsa::Avx2:
        return modVecKernelsAvx2();
#endif
#ifdef CROSS_HAVE_AVX512
    case SimdIsa::Avx512:
        return modVecKernelsAvx512();
#endif
    default:
        return modVecKernelsScalar();
    }
}

} // namespace

} // namespace detail

void
addModVec(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q)
{
    detail::kernels().addMod(dst, a, b, n, q);
}

void
subModVec(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q)
{
    detail::kernels().subMod(dst, a, b, n, q);
}

void
negModVec(u32 *dst, const u32 *a, size_t n, u32 q)
{
    detail::kernels().negMod(dst, a, n, q);
}

void
mulShoupVec(u32 *dst, const u32 *a, const ShoupConst &c, size_t n, u32 q)
{
    detail::kernels().mulShoup(dst, a, c, n, q);
}

void
mulMontVec(u32 *dst, const u32 *a, const u32 *b, size_t n,
           const Montgomery &mont)
{
    detail::kernels().mulMont(dst, a, b, n, mont.modulus(), mont.qInv(),
                              static_cast<u32>(mont.rSquared()));
}

void
mulModVec(u32 *dst, const u32 *a, const u32 *b, size_t n,
          const Barrett &bar)
{
    detail::kernels().mulMod(dst, a, b, n, bar.modulus(), bar.m64());
}

void
accumMulVec(u64 *acc, const u32 *a, u32 w, size_t n)
{
    detail::kernels().accumMul(acc, a, w, n);
}

void
reduceWideVec(u32 *dst, const u64 *acc, size_t n, const Barrett &bar)
{
    detail::kernels().reduceWide(dst, acc, n, bar.modulus(), bar.m64());
}

void
reduceWideInPlaceVec(u64 *acc, size_t n, const Barrett &bar)
{
    detail::kernels().reduceWideInPlace(acc, n, bar.modulus(),
                                        bar.m64());
}

void
liftCenteredVec(u32 *dst, const u32 *a, size_t n, u32 q_from,
                const Barrett &bar)
{
    detail::kernels().liftCentered(dst, a, n, q_from, bar.modulus(),
                                   bar.m64());
}

size_t
lazySumBudget(u32 q, u64 max_product)
{
    // Lanes hold at most q - 1 after a fold and must stay at most
    // q * 2^32 - 1, which leaves q * (2^32 - 1) for the products; q < 2^31
    // keeps that below 2^63. One product always fits.
    const u64 room = u64{q} * 0xffffffffULL;
    return static_cast<size_t>(
        std::max<u64>(1, room / std::max<u64>(1, max_product)));
}

void
keySwitchProductVec(u32 *out0, u32 *out1, const u32 *const *digits,
                    const u32 *const *key0, const u32 *const *key1,
                    size_t d, const u32 *map, size_t n,
                    const Montgomery &mont)
{
    const u32 q = mont.modulus();
    detail::kernels().keySwitchProduct(
        out0, out1, digits, key0, key1, d, map, n, q, mont.qInv(),
        static_cast<u32>(mont.rSquared()),
        lazySumBudget(q, u64{q - 1} * (q - 1)));
}

void
bconvDotVec(u32 *out, const u32 *const *b, const u32 *w, size_t k,
            size_t n, size_t budget, const Montgomery &mont)
{
    detail::kernels().bconvDot(out, b, w, k, n, mont.modulus(), mont.qInv(),
                               static_cast<u32>(mont.rSquared()), budget);
}

void
gatherAddModVec(u32 *dst, const u32 *src, const u32 *map, size_t n, u32 q)
{
    detail::kernels().gatherAddMod(dst, src, map, n, q);
}

} // namespace cross::nt
