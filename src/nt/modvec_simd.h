/**
 * @file
 * The vector bodies of the modvec.h kernels, written once over a lanes
 * type L (nt/simd_lanes.h). Each ISA's translation unit
 * (modvec_avx2.cc, modvec_avx512.cc) instantiates them with its lanes
 * type and lists them in its ModVecKernels table.
 *
 * Bit-identical to the scalar kernels in modvec.cc: the lanes mirror
 * the scalar arithmetic, and every tail (the elements past the last
 * whole vector, or inputs a body does not vectorise) runs the scalar
 * table entry or the out-of-line scalar loop. A body reaches scalar
 * code only by such calls, so its TU compiles no copy of an inline
 * scalar helper (docs/SIMD.md, "Linkage").
 */
#pragma once

#include <cstddef>

#include "common/types.h"
#include "nt/modvec_impl.h"
#include "nt/shoup.h"

namespace cross::nt::simd {

template <class L>
void
addMod(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q)
{
    const auto qV = L::set1(q);
    size_t j = 0;
    for (; j + L::kU32 <= n; j += L::kU32)
        L::store(dst + j,
                 L::fold2q(L::add32(L::load(a + j), L::load(b + j)), qV));
    if (j < n)
        detail::modVecKernelsScalar().addMod(dst + j, a + j, b + j, n - j,
                                             q);
}

template <class L>
void
subMod(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q)
{
    const auto qV = L::set1(q);
    size_t j = 0;
    for (; j + L::kU32 <= n; j += L::kU32) {
        const auto d =
            L::sub32(L::add32(L::load(a + j), qV), L::load(b + j));
        L::store(dst + j, L::fold2q(d, qV));
    }
    if (j < n)
        detail::modVecKernelsScalar().subMod(dst + j, a + j, b + j, n - j,
                                             q);
}

template <class L>
void
negMod(u32 *dst, const u32 *a, size_t n, u32 q)
{
    const auto qV = L::set1(q);
    size_t j = 0;
    // q - a is in [1, q] (a == 0 lands exactly on q); the fold maps
    // q -> 0, matching scalar negMod's zero special-case.
    for (; j + L::kU32 <= n; j += L::kU32)
        L::store(dst + j, L::fold2q(L::sub32(qV, L::load(a + j)), qV));
    if (j < n)
        detail::modVecKernelsScalar().negMod(dst + j, a + j, n - j, q);
}

template <class L>
void
mulShoup(u32 *dst, const u32 *a, ShoupConst c, size_t n, u32 q)
{
    const auto qV = L::set1(q);
    const auto wV = L::set1(c.w);
    const auto wsV = L::set1(c.wShoup);
    size_t j = 0;
    for (; j + L::kU32 <= n; j += L::kU32) {
        const auto lazy = L::shoupMulLazy(L::load(a + j), wV, wsV, qV);
        L::store(dst + j, L::fold2q(lazy, qV));
    }
    if (j < n)
        detail::modVecKernelsScalar().mulShoup(dst + j, a + j, c, n - j, q);
}

template <class L>
void
mulMont(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q, u32 qInv,
        u32 r2)
{
    const auto qV = L::set1x64(q);
    const auto qInvV = L::set1x64(qInv);
    const auto r2V = L::set1x64(r2);
    size_t j = 0;
    for (; j + L::kU32 <= n; j += L::kU32) {
        const auto va = L::load(a + j);
        const auto vb = L::load(b + j);
        const auto re = L::montMulPlainHalf(va, vb, qV, qInvV, r2V);
        const auto ro = L::montMulPlainHalf(L::shr32(va), L::shr32(vb), qV,
                                            qInvV, r2V);
        L::store(dst + j, L::mergeHalves(re, ro));
    }
    if (j < n)
        detail::modVecKernelsScalar().mulMont(dst + j, a + j, b + j, n - j,
                                              q, qInv, r2);
}

/** The u64-lane constants of barrettReduceWide for q and m64. */
template <class L>
struct BarrettLanes
{
    typename L::V q, mLo, mHi, lo32;

    BarrettLanes(u32 q_, u64 m64)
        : q(L::set1x64(q_)), mLo(L::set1x64(m64 & 0xffffffffULL)),
          mHi(L::set1x64(m64 >> 32)), lo32(L::set1x64(0xffffffffULL))
    {
    }

    typename L::V reduce(typename L::V z) const
    {
        return L::barrettReduceWide(z, q, mLo, mHi, lo32);
    }
};

template <class L>
void
mulMod(u32 *dst, const u32 *a, const u32 *b, size_t n, u32 q, u64 m64)
{
    const BarrettLanes<L> bar(q, m64);
    size_t j = 0;
    for (; j + L::kU32 <= n; j += L::kU32) {
        const auto va = L::load(a + j);
        const auto vb = L::load(b + j);
        const auto re = bar.reduce(L::mul32(va, vb));
        const auto ro = bar.reduce(L::mul32(L::shr32(va), L::shr32(vb)));
        L::store(dst + j, L::mergeHalves(re, ro));
    }
    if (j < n)
        detail::modVecKernelsScalar().mulMod(dst + j, a + j, b + j, n - j,
                                             q, m64);
}

template <class L>
void
accumMul(u64 *acc, const u32 *a, u32 w, size_t n)
{
    const auto wV = L::set1x64(w);
    size_t j = 0;
    for (; j + L::kU64 <= n; j += L::kU64) {
        const auto prod = L::mul32(L::loadWidened(a + j), wV);
        L::store(acc + j, L::add64(L::load(acc + j), prod));
    }
    if (j < n)
        detail::modVecKernelsScalar().accumMul(acc + j, a + j, w, n - j);
}

template <class L>
void
reduceWide(u32 *dst, const u64 *acc, size_t n, u32 q, u64 m64)
{
    const BarrettLanes<L> bar(q, m64);
    size_t j = 0;
    for (; j + L::kU64 <= n; j += L::kU64)
        L::storePacked(dst + j, bar.reduce(L::load(acc + j)));
    if (j < n)
        detail::modVecKernelsScalar().reduceWide(dst + j, acc + j, n - j, q,
                                                 m64);
}

template <class L>
void
reduceWideInPlace(u64 *acc, size_t n, u32 q, u64 m64)
{
    const BarrettLanes<L> bar(q, m64);
    size_t j = 0;
    for (; j + L::kU64 <= n; j += L::kU64)
        L::store(acc + j, bar.reduce(L::load(acc + j)));
    if (j < n)
        detail::modVecKernelsScalar().reduceWideInPlace(acc + j, n - j, q,
                                                        m64);
}

template <class L>
void
liftCentered(u32 *dst, const u32 *a, size_t n, u32 q_from, u32 q, u64 m64)
{
    // Only the select form vectorises: liftIsSelect(q_from, q).
    size_t j = 0;
    if (q_from < 2ULL * q) {
        const auto halfV = L::set1(q_from / 2);
        const auto shiftV = L::set1(q - q_from);
        for (; j + L::kU32 <= n; j += L::kU32)
            L::store(dst + j, L::liftSelect(L::load(a + j), halfV, shiftV));
    }
    if (j < n)
        detail::modVecKernelsScalar().liftCentered(dst + j, a + j, n - j,
                                                   q_from, q, m64);
}

/**
 * keySwitchProductVec, kU32 coefficients a step: each digit's values
 * (one gather through the map when kGather) feed both products, and
 * the four u64 sums (two keys, even and odd lanes) reduce once.
 */
template <class L, bool kGather>
void
keySwitchProductBody(u32 *out0, u32 *out1, const u32 *const *digits,
                     const u32 *const *key0, const u32 *const *key1,
                     size_t d, const u32 *map, size_t n, u32 q, u32 qInv,
                     u32 r2, size_t budget)
{
    using V = typename L::V;
    const V qV = L::set1x64(q);
    const V qInvV = L::set1x64(qInv);
    const V r2V = L::set1x64(r2);
    const auto reduce = [&](V z) {
        return L::lazySumReduce(z, qV, qInvV, r2V);
    };
    size_t m = 0;
    for (; m + L::kU32 <= n; m += L::kU32) {
        V idx = L::zero();
        if constexpr (kGather)
            idx = L::load(map + m);
        V s0e = L::zero(), s0o = s0e, s1e = s0e, s1o = s0e;
        size_t left = budget;
        for (size_t j = 0; j < d; ++j, --left) {
            if (left == 0) {
                s0e = reduce(s0e);
                s0o = reduce(s0o);
                s1e = reduce(s1e);
                s1o = reduce(s1o);
                left = budget;
            }
            V x;
            if constexpr (kGather)
                x = L::gather(digits[j], idx);
            else
                x = L::load(digits[j] + m);
            const V k0 = L::load(key0[j] + m);
            const V k1 = L::load(key1[j] + m);
            const V xo = L::shr32(x);
            s0e = L::add64(s0e, L::mul32(x, k0));
            s0o = L::add64(s0o, L::mul32(xo, L::shr32(k0)));
            s1e = L::add64(s1e, L::mul32(x, k1));
            s1o = L::add64(s1o, L::mul32(xo, L::shr32(k1)));
        }
        L::store(out0 + m, L::mergeHalves(reduce(s0e), reduce(s0o)));
        L::store(out1 + m, L::mergeHalves(reduce(s1e), reduce(s1o)));
    }
    if (m < n)
        detail::keySwitchProductLoop(out0, out1, digits, key0, key1, d, map,
                                     m, n, q, qInv, r2, budget);
}

template <class L>
void
keySwitchProduct(u32 *out0, u32 *out1, const u32 *const *digits,
                 const u32 *const *key0, const u32 *const *key1, size_t d,
                 const u32 *map, size_t n, u32 q, u32 qInv, u32 r2,
                 size_t budget)
{
    if (map)
        keySwitchProductBody<L, true>(out0, out1, digits, key0, key1, d,
                                      map, n, q, qInv, r2, budget);
    else
        keySwitchProductBody<L, false>(out0, out1, digits, key0, key1, d,
                                       nullptr, n, q, qInv, r2, budget);
}

template <class L>
void
bconvDot(u32 *out, const u32 *const *b, const u32 *w, size_t k, size_t n,
         u32 q, u32 qInv, u32 r2, size_t budget)
{
    using V = typename L::V;
    const V qV = L::set1x64(q);
    const V qInvV = L::set1x64(qInv);
    const V r2V = L::set1x64(r2);
    const auto reduce = [&](V z) {
        return L::lazySumReduce(z, qV, qInvV, r2V);
    };
    size_t m = 0;
    for (; m + L::kU32 <= n; m += L::kU32) {
        V se = L::zero(), so = se;
        size_t left = budget;
        for (size_t i = 0; i < k; ++i, --left) {
            if (left == 0) {
                se = reduce(se);
                so = reduce(so);
                left = budget;
            }
            const V x = L::load(b[i] + m);
            const V wV = L::set1x64(w[i]);
            se = L::add64(se, L::mul32(x, wV));
            so = L::add64(so, L::mul32(L::shr32(x), wV));
        }
        L::store(out + m, L::mergeHalves(reduce(se), reduce(so)));
    }
    if (m < n)
        detail::bconvDotLoop(out, b, w, k, m, n, q, qInv, r2, budget);
}

template <class L>
void
gatherAddMod(u32 *dst, const u32 *src, const u32 *map, size_t n, u32 q)
{
    const auto qV = L::set1(q);
    size_t m = 0;
    for (; m + L::kU32 <= n; m += L::kU32) {
        const auto g = L::gather(src, L::load(map + m));
        L::store(dst + m, L::fold2q(L::add32(L::load(dst + m), g), qV));
    }
    if (m < n)
        detail::gatherAddModLoop(dst, src, map, m, n, q);
}

} // namespace cross::nt::simd
