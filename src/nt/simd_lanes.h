/**
 * @file
 * The lane helpers every vector kernel shares, written once over a
 * per-ISA lanes type. A lanes type (nt/simd_lanes_avx2.h,
 * nt/simd_lanes_avx512.h) derives from LaneOps<itself> and supplies
 * the primitives listed below; LaneOps builds the
 * composite helpers from them, so a kernel body calls L::fold2q,
 * L::montReduce or L::add32 alike and never names an intrinsic.
 *
 * Conventions:
 *  - "u32 lanes": kU32 independent u32 values.
 *  - "u64 lanes": kU64 = kU32 / 2 values, each in a 64-bit lane; the
 *    reductions keep their results in the LOW 32 bits of each lane.
 *  - kU32-wide products use the even/odd split: the even u64 half is
 *    the vector itself (mul32 reads the low dwords), the odd half is
 *    the vector shifted right 32; mergeHalves recombines them.
 *
 * Primitives a lanes type provides (V is its vector type):
 *  - kU32, kU64; load(p), store(p, v) (unaligned, any element type);
 *    set1(u32) (u32 lanes), set1x64(u64) (u64 lanes), zero();
 *  - add32, sub32, minU32 and mulLo32 (low dword of the product,
 *    vpmulld) on u32 lanes; add64, sub64, andBits, shr32 (u64 lanes
 *    >> 32) and mul32 (low dword x low dword -> u64) on u64 lanes;
 *  - the ones whose instructions really differ per ISA: mulHi32 (high
 *    dword of the u32 product, over the even/odd split), foldU64,
 *    mergeHalves, condSubQ64, mulLo64, loadWidened, storePacked,
 *    gather and liftSelect, each documented where it is defined.
 *
 * Every helper mirrors one scalar primitive in nt/ bit for bit; the
 * comments name the scalar twin. Everything here is a template on the
 * lanes type, so each ISA's instantiations carry its name and nothing
 * compiled with that ISA's -m flags is shared with baseline code
 * (docs/SIMD.md, "Linkage").
 */
#pragma once

#include "common/types.h"

namespace cross::nt::simd {

/**
 * The composite helpers of lanes type @p L. Each is a template on the
 * vector type V, deduced from the arguments (always L's), so that no
 * vector type with its attributes becomes an explicit template
 * argument.
 */
template <class L>
struct LaneOps
{
    /**
     * Fold u32 lanes from [0, 2q) into [0, q): min(x, x - q) unsigned.
     * When x < q the subtraction wraps above 2^31 > x, so min keeps x.
     * Scalar twin: `r >= q ? r - q : r`.
     */
    template <class V>
    static V fold2q(V x, V q)
    {
        return L::minU32(x, L::sub32(x, q));
    }

    /**
     * shoupMulLazy on u32 lanes: lane l of w and ws holds lane l's
     * constant and its 32-bit Shoup factor (a set1 broadcast serves one
     * constant to every lane). Any u32 input, results in [0, 2q) for
     * q < 2^31: the quotient hi = mulHi32(x, ws) is exact or one short,
     * and x*w - hi*q wraps correctly in u32 lanes. Scalar twin:
     * shoupMulLazy() in nt/shoup.h.
     */
    template <class V>
    static V shoupMulLazy(V x, V w, V ws, V q)
    {
        const V hi = L::mulHi32(x, ws);
        return L::sub32(L::mulLo32(x, w), L::mulLo32(hi, q));
    }

    /**
     * Montgomery reduce u64 lanes z (z < q * 2^32): returns u64 lanes
     * in [0, 2q). Scalar twin: montReduceRaw() in nt/modvec_impl.h.
     */
    template <class V>
    static V montReduce(V z, V q, V qInv)
    {
        const V t = L::mul32(z, qInv); // low dword == t
        const V tf = L::shr32(L::mul32(t, q));
        return L::sub64(L::add64(L::shr32(z), q), tf);
    }

    /** mont.mulPlain on one u64-lane half (inputs < q in low dwords).
     *  Scalar twin: montMulPlainRaw(). */
    template <class V>
    static V montMulPlainHalf(V a, V b, V q, V qInv, V r2)
    {
        const V am = L::foldU64(montReduce(L::mul32(a, r2), q, qInv), q);
        return L::foldU64(montReduce(L::mul32(am, b), q, qInv), q);
    }

    /**
     * The lazy-sum reduction on u64 lanes z < q * 2^32: Montgomery,
     * times r2 = 2^64 mod q, Montgomery again, fold; results < q in the
     * low dwords. Scalar twin: lazySumReduceRaw().
     */
    template <class V>
    static V lazySumReduce(V z, V q, V qInv, V r2)
    {
        const V r = montReduce(z, q, qInv);
        return L::foldU64(montReduce(L::mul32(r, r2), q, qInv), q);
    }

    /**
     * floor(x * m / 2^64) for u64 lanes x (full 64-bit values) and a
     * broadcast u64 constant m split into mLo/mHi dword halves. The
     * classic four-partial-product high word; `cross` collects the
     * carries out of bit 32 exactly (it fits 34 bits).
     */
    template <class V>
    static V mulHi64(V x, V mLo, V mHi, V lo32)
    {
        const V xh = L::shr32(x);
        const V ll = L::mul32(x, mLo);
        const V hl = L::mul32(xh, mLo);
        const V lh = L::mul32(x, mHi);
        const V hh = L::mul32(xh, mHi);
        const V cross = L::add64(
            L::add64(L::shr32(ll), L::andBits(hl, lo32)),
            L::andBits(lh, lo32));
        return L::add64(L::add64(hh, L::shr32(hl)),
                        L::add64(L::shr32(lh), L::shr32(cross)));
    }

    /**
     * bar.reduceWide on u64 lanes z < 2^63 (m64 = floor(2^64 / q) split
     * into mLo/mHi, lo32 = 2^32 - 1 in every lane): results < q in the
     * low dwords. Scalar twin: barrettReduceWideRaw().
     */
    template <class V>
    static V barrettReduceWide(V z, V q, V mLo, V mHi, V lo32)
    {
        const V t = mulHi64(z, mLo, mHi, lo32);
        const V r = L::sub64(z, L::mulLo64(t, q));
        return L::condSubQ64(L::condSubQ64(r, q), q);
    }
};

} // namespace cross::nt::simd
