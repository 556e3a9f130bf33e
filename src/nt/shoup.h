/**
 * @file
 * Shoup modular multiplication: when one operand w is known ahead of time
 * (twiddle factors, constant multipliers), precompute the 32-bit factor
 * w' = floor(w * 2^32 / q) and reduce with one 32 x 32 high product
 * (Harvey, "Faster arithmetic for number-theoretic transforms", 2014).
 * For any u32 a, floor(a * w' / 2^32) is floor(a * w / q) or one less,
 * so a * w minus that multiple of q lies in [0, 2q); with q < 2^31 that
 * fits u32, and wrapping u32 arithmetic computes it exactly.
 *
 * Every host kernel uses this form: the NTT stages (scalar and vector),
 * mulShoupVec and their callers. The paper's Fig. 13 ablation prices
 * Shoup with a 64-bit factor, which loses to Montgomery on a TPU's
 * 32-bit VPU; the simulator costs that form (cross/lowering.cc), not
 * this one.
 */
#pragma once

#include "common/check.h"
#include "common/types.h"

namespace cross::nt {

/** Precomputed Shoup factor for constant operand @p w modulo @p q. */
struct ShoupConst
{
    u32 w;      ///< the constant operand, < q
    u32 wShoup; ///< floor(w * 2^32 / q)
};

/** Build the precomputation; requires w < q < 2^31. */
inline ShoupConst
shoupPrecompute(u32 w, u32 q)
{
    requireThat(q < (1u << 31), "shoupPrecompute: need q < 2^31");
    requireThat(w < q, "shoupPrecompute: operand must be < q");
    return {w, static_cast<u32>((static_cast<u64>(w) << 32) / q)};
}

/** (a * w) mod q lazily, in [0, 2q), for any u32 @p a. */
inline u32
shoupMulLazy(u32 a, const ShoupConst &c, u32 q)
{
    const u32 hi = static_cast<u32>((static_cast<u64>(c.wShoup) * a) >> 32);
    return a * c.w - hi * q;
}

/** (a * w) mod q in [0, q), for any u32 @p a (lazy input included). */
inline u32
shoupMul(u32 a, const ShoupConst &c, u32 q)
{
    const u32 r = shoupMulLazy(a, c, q);
    return r >= q ? r - q : r;
}

} // namespace cross::nt
