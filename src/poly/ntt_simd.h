/**
 * @file
 * The vector stage kernels of the lazy-reduction NTT, written once over
 * an NTT lanes type N: a lanes type of nt/simd_lanes.h that also
 * provides the short-span permutes, as a member template Span<T> for
 * every span T below one vector (kU32 lanes):
 *  - Span<T>() loads whatever index vectors the permutes need, once
 *    per stage;
 *  - split(v0, v1, x, y) separates 2 * kU32 coefficients of span-T
 *    blocks into the blocks' x halves and y halves, and merge(x, y,
 *    v0, v1) is its inverse;
 *  - twiddles(p) loads the kU32 / T twiddles of one chunk's blocks
 *    from p (exactly those entries, so no chunk reads past the end of
 *    the table) and spreads them to split's lane order.
 * Each ISA's TU (ntt_simd_avx2.cc, ntt_simd_avx512.cc) defines its
 * Span and lists the instantiations in its NttKernels table.
 *
 * The lanes mirror the scalar helpers in ntt_kernels.h bit for bit:
 * the conditional folds become unsigned-min selects and the Shoup
 * multiply is LaneOps::shoupMulLazy. A span t of at least one
 * vector runs each block as whole vectors under the block's broadcast
 * twiddle; a shorter span runs on two vectors (kU32 / T blocks) at a
 * time through Span<t>; a degree below two vectors runs the scalar
 * stage.
 */
#pragma once

#include <cstddef>

#include "common/types.h"
#include "poly/ntt_kernels.h"

namespace cross::poly::detail::simd {

/** One twiddle per u32 lane: w and its Shoup factor. */
template <class N>
struct LaneTwiddles
{
    typename N::V w, ws;
};

/**
 * The stage of span t over n coefficients when t is below one vector
 * (T walks 1, 2, 4, ... up to kU32 / 2); false when t is not. w and ws
 * point at the stage's first twiddle.
 */
template <class N, u32 T, class Butterfly>
bool
shortSpanStage(u32 *a, u32 n, u32 t, const u32 *w, const u32 *ws,
               Butterfly bfly)
{
    using V = typename N::V;
    if constexpr (T >= N::kU32) {
        return false;
    } else {
        if (t != T)
            return shortSpanStage<N, 2 * T>(a, n, t, w, ws, bfly);
        const typename N::template Span<T> span;
        for (u32 k = 0; k < n; k += 2 * N::kU32) {
            V x, y;
            span.split(N::load(a + k), N::load(a + k + N::kU32), x, y);
            const u32 b = k / (2 * T); // the chunk's first block
            bfly(x, y,
                 LaneTwiddles<N>{span.twiddles(w + b), span.twiddles(ws + b)});
            V v0, v1;
            span.merge(x, y, v0, v1);
            N::store(a + k, v0);
            N::store(a + k + N::kU32, v1);
        }
        return true;
    }
}

/** One stage of span t over n >= 2 * kU32 coefficients. */
template <class N, class Butterfly>
void
stage(u32 *a, u32 n, u32 t, const ShoupTwiddles &tw, Butterfly bfly)
{
    using V = typename N::V;
    const u32 m = n / (2 * t);
    const u32 *w = tw.w + m;
    const u32 *ws = tw.wShoup + m;
    if (shortSpanStage<N, 1>(a, n, t, w, ws, bfly))
        return;
    for (u32 i = 0; i < m; ++i) {
        const LaneTwiddles<N> c{N::set1(w[i]), N::set1(ws[i])};
        u32 *x = a + 2 * i * t;
        for (u32 j = 0; j < t; j += N::kU32) {
            V xv = N::load(x + j);
            V yv = N::load(x + t + j);
            bfly(xv, yv, c);
            N::store(x + j, xv);
            N::store(x + t + j, yv);
        }
    }
}

template <class N>
void
fwdStage(u32 *a, u32 n, u32 t, const ShoupTwiddles &tw, u32 q)
{
    using V = typename N::V;
    if (n < 2 * N::kU32) {
        nttKernelsScalar().fwdStage(a, n, t, tw, q);
        return;
    }
    const V qV = N::set1(q);
    const V twoQV = N::set1(2 * q);
    // fwdButterflyLazyOne on every lane.
    stage<N>(a, n, t, tw, [=](V &x, V &y, const LaneTwiddles<N> &c) {
        const V u = N::fold2q(x, twoQV);
        const V v = N::shoupMulLazy(y, c.w, c.ws, qV);
        x = N::add32(u, v);
        y = N::sub32(N::add32(u, twoQV), v);
    });
}

template <class N>
void
invStage(u32 *a, u32 n, u32 t, const ShoupTwiddles &tw, u32 q)
{
    using V = typename N::V;
    if (n < 2 * N::kU32) {
        nttKernelsScalar().invStage(a, n, t, tw, q);
        return;
    }
    const V qV = N::set1(q);
    const V twoQV = N::set1(2 * q);
    // invButterflyLazyOne on every lane.
    stage<N>(a, n, t, tw, [=](V &x, V &y, const LaneTwiddles<N> &c) {
        const V s = N::add32(x, y);
        const V d = N::sub32(N::add32(x, twoQV), y);
        x = N::fold2q(s, twoQV);
        y = N::shoupMulLazy(d, c.w, c.ws, qV);
    });
}

/** fold4qOne on every lane; the tail runs the scalar kernel. */
template <class N>
void
fold4q(u32 *a, size_t len, u32 q)
{
    using V = typename N::V;
    const V qV = N::set1(q);
    const V twoQV = N::set1(2 * q);
    size_t j = 0;
    for (; j + N::kU32 <= len; j += N::kU32)
        N::store(a + j, N::fold2q(N::fold2q(N::load(a + j), twoQV), qV));
    if (j < len)
        nttKernelsScalar().fold4q(a + j, len - j, q);
}

} // namespace cross::poly::detail::simd
