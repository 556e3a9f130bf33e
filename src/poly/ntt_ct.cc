#include "poly/ntt_ct.h"

#include "common/check.h"
#include "nt/modops.h"
#include "nt/modvec.h"
#include "poly/ntt_kernels.h"

namespace cross::poly {

namespace {

/**
 * The lazy [0, 4q) representation needs 4q to fit u32. Production
 * parameter sets use ~28-bit primes, so this is the common path; the
 * strict kernels below remain both the wide-modulus fallback and the
 * reference the lazy path must reproduce bit-for-bit.
 */
constexpr u32 kLazyModulusBound = 1u << 30;

constexpr bool
lazyEligible(u32 q)
{
    return q < kLazyModulusBound;
}

#ifndef NDEBUG
/**
 * Debug-mode range checker for the redundant representation: every
 * stage boundary must respect its invariant ([0, 4q) forward, [0, 2q)
 * inverse). Compiled out of release builds.
 */
void
checkLazyRange(const u32 *a, u32 n, u64 bound, const char *what)
{
    for (u32 j = 0; j < n; ++j)
        internalCheck(a[j] < bound, what);
}
#define CROSS_NTT_CHECK_RANGE(a, n, bound, what) \
    checkLazyRange(a, n, bound, what)
#else
#define CROSS_NTT_CHECK_RANGE(a, n, bound, what) ((void)0)
#endif

/** The original strict Cooley-Tukey kernel (values < q throughout). */
void
forwardStrict(u32 *a, const NttTables &tab)
{
    const u32 n = tab.degree();
    const u32 q = tab.modulus();
    u32 t = n;
    for (u32 m = 1; m < n; m <<= 1) {
        t >>= 1;
        for (u32 i = 0; i < m; ++i) {
            const u32 j1 = 2 * i * t;
            const u32 j2 = j1 + t;
            const nt::ShoupConst s = tab.psiBr(m + i);
            for (u32 j = j1; j < j2; ++j) {
                const u32 u = a[j];
                const u32 v = nt::shoupMul(a[j + t], s, q);
                a[j] = static_cast<u32>(nt::addMod(u, v, q));
                a[j + t] = static_cast<u32>(nt::subMod(u, v, q));
            }
        }
    }
}

/** The original strict Gentleman-Sande kernel with N^-1 scaling. */
void
inverseStrict(u32 *a, const NttTables &tab)
{
    const u32 n = tab.degree();
    const u32 q = tab.modulus();
    u32 t = 1;
    for (u32 m = n; m > 1; m >>= 1) {
        u32 j1 = 0;
        const u32 h = m >> 1;
        for (u32 i = 0; i < h; ++i) {
            const u32 j2 = j1 + t;
            const nt::ShoupConst s = tab.psiInvBr(h + i);
            for (u32 j = j1; j < j2; ++j) {
                const u32 u = a[j];
                const u32 v = a[j + t];
                a[j] = static_cast<u32>(nt::addMod(u, v, q));
                a[j + t] =
                    nt::shoupMul(static_cast<u32>(nt::subMod(u, v, q)), s, q);
            }
            j1 += 2 * t;
        }
        t <<= 1;
    }
    const auto &ninv = tab.nInv();
    for (u32 j = 0; j < n; ++j)
        a[j] = nt::shoupMul(a[j], ninv, q);
}

} // namespace

void
forwardInPlace(u32 *a, const NttTables &tab)
{
    const u32 n = tab.degree();
    const u32 q = tab.modulus();
    if (!lazyEligible(q)) {
        forwardStrict(a, tab);
        return;
    }
    // Lazy Cooley-Tukey: coefficients ride in [0, 4q) across stages,
    // each butterfly folds only its own x input to [0, 2q); the single
    // canonical reduction happens at the output. Identical residues to
    // forwardStrict, so the final fold restores the exact same bits.
    const auto &ker = detail::activeNttKernels();
    for (u32 t = n / 2; t >= 1; t >>= 1) {
        ker.fwdStage(a, n, t, tab.forwardTwiddles(), q);
        CROSS_NTT_CHECK_RANGE(a, n, 4ULL * q,
                              "NTT forward: lazy [0,4q) invariant");
    }
    ker.fold4q(a, n, q);
    CROSS_NTT_CHECK_RANGE(a, n, q, "NTT forward: canonical output");
}

void
inverseInPlace(u32 *a, const NttTables &tab)
{
    const u32 n = tab.degree();
    const u32 q = tab.modulus();
    if (!lazyEligible(q)) {
        inverseStrict(a, tab);
        return;
    }
    // Lazy Gentleman-Sande: the [0, 2q) invariant holds into and out of
    // every stage; the final N^-1 Shoup multiply accepts the lazy input
    // and emits canonical [0, q) directly.
    const auto &ker = detail::activeNttKernels();
    for (u32 t = 1; t < n; t <<= 1) {
        ker.invStage(a, n, t, tab.inverseTwiddles(), q);
        CROSS_NTT_CHECK_RANGE(a, n, 2ULL * q,
                              "NTT inverse: lazy [0,2q) invariant");
    }
    nt::mulShoupVec(a, a, tab.nInv(), n, q);
    CROSS_NTT_CHECK_RANGE(a, n, q, "NTT inverse: canonical output");
}

} // namespace cross::poly
