#include "poly/ntt_tables.h"

#include "common/bitops.h"
#include "common/check.h"
#include "nt/modops.h"
#include "nt/roots.h"

namespace cross::poly {

NttTables::NttTables(u32 n, u32 q) : n_(n), q_(q)
{
    requireThat(isPow2(n), "NttTables: N must be a power of two");
    requireThat((q - 1) % (2ULL * n) == 0,
                "NttTables: need q == 1 (mod 2N) for a 2N-th root");

    psi_ = static_cast<u32>(nt::rootOfUnity(2ULL * n, q));
    psiInv_ = static_cast<u32>(nt::invMod(psi_, q));

    const u32 bits = ilog2(n);
    for (ShoupTwiddles *tw : {&psiBr_, &psiInvBr_})
        for (std::vector<u32> *v : {&tw->w, &tw->shoupLo, &tw->shoupHi})
            v->resize(n);
    const auto set = [q](ShoupTwiddles &tw, u32 i, u64 w) {
        const nt::ShoupConst c = nt::shoupPrecompute(static_cast<u32>(w), q);
        tw.w[i] = c.w;
        tw.shoupLo[i] = static_cast<u32>(c.wShoup);
        tw.shoupHi[i] = static_cast<u32>(c.wShoup >> 32);
    };
    for (u32 i = 0; i < n; ++i) {
        const u64 e = bitReverse(i, bits);
        set(psiBr_, i, nt::powMod(psi_, e, q));
        set(psiInvBr_, i, nt::powMod(psiInv_, e, q));
    }
    nInv_ = nt::shoupPrecompute(static_cast<u32>(nt::invMod(n, q)), q);
}

u32
NttTables::psiPow(u64 e) const
{
    return static_cast<u32>(nt::powMod(psi_, e % (2ULL * n_), q_));
}

} // namespace cross::poly
