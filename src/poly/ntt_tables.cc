#include "poly/ntt_tables.h"

#include "common/bitops.h"
#include "common/check.h"
#include "nt/modops.h"
#include "nt/roots.h"

namespace cross::poly {

NttTables::NttTables(u32 n, u32 q) : n_(n), q_(q)
{
    requireThat(isPow2(n), "NttTables: N must be a power of two");
    requireThat(q < (1u << 31), "NttTables: need q < 2^31");
    requireThat((q - 1) % (2ULL * n) == 0,
                "NttTables: need q == 1 (mod 2N) for a 2N-th root");

    psi_ = static_cast<u32>(nt::rootOfUnity(2ULL * n, q));
    psiInv_ = static_cast<u32>(nt::invMod(psi_, q));

    const u32 bits = ilog2(n);
    twiddles_.resize(4 * size_t{n});
    const auto set = [&](size_t dir, u32 i, u64 w) {
        const nt::ShoupConst c = nt::shoupPrecompute(static_cast<u32>(w), q);
        u32 *p = twiddles_.data() + 2 * dir * n;
        p[i] = c.w;
        p[n + i] = c.wShoup;
    };
    for (u32 i = 0; i < n; ++i) {
        const u64 e = bitReverse(i, bits);
        set(0, i, nt::powMod(psi_, e, q));
        set(1, i, nt::powMod(psiInv_, e, q));
    }
    nInv_ = nt::shoupPrecompute(static_cast<u32>(nt::invMod(n, q)), q);
}

u32
NttTables::psiPow(u64 e) const
{
    return static_cast<u32>(nt::powMod(psi_, e % (2ULL * n_), q_));
}

} // namespace cross::poly
