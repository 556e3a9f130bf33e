#include "ckks/context.h"

#include <utility>

#include "common/check.h"
#include "nt/modops.h"
#include "nt/primes.h"

namespace cross::ckks {

CkksContext::CkksContext(CkksParams params) : params_(params)
{
    requireThat(params_.n >= 8 && (params_.n & (params_.n - 1)) == 0,
                "CkksContext: N must be a power of two >= 8");
    requireThat(params_.limbs >= 1, "CkksContext: need at least one limb");
    requireThat(params_.dnum >= 1 && params_.dnum <= params_.limbs,
                "CkksContext: need 1 <= dnum <= limbs");
    requireThat(params_.logq >= 20 && params_.logq <= 30,
                "CkksContext: logq must be in [20, 30] (32-bit registers)");
    requireThat(params_.auxBits > params_.logq && params_.auxBits <= 30,
                "CkksContext: auxBits must exceed logq (P > digit size)");

    const u64 step = 2ULL * params_.n;
    auto q_moduli = nt::generateNttPrimes(params_.logq, params_.limbs, step);
    auto p_moduli = nt::generateNttPrimesAvoiding(
        params_.auxBits, params_.auxCount(), step, q_moduli);
    std::vector<u64> all = q_moduli;
    all.insert(all.end(), p_moduli.begin(), p_moduli.end());
    ring_ = std::make_unique<poly::Ring>(params_.n, std::move(all));
    ks_ = std::make_unique<HybridKeySwitch>(*ring_, qCount(),
                                            p_moduli.size(), params_.dnum);

    qInvModQ_.resize(qCount());
    for (size_t l = 0; l < qCount(); ++l) {
        qInvModQ_[l].resize(l);
        for (size_t i = 0; i < l; ++i)
            qInvModQ_[l][i] =
                nt::invMod(qModulus(l) % qModulus(i), qModulus(i));
    }
}

u64
CkksContext::qInvModQ(size_t l, size_t i) const
{
    internalCheck(l < qCount() && i < l, "qInvModQ: bad indices");
    return qInvModQ_[l][i];
}

} // namespace cross::ckks
