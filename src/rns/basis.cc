#include "rns/basis.h"

#include <numeric>

#include "common/check.h"
#include "nt/modops.h"

namespace cross::rns {

RnsBasis::RnsBasis(std::vector<u64> moduli) : moduli_(std::move(moduli))
{
    requireThat(!moduli_.empty(), "RnsBasis: need at least one modulus");
    mont_.reserve(moduli_.size());
    barrett_.reserve(moduli_.size());
    for (u64 q : moduli_) {
        requireThat(q > 1 && q < (1ULL << 31) && (q & 1),
                    "RnsBasis: moduli must be odd and < 2^31");
        mont_.emplace_back(static_cast<u32>(q));
        barrett_.emplace_back(static_cast<u32>(q));
    }
    // Pairwise coprimality (we use primes, but verify the contract).
    for (size_t i = 0; i < moduli_.size(); ++i) {
        for (size_t j = i + 1; j < moduli_.size(); ++j) {
            requireThat(std::gcd(moduli_[i], moduli_[j]) == 1,
                        "RnsBasis: moduli must be pairwise coprime");
        }
    }

    bigQ_ = nt::BigUInt::product(moduli_);
    qHat_.reserve(moduli_.size());
    qHatInv_.reserve(moduli_.size());
    for (size_t i = 0; i < moduli_.size(); ++i) {
        u64 rem = 0;
        qHat_.push_back(bigQ_.divmodSmall(moduli_[i], rem));
        internalCheck(rem == 0, "RnsBasis: Q not divisible by q_i");
        const u64 qhat_mod_qi = qHat_[i].modSmall(moduli_[i]);
        qHatInv_.push_back(nt::invMod(qhat_mod_qi, moduli_[i]));
    }
}

u64
RnsBasis::qHatMod(size_t i, u64 p) const
{
    return qHat_[i].modSmall(p);
}

u64
RnsBasis::bigModulusMod(u64 p) const
{
    return bigQ_.modSmall(p);
}

std::vector<u64>
RnsBasis::decompose(const nt::BigUInt &x) const
{
    std::vector<u64> r(moduli_.size());
    for (size_t i = 0; i < moduli_.size(); ++i)
        r[i] = x.modSmall(moduli_[i]);
    return r;
}

nt::BigUInt
RnsBasis::compose(const std::vector<u64> &residues) const
{
    requireThat(residues.size() == moduli_.size(),
                "RnsBasis::compose: residue count mismatch");
    nt::BigUInt acc;
    for (size_t i = 0; i < moduli_.size(); ++i) {
        // x_i * qHatInv_i mod q_i, then times Q/q_i.
        u64 yi = nt::mulMod(residues[i] % moduli_[i], qHatInv_[i],
                            moduli_[i]);
        acc = acc + qHat_[i] * yi;
    }
    return acc.mod(bigQ_);
}

RnsBasis
RnsBasis::subBasis(size_t first, size_t count) const
{
    requireThat(first + count <= moduli_.size(),
                "RnsBasis::subBasis: range out of bounds");
    return RnsBasis(std::vector<u64>(moduli_.begin() + first,
                                     moduli_.begin() + first + count));
}

RnsBasis
RnsBasis::concat(const RnsBasis &other) const
{
    std::vector<u64> m = moduli_;
    m.insert(m.end(), other.moduli_.begin(), other.moduli_.end());
    return RnsBasis(std::move(m));
}

} // namespace cross::rns
