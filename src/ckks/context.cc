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

    // P mod q_i and its inverse.
    pModQ_.resize(qCount());
    pInvModQ_.resize(qCount());
    for (size_t i = 0; i < qCount(); ++i) {
        u64 p_mod = 1;
        for (size_t j = 0; j < pCount(); ++j)
            p_mod = nt::mulMod(p_mod, pModulus(j) % qModulus(i),
                               qModulus(i));
        pModQ_[i] = p_mod;
        pInvModQ_[i] = nt::invMod(p_mod, qModulus(i));
    }

    qInvModQ_.resize(qCount());
    for (size_t l = 0; l < qCount(); ++l) {
        qInvModQ_[l].resize(l);
        for (size_t i = 0; i < l; ++i)
            qInvModQ_[l][i] =
                nt::invMod(qModulus(l) % qModulus(i), qModulus(i));
    }

    // ModUp of digit j at level l: the digit's moduli to the rest of
    // q_0..q_l and P. ModDown at level l: P to q_0..q_l.
    const rns::RnsBasis p_basis(p_moduli);
    const auto q = q_moduli.begin();
    for (size_t l = 0; l < qCount(); ++l) {
        modDownConv_.emplace_back(
            p_basis, rns::RnsBasis(std::vector<u64>(q, q + l + 1)));
        auto &ups = modUpConv_.emplace_back();
        for (size_t j = 0; j < activeDigits(l); ++j) {
            const auto [first, last] = digitRange(j, l);
            std::vector<u64> to(q, q + first);
            to.insert(to.end(), q + last, q + l + 1);
            to.insert(to.end(), p_moduli.begin(), p_moduli.end());
            ups.emplace_back(
                rns::RnsBasis(std::vector<u64>(q + first, q + last)),
                rns::RnsBasis(std::move(to)));
        }
    }
}

u64
CkksContext::qInvModQ(size_t l, size_t i) const
{
    internalCheck(l < qCount() && i < l, "qInvModQ: bad indices");
    return qInvModQ_[l][i];
}

std::pair<size_t, size_t>
CkksContext::digitRange(size_t j, size_t level) const
{
    const size_t alpha = params_.alpha();
    const size_t first = j * alpha;
    const size_t last = std::min(first + alpha, level + 1);
    internalCheck(first < last, "digitRange: empty digit");
    return {first, last};
}

size_t
CkksContext::activeDigits(size_t level) const
{
    return (level + params_.alpha()) / params_.alpha();
}

std::vector<u32>
CkksContext::extendedSlots(size_t level) const
{
    std::vector<u32> s;
    s.reserve(level + 1 + pCount());
    for (size_t i = 0; i <= level; ++i)
        s.push_back(static_cast<u32>(i));
    for (size_t j = 0; j < pCount(); ++j)
        s.push_back(pSlot(j));
    return s;
}

const rns::BasisConversion &
CkksContext::modUpConv(size_t j, size_t level) const
{
    return modUpConv_.at(level).at(j);
}

const rns::BasisConversion &
CkksContext::modDownConv(size_t level) const
{
    return modDownConv_.at(level);
}

} // namespace cross::ckks
