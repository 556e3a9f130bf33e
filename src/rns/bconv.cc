#include "rns/bconv.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/check.h"
#include "nt/modvec.h"

namespace cross::rns {

BasisConversion::BasisConversion(const RnsBasis &from, const RnsBasis &to)
    : from_(from), to_(to)
{
    table_.resize(from_.size());
    for (size_t i = 0; i < from_.size(); ++i) {
        table_[i].resize(to_.size());
        for (size_t j = 0; j < to_.size(); ++j) {
            table_[i][j] =
                static_cast<u32>(from_.qHatMod(i, to_.modulus(j)));
        }
    }
    qHatInvShoup_.reserve(from_.size());
    for (size_t i = 0; i < from_.size(); ++i) {
        qHatInvShoup_.push_back(nt::shoupPrecompute(
            static_cast<u32>(from_.qHatInv(i)),
            static_cast<u32>(from_.modulus(i))));
    }

    // How many b_i * table products fit in a u64 accumulator.
    u32 from_bits = 0, to_bits = 0;
    for (u64 q : from_.moduli())
        from_bits = std::max(from_bits, ilog2(q) + 1);
    for (u64 p : to_.moduli())
        to_bits = std::max(to_bits, ilog2(p) + 1);
    const u32 slack = 63 - (from_bits + to_bits);
    reduceEvery_ = std::max<size_t>(1, size_t{1} << std::min(slack, 20u));
}

void
BasisConversion::step1(const LimbMatrix &in, LimbMatrix &out) const
{
    requireThat(in.size() == from_.size(), "BConv step1: limb count");
    out.resize(in.size());
    const size_t n_coef = in.empty() ? 0 : in[0].size();
    for (size_t i = 0; i < in.size(); ++i) {
        requireThat(in[i].size() == n_coef, "BConv step1: ragged limbs");
        out[i].resize(n_coef);
        nt::mulShoupVec(out[i].data(), in[i].data(), qHatInvShoup_[i],
                        n_coef, static_cast<u32>(from_.modulus(i)));
    }
}

void
BasisConversion::step2(const LimbMatrix &b, LimbMatrix &out) const
{
    requireThat(b.size() == from_.size(), "BConv step2: limb count");
    const size_t n_coef = b.empty() ? 0 : b[0].size();
    for (const auto &limb : b)
        requireThat(limb.size() == n_coef, "BConv step2: ragged limbs");
    out.assign(to_.size(), std::vector<u32>(n_coef, 0));

    // The (N, L, L') MatModMul, one target limb j at a time: accumulate
    // the whole limb through the dispatched vector lanes, folding the
    // u64 accumulator every reduceEvery_ source limbs.
    std::vector<u64> acc(n_coef);
    for (size_t j = 0; j < to_.size(); ++j) {
        const auto &bar = to_.barrett(j);
        std::fill(acc.begin(), acc.end(), 0);
        size_t window = 0;
        for (size_t i = 0; i < from_.size(); ++i) {
            nt::accumMulVec(acc.data(), b[i].data(), table_[i][j], n_coef);
            if (++window == reduceEvery_) {
                nt::reduceWideInPlaceVec(acc.data(), n_coef, bar);
                window = 0;
            }
        }
        nt::reduceWideVec(out[j].data(), acc.data(), n_coef, bar);
    }
}

void
BasisConversion::apply(const LimbMatrix &in, LimbMatrix &out) const
{
    LimbMatrix b;
    step1(in, b);
    step2(b, out);
}

} // namespace cross::rns
