#include "rns/bconv.h"

#include <algorithm>
#include <memory>

#include "common/check.h"
#include "nt/modvec.h"

namespace cross::rns {

BasisConversion::BasisConversion(const RnsBasis &from, const RnsBasis &to)
    : from_(from), to_(to)
{
    const u64 from_max =
        *std::max_element(from_.moduli().begin(), from_.moduli().end());
    weights_.resize(to_.size() * from_.size());
    for (size_t j = 0; j < to_.size(); ++j) {
        const u64 p = to_.modulus(j);
        for (size_t i = 0; i < from_.size(); ++i)
            weights_[j * from_.size() + i] =
                static_cast<u32>(from_.qHatMod(i, p));
        // Step 1's outputs are below their q_i, the weights below p_j.
        budget_.push_back(nt::lazySumBudget(static_cast<u32>(p),
                                            (from_max - 1) * (p - 1)));
    }
    qHatInvShoup_.reserve(from_.size());
    for (size_t i = 0; i < from_.size(); ++i) {
        qHatInvShoup_.push_back(nt::shoupPrecompute(
            static_cast<u32>(from_.qHatInv(i)),
            static_cast<u32>(from_.modulus(i))));
    }
}

namespace {

/**
 * Coefficients per block of convert: one block's step-1 outputs stay
 * in L1 while step 2 reads them once per target limb, and the scratch
 * stays a few KiB whatever the degree.
 */
constexpr size_t kBlock = 512;

/** Pointers to the limbs of @p m, each checked to hold @p n entries. */
std::vector<const u32 *>
limbPointers(const LimbMatrix &m, size_t n, const char *ragged)
{
    std::vector<const u32 *> ptrs;
    ptrs.reserve(m.size());
    for (const auto &limb : m) {
        requireThat(limb.size() == n, ragged);
        ptrs.push_back(limb.data());
    }
    return ptrs;
}

/**
 * Shape @p m as @p rows limbs of @p n entries and return pointers to
 * them. A matrix that already has that shape keeps its storage as is:
 * the caller overwrites every entry.
 */
std::vector<u32 *>
shapeLimbs(LimbMatrix &m, size_t rows, size_t n)
{
    m.resize(rows);
    std::vector<u32 *> ptrs;
    ptrs.reserve(rows);
    for (auto &limb : m) {
        limb.resize(n);
        ptrs.push_back(limb.data());
    }
    return ptrs;
}

} // namespace

void
BasisConversion::scaleLimbs(const u32 *const *in, u32 *const *b,
                            size_t n) const
{
    for (size_t i = 0; i < from_.size(); ++i)
        nt::mulShoupVec(b[i], in[i], qHatInvShoup_[i], n,
                        static_cast<u32>(from_.modulus(i)));
}

void
BasisConversion::accumulateLimbs(const u32 *const *b, u32 *const *out,
                                 size_t n) const
{
    // The (N, L, L') MatModMul, one target limb j at a time: each
    // coefficient's L products sum in registers and reduce once.
    const size_t k = from_.size();
    for (size_t j = 0; j < to_.size(); ++j)
        nt::bconvDotVec(out[j], b, weights_.data() + j * k, k, n,
                        budget_[j], to_.mont(j));
}

void
BasisConversion::convert(const u32 *const *in, u32 *const *out,
                         size_t n) const
{
    // Both steps one coefficient block at a time; every coefficient's
    // sum is independent of the others, so the result does not depend
    // on the blocking.
    const size_t k = from_.size();
    const size_t block = std::min(n, kBlock);
    const auto b_store = std::make_unique_for_overwrite<u32[]>(k * block);
    std::vector<u32 *> b(k);
    for (size_t i = 0; i < k; ++i)
        b[i] = b_store.get() + i * block;
    std::vector<const u32 *> src(k);
    std::vector<u32 *> dst(to_.size());
    for (size_t off = 0; off < n; off += block) {
        const size_t len = std::min(block, n - off);
        for (size_t i = 0; i < k; ++i)
            src[i] = in[i] + off;
        for (size_t j = 0; j < to_.size(); ++j)
            dst[j] = out[j] + off;
        scaleLimbs(src.data(), b.data(), len);
        accumulateLimbs(b.data(), dst.data(), len);
    }
}

void
BasisConversion::step1(const LimbMatrix &in, LimbMatrix &out) const
{
    requireThat(in.size() == from_.size(), "BConv step1: limb count");
    const size_t n = in.empty() ? 0 : in[0].size();
    const auto src = limbPointers(in, n, "BConv step1: ragged limbs");
    scaleLimbs(src.data(), shapeLimbs(out, in.size(), n).data(), n);
}

void
BasisConversion::step2(const LimbMatrix &b, LimbMatrix &out) const
{
    requireThat(b.size() == from_.size(), "BConv step2: limb count");
    const size_t n = b.empty() ? 0 : b[0].size();
    const auto src = limbPointers(b, n, "BConv step2: ragged limbs");
    accumulateLimbs(src.data(), shapeLimbs(out, to_.size(), n).data(), n);
}

void
BasisConversion::apply(const LimbMatrix &in, LimbMatrix &out) const
{
    requireThat(in.size() == from_.size(), "BConv step1: limb count");
    const size_t n = in.empty() ? 0 : in[0].size();
    const auto src = limbPointers(in, n, "BConv step1: ragged limbs");
    convert(src.data(), shapeLimbs(out, to_.size(), n).data(), n);
}

} // namespace cross::rns
