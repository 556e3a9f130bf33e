#include "test_refs.h"

#include "common/check.h"
#include "common/rng.h"
#include "nt/modops.h"
#include "poly/ntt_ct.h"

namespace cross::testref {

std::vector<u32>
negacyclicMulSchoolbook(const std::vector<u32> &a, const std::vector<u32> &b,
                        u64 q)
{
    const size_t n = a.size();
    internalCheck(b.size() == n, "schoolbook: size mismatch");
    std::vector<u32> z(n, 0);
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
            const u64 p = nt::mulMod(a[i], b[j], q);
            const size_t k = i + j;
            if (k < n)
                z[k] = static_cast<u32>(nt::addMod(z[k], p, q));
            else
                z[k - n] = static_cast<u32>(nt::subMod(z[k - n], p, q));
        }
    }
    return z;
}

namespace {

/**
 * Full product (degree < 2n-1, length 2n, top entry zero) of a and b
 * mod q. Karatsuba recursion over halves; schoolbook below a threshold
 * and for odd lengths.
 */
std::vector<u64>
mulFullMod(const u64 *a, const u64 *b, size_t n, u64 q)
{
    std::vector<u64> out(2 * n, 0);
    if (n <= 32 || n % 2 != 0) {
        for (size_t i = 0; i < n; ++i)
            for (size_t j = 0; j < n; ++j)
                out[i + j] =
                    nt::addMod(out[i + j], nt::mulMod(a[i], b[j], q), q);
        return out;
    }
    const size_t h = n / 2;
    // a = a0 + x^h a1, b = b0 + x^h b1:
    //   a*b = z0 + x^h (z1 - z0 - z2) + x^2h z2
    // with z0 = a0*b0, z2 = a1*b1, z1 = (a0+a1)*(b0+b1).
    const auto z0 = mulFullMod(a, b, h, q);
    const auto z2 = mulFullMod(a + h, b + h, h, q);
    std::vector<u64> sa(h), sb(h);
    for (size_t i = 0; i < h; ++i) {
        sa[i] = nt::addMod(a[i], a[h + i], q);
        sb[i] = nt::addMod(b[i], b[h + i], q);
    }
    auto z1 = mulFullMod(sa.data(), sb.data(), h, q);
    for (size_t i = 0; i < 2 * h; ++i)
        z1[i] = nt::subMod(nt::subMod(z1[i], z0[i], q), z2[i], q);
    for (size_t i = 0; i < 2 * h; ++i) {
        out[i] = nt::addMod(out[i], z0[i], q);
        out[h + i] = nt::addMod(out[h + i], z1[i], q);
        out[2 * h + i] = nt::addMod(out[2 * h + i], z2[i], q);
    }
    return out;
}

} // namespace

std::vector<u32>
negacyclicMulKaratsuba(const std::vector<u32> &a, const std::vector<u32> &b,
                       u64 q)
{
    const size_t n = a.size();
    internalCheck(b.size() == n, "karatsuba: size mismatch");
    std::vector<u64> wa(n), wb(n);
    for (size_t i = 0; i < n; ++i) {
        wa[i] = a[i];
        wb[i] = b[i];
    }
    const auto full = mulFullMod(wa.data(), wb.data(), n, q);
    // Fold x^n == -1: z[k] = full[k] - full[k + n].
    std::vector<u32> z(n);
    for (size_t k = 0; k < n; ++k)
        z[k] = static_cast<u32>(nt::subMod(full[k], full[k + n], q));
    return z;
}

std::vector<u32>
randomPoly(u32 n, u64 q, u64 seed)
{
    Rng rng(seed);
    std::vector<u32> a(n);
    for (auto &x : a)
        x = static_cast<u32>(rng.uniform(q));
    return a;
}

std::pair<poly::RnsPoly, poly::RnsPoly>
textbookKeySwitch(const ckks::HybridKeySwitch &ks, const poly::RnsPoly &c,
                  const ckks::KeySwitchPrecomp &pre, u32 auto_idx)
{
    using poly::RnsPoly;
    const auto &ring = c.ring();
    const size_t level = c.limbCount() - 1;
    RnsPoly c_coeff = c;
    c_coeff.toCoeff();

    RnsPoly acc0(ring, pre.extSlots, true);
    RnsPoly acc1(ring, pre.extSlots, true);
    for (size_t j = 0; j < ks.activeDigits(level); ++j) {
        const auto [first, last] = ks.digitRange(j, level);
        rns::LimbMatrix in;
        for (size_t i = first; i < last; ++i)
            in.push_back(c_coeff.limb(i));
        rns::LimbMatrix converted;
        ks.modUpConv(j, level).apply(in, converted);
        RnsPoly up(ring, pre.extSlots, true);
        size_t k = 0;
        for (size_t pos = 0; pos < pre.extSlots.size(); ++pos) {
            const u32 slot = pre.extSlots[pos];
            if (slot >= first && slot < last) {
                up.limb(pos) = c.limb(slot);
            } else {
                up.limb(pos) = converted[k++];
                poly::forwardInPlace(up.limb(pos).data(), ring.tables(slot));
            }
        }
        const RnsPoly digit = up.automorphism(auto_idx);
        RnsPoly p0 = digit;
        p0.mulPointwiseInPlace(pre.keys[j].first);
        acc0.addInPlace(p0);
        RnsPoly p1 = digit;
        p1.mulPointwiseInPlace(pre.keys[j].second);
        acc1.addInPlace(p1);
    }
    if (ks.pCount() == 0)
        return {std::move(acc0), std::move(acc1)};

    const auto mod_down = [&](const RnsPoly &acc) {
        rns::LimbMatrix p_part;
        for (size_t jj = 0; jj < ks.pCount(); ++jj) {
            p_part.push_back(acc.limb(level + 1 + jj));
            poly::inverseInPlace(p_part.back().data(),
                                 ring.tables(ks.pSlot(jj)));
        }
        rns::LimbMatrix converted;
        ks.modDownConv(level).apply(p_part, converted);
        RnsPoly conv(ring, level + 1, true);
        RnsPoly res(ring, level + 1, true);
        std::vector<u64> p_inv;
        for (size_t i = 0; i <= level; ++i) {
            conv.limb(i) = converted[i];
            poly::forwardInPlace(conv.limb(i).data(), ring.tables(i));
            res.limb(i) = acc.limb(i);
            p_inv.push_back(ks.pInvModQ(i));
        }
        res.subInPlace(conv);
        res.mulScalarPerLimbInPlace(p_inv);
        return res;
    };
    return {mod_down(acc0), mod_down(acc1)};
}

} // namespace cross::testref
