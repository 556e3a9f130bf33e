#include "poly/ring.h"

#include <cmath>

#include "common/bitops.h"
#include "common/check.h"
#include "nt/modops.h"
#include "nt/modvec.h"
#include "poly/limb_pool.h"
#include "poly/ntt_ct.h"

namespace cross::poly {

Ring::Ring(u32 n, std::vector<u64> moduli)
    : n_(n), basis_(std::move(moduli))
{
    requireThat(isPow2(n_) && n_ >= 4, "Ring: degree must be a power of 2");
    tables_.reserve(basis_.size());
    for (size_t i = 0; i < basis_.size(); ++i)
        tables_.emplace_back(n_, static_cast<u32>(basis_.modulus(i)));
}

const CoeffAutoMap &
Ring::coeffAutoMap(u32 k) const
{
    // Map nodes are address-stable, so the returned reference outlives
    // the lock; only the lookup/fill needs serialising.
    std::lock_guard<std::mutex> lock(autoCacheMutex_);
    auto it = coeffAutoCache_.find(k);
    if (it != coeffAutoCache_.end())
        return it->second;
    requireThat(k % 2 == 1, "automorphism index must be odd");
    CoeffAutoMap m;
    m.target.resize(n_);
    m.negate.resize(n_);
    const u64 two_n = 2ULL * n_;
    for (u32 j = 0; j < n_; ++j) {
        const u64 e = (static_cast<u64>(j) * k) % two_n;
        if (e < n_) {
            m.target[j] = static_cast<u32>(e);
            m.negate[j] = 0;
        } else {
            m.target[j] = static_cast<u32>(e - n_);
            m.negate[j] = 1;
        }
    }
    return coeffAutoCache_.emplace(k, std::move(m)).first->second;
}

const std::vector<u32> &
Ring::evalAutoMap(u32 k) const
{
    std::lock_guard<std::mutex> lock(autoCacheMutex_);
    auto it = evalAutoCache_.find(k);
    if (it != evalAutoCache_.end())
        return it->second;
    requireThat(k % 2 == 1, "automorphism index must be odd");
    const u32 bits = ilog2(n_);
    const u64 two_n = 2ULL * n_;
    std::vector<u32> map(n_);
    for (u32 m = 0; m < n_; ++m) {
        // Canonical layout: slot m holds a(psi^(2*bitrev(m)+1)).
        const u64 j = bitReverse(m, bits);
        const u64 e = ((2 * j + 1) * k) % two_n; // odd
        const u64 j_src = (e - 1) / 2;           // < N
        map[m] = static_cast<u32>(bitReverse(j_src, bits));
    }
    return evalAutoCache_.emplace(k, std::move(map)).first->second;
}

namespace {

/** Slots 0..nlimbs-1, the identity prefix of the ring's moduli. */
std::vector<u32>
prefixSlots(const Ring &ring, size_t nlimbs)
{
    requireThat(nlimbs >= 1 && nlimbs <= ring.limbCount(),
                "RnsPoly: limb count out of range");
    std::vector<u32> slots(nlimbs);
    for (size_t i = 0; i < nlimbs; ++i)
        slots[i] = static_cast<u32>(i);
    return slots;
}

} // namespace

RnsPoly::RnsPoly(const Ring &ring, size_t nlimbs, bool eval_domain)
    : RnsPoly(ring, prefixSlots(ring, nlimbs), eval_domain, true)
{
}

RnsPoly::RnsPoly(const Ring &ring, std::vector<u32> slots, bool eval_domain)
    : RnsPoly(ring, std::move(slots), eval_domain, true)
{
}

RnsPoly::RnsPoly(const Ring &ring, std::vector<u32> slots, bool eval_domain,
                 bool zero)
    : ring_(&ring), n_(ring.degree()), eval_(eval_domain),
      slots_(std::move(slots))
{
    requireThat(!slots_.empty(), "RnsPoly: need at least one limb");
    for (u32 s : slots_)
        requireThat(s < ring.limbCount(), "RnsPoly: slot out of range");
    takeLimbs(zero);
}

RnsPoly
RnsPoly::forOverwrite(const Ring &ring, std::vector<u32> slots,
                      bool eval_domain)
{
    return RnsPoly(ring, std::move(slots), eval_domain, false);
}

RnsPoly::RnsPoly(const RnsPoly &o)
    : ring_(o.ring_), n_(o.n_), eval_(o.eval_), slots_(o.slots_)
{
    takeLimbs(false);
    for (size_t i = 0; i < limbs_.size(); ++i)
        limbs_[i] = o.limbs_[i];
}

RnsPoly &
RnsPoly::operator=(const RnsPoly &o)
{
    if (this != &o)
        *this = RnsPoly(o);
    return *this;
}

RnsPoly &
RnsPoly::operator=(RnsPoly &&o) noexcept
{
    if (this != &o) {
        releaseLimbsFrom(0);
        ring_ = o.ring_;
        n_ = o.n_;
        eval_ = o.eval_;
        slots_ = std::move(o.slots_);
        limbs_ = std::move(o.limbs_);
    }
    return *this;
}

RnsPoly::~RnsPoly() { releaseLimbsFrom(0); }

void
RnsPoly::takeLimbs(bool zero)
{
    limbs_.reserve(slots_.size());
    for (size_t i = 0; i < slots_.size(); ++i)
        limbs_.push_back(takeLimb(n_, zero));
}

void
RnsPoly::releaseLimbsFrom(size_t n)
{
    for (size_t i = n; i < limbs_.size(); ++i)
        releaseLimb(std::move(limbs_[i]), n_);
    limbs_.resize(n);
}

RnsPoly
RnsPoly::selectSlots(const std::vector<u32> &ring_idx) const
{
    RnsPoly out = forOverwrite(*ring_, ring_idx, eval_);
    for (size_t i = 0; i < ring_idx.size(); ++i) {
        bool found = false;
        for (size_t j = 0; j < slots_.size(); ++j) {
            if (slots_[j] == ring_idx[i]) {
                out.limbs_[i] = limbs_[j];
                found = true;
                break;
            }
        }
        requireThat(found, "selectSlots: requested modulus not present");
    }
    return out;
}

RnsPoly
RnsPoly::uniform(const Ring &ring, size_t nlimbs, bool eval, Rng &rng)
{
    RnsPoly p(ring, nlimbs, eval);
    for (size_t i = 0; i < nlimbs; ++i) {
        const u64 q = p.limbModulus(i);
        for (auto &x : p.limbs_[i])
            x = static_cast<u32>(rng.uniform(q));
    }
    return p;
}

RnsPoly
RnsPoly::ternary(const Ring &ring, size_t nlimbs, Rng &rng)
{
    RnsPoly p(ring, nlimbs, false);
    std::vector<i64> raw(ring.degree());
    for (auto &x : raw) {
        const u64 t = rng.uniform(3);
        x = t == 2 ? -1 : static_cast<i64>(t);
    }
    for (size_t i = 0; i < nlimbs; ++i) {
        const u64 q = p.limbModulus(i);
        for (u32 j = 0; j < ring.degree(); ++j) {
            p.limbs_[i][j] = static_cast<u32>(
                raw[j] < 0 ? q + static_cast<u64>(raw[j]) : raw[j]);
        }
    }
    return p;
}

RnsPoly
RnsPoly::gaussian(const Ring &ring, size_t nlimbs, Rng &rng, double sigma)
{
    RnsPoly p(ring, nlimbs, false);
    std::vector<i64> raw(ring.degree());
    for (auto &x : raw)
        x = static_cast<i64>(std::llround(rng.gaussian(sigma)));
    for (size_t i = 0; i < nlimbs; ++i) {
        const u64 q = p.limbModulus(i);
        for (u32 j = 0; j < ring.degree(); ++j) {
            i64 v = raw[j] % static_cast<i64>(q);
            if (v < 0)
                v += q;
            p.limbs_[i][j] = static_cast<u32>(v);
        }
    }
    return p;
}

void
RnsPoly::addInPlace(const RnsPoly &o)
{
    internalCheck(eval_ == o.eval_ && limbs_.size() <= o.limbs_.size(),
                  "RnsPoly::add: domain/limb mismatch");
    for (size_t i = 0; i < limbs_.size(); ++i)
        internalCheck(slots_[i] == o.slots_[i], "RnsPoly::add: slots");
    for (size_t i = 0; i < limbs_.size(); ++i)
        nt::addModVec(limbs_[i].data(), limbs_[i].data(),
                      o.limbs_[i].data(), ring_->degree(),
                      static_cast<u32>(limbModulus(i)));
}

void
RnsPoly::subInPlace(const RnsPoly &o)
{
    internalCheck(eval_ == o.eval_ && limbs_.size() <= o.limbs_.size(),
                  "RnsPoly::sub: domain/limb mismatch");
    for (size_t i = 0; i < limbs_.size(); ++i)
        internalCheck(slots_[i] == o.slots_[i], "RnsPoly::sub: slots");
    for (size_t i = 0; i < limbs_.size(); ++i)
        nt::subModVec(limbs_[i].data(), limbs_[i].data(),
                      o.limbs_[i].data(), ring_->degree(),
                      static_cast<u32>(limbModulus(i)));
}

void
RnsPoly::negateInPlace()
{
    for (size_t i = 0; i < limbs_.size(); ++i)
        nt::negModVec(limbs_[i].data(), limbs_[i].data(), ring_->degree(),
                      static_cast<u32>(limbModulus(i)));
}

void
RnsPoly::mulPointwiseInPlace(const RnsPoly &o)
{
    internalCheck(eval_ && o.eval_, "mulPointwise: both must be in eval");
    internalCheck(limbs_.size() <= o.limbs_.size(),
                  "mulPointwise: limb mismatch");
    for (size_t i = 0; i < limbs_.size(); ++i)
        internalCheck(slots_[i] == o.slots_[i], "mulPointwise: slots");
    for (size_t i = 0; i < limbs_.size(); ++i)
        nt::mulMontVec(limbs_[i].data(), limbs_[i].data(),
                       o.limbs_[i].data(), ring_->degree(),
                       ring_->basis().mont(slots_[i]));
}

void
RnsPoly::mulScalarPerLimbInPlace(const std::vector<u64> &scalars)
{
    internalCheck(scalars.size() >= limbs_.size(),
                  "mulScalarPerLimb: scalar count");
    for (size_t i = 0; i < limbs_.size(); ++i) {
        const u32 q = static_cast<u32>(limbModulus(i));
        nt::mulShoupVec(
            limbs_[i].data(), limbs_[i].data(),
            nt::shoupPrecompute(static_cast<u32>(scalars[i] % q), q),
            ring_->degree(), q);
    }
}

void
RnsPoly::mulConstantInPlace(u64 c)
{
    std::vector<u64> scalars(limbs_.size());
    for (size_t i = 0; i < limbs_.size(); ++i)
        scalars[i] = c % limbModulus(i);
    mulScalarPerLimbInPlace(scalars);
}

void
RnsPoly::toEval()
{
    internalCheck(!eval_, "toEval: already in eval domain");
    for (size_t i = 0; i < limbs_.size(); ++i)
        forwardInPlace(limbs_[i].data(), ring_->tables(slots_[i]));
    eval_ = true;
}

void
RnsPoly::toCoeff()
{
    internalCheck(eval_, "toCoeff: already in coeff domain");
    for (size_t i = 0; i < limbs_.size(); ++i)
        inverseInPlace(limbs_[i].data(), ring_->tables(slots_[i]));
    eval_ = false;
}

RnsPoly
RnsPoly::automorphism(u32 k) const
{
    RnsPoly out = forOverwrite(*ring_, slots_, eval_);
    const u32 n = n_;
    if (eval_) {
        const auto &map = ring_->evalAutoMap(k);
        for (size_t i = 0; i < limbs_.size(); ++i)
            for (u32 m = 0; m < n; ++m)
                out.limbs_[i][m] = limbs_[i][map[m]];
    } else {
        const auto &map = ring_->coeffAutoMap(k);
        for (size_t i = 0; i < limbs_.size(); ++i) {
            const u64 q = limbModulus(i);
            for (u32 j = 0; j < n; ++j) {
                const u32 v = limbs_[i][j];
                out.limbs_[i][map.target[j]] = map.negate[j]
                    ? static_cast<u32>(nt::negMod(v, q))
                    : v;
            }
        }
    }
    return out;
}

void
RnsPoly::dropLastLimb()
{
    internalCheck(limbs_.size() > 1, "dropLastLimb: would empty the poly");
    releaseLimbsFrom(limbs_.size() - 1);
    slots_.pop_back();
}

void
RnsPoly::truncateLimbs(size_t n)
{
    internalCheck(n >= 1 && n <= limbs_.size(), "truncateLimbs: bad count");
    releaseLimbsFrom(n);
    slots_.resize(n);
}

bool
RnsPoly::operator==(const RnsPoly &o) const
{
    return ring_ == o.ring_ && eval_ == o.eval_ && slots_ == o.slots_ &&
        limbs_ == o.limbs_;
}

} // namespace cross::poly
