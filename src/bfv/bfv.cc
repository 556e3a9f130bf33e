#include "bfv/bfv.h"

#include "common/bitops.h"
#include "common/check.h"
#include "common/timer.h"
#include "nt/modops.h"
#include "nt/primes.h"
#include "poly/ntt_ct.h"

namespace cross::bfv {

using ckks::KernelKind;
using nt::BigUInt;
using poly::RnsPoly;

BfvParams
BfvParams::testSet(u32 n, size_t limbs, u32 logt)
{
    BfvParams p;
    p.n = n;
    p.limbs = limbs;
    p.logt = logt;
    return p;
}

BfvContext::BfvContext(BfvParams params)
    : params_(params), qBasis_({3}), qbBasis_({3}) // replaced below
{
    requireThat(isPow2(params_.n) && params_.n >= 8,
                "BfvContext: N must be a power of two >= 8");
    requireThat(params_.logt >= 4 && params_.logt < params_.logq,
                "BfvContext: need t << q");

    const u64 step = 2ULL * params_.n;
    auto q_moduli = nt::generateNttPrimes(params_.logq, params_.limbs, step);
    // Extension basis B with Q*B > 2*N*Q^2: one extra limb covers
    // log2(2N) <= 17 < logq; one more for margin.
    bCount_ = params_.limbs + 2;
    auto b_moduli = nt::generateNttPrimesAvoiding(params_.logq + 1, bCount_,
                                                  step, q_moduli);
    t_ = static_cast<u32>(
        nt::generateNttPrimesAvoiding(params_.logt, 1, step, q_moduli)[0]);

    std::vector<u64> all = q_moduli;
    all.insert(all.end(), b_moduli.begin(), b_moduli.end());
    ring_ = std::make_unique<poly::Ring>(params_.n, all);
    plainTables_ = std::make_unique<poly::NttTables>(params_.n, t_);

    qBasis_ = rns::RnsBasis(q_moduli);
    qbBasis_ = rns::RnsBasis(all);
    bigQ_ = qBasis_.bigModulus();

    // Delta = floor(Q / t), reduced per q limb.
    u64 rem = 0;
    const BigUInt delta = bigQ_.divmodSmall(t_, rem);
    deltaModQ_.resize(params_.limbs);
    for (size_t i = 0; i < params_.limbs; ++i)
        deltaModQ_[i] = delta.modSmall(q_moduli[i]);

    qToB_ = std::make_unique<rns::BasisConversion>(qBasis_,
                                                   rns::RnsBasis(b_moduli));
    ks_ = std::make_unique<ckks::HybridKeySwitch>(*ring_, params_.limbs, 0,
                                                  params_.limbs);
}

BfvPlaintext
BfvEncoder::encode(const std::vector<u64> &values) const
{
    const u32 n = ctx_.degree();
    requireThat(values.size() <= n, "BfvEncoder: too many values");
    BfvPlaintext pt;
    pt.coeffs.resize(n, 0);
    const u32 t = ctx_.plainModulus();
    for (size_t i = 0; i < values.size(); ++i)
        pt.coeffs[i] = static_cast<u32>(values[i] % t);
    // Slots -> coefficients: inverse NTT modulo t.
    poly::inverseInPlace(pt.coeffs.data(), ctx_.plainTables());
    return pt;
}

std::vector<u64>
BfvEncoder::decode(const BfvPlaintext &pt) const
{
    std::vector<u32> coeffs = pt.coeffs;
    poly::forwardInPlace(coeffs.data(), ctx_.plainTables());
    return {coeffs.begin(), coeffs.end()};
}

BfvKeyGenerator::BfvKeyGenerator(const BfvContext &ctx, u64 seed)
    : ctx_(ctx), rng_(seed)
{
    const size_t full = ctx_.qCount() + ctx_.bCount();
    sk_.s = RnsPoly::ternary(ctx_.ring(), full, rng_);
    sk_.s.toEval();
}

BfvPublicKey
BfvKeyGenerator::publicKey()
{
    const size_t l = ctx_.qCount();
    BfvPublicKey pk;
    pk.a = RnsPoly::uniform(ctx_.ring(), l, true, rng_);
    RnsPoly e =
        RnsPoly::gaussian(ctx_.ring(), l, rng_, ctx_.params().sigma);
    e.toEval();
    RnsPoly s_l = sk_.s;
    s_l.truncateLimbs(l);
    pk.b = pk.a;
    pk.b.mulPointwiseInPlace(s_l);
    pk.b.negateInPlace();
    pk.b.addInPlace(e);
    return pk;
}

BfvSwitchKey
BfvKeyGenerator::switchKeyFor(const RnsPoly &s_src)
{
    const auto &ks = ctx_.hybridKeySwitch();
    return ks.precompute(
        ks.switchKeyFor(sk_.s, s_src, rng_, ctx_.params().sigma),
        ctx_.qCount() - 1);
}

BfvSwitchKey
BfvKeyGenerator::relinKey()
{
    RnsPoly s2 = sk_.s;
    s2.mulPointwiseInPlace(sk_.s);
    return switchKeyFor(s2);
}

BfvSwitchKey
BfvKeyGenerator::rotationKey(u32 auto_idx)
{
    return switchKeyFor(sk_.s.automorphism(auto_idx));
}

void
BfvEvaluator::logCall(KernelKind kind, u32 limbs, u32 limbs_out,
                      double seconds) const
{
    if (log_)
        log_->add(kind, ctx_.degree(), limbs, limbs_out, seconds);
}

BfvCiphertext
BfvEvaluator::encrypt(const BfvPlaintext &pt, const BfvPublicKey &pk,
                      Rng &rng) const
{
    const size_t l = ctx_.qCount();
    RnsPoly v = RnsPoly::ternary(ctx_.ring(), l, rng);
    v.toEval();
    RnsPoly e0 = RnsPoly::gaussian(ctx_.ring(), l, rng,
                                   ctx_.params().sigma);
    e0.toEval();
    RnsPoly e1 = RnsPoly::gaussian(ctx_.ring(), l, rng,
                                   ctx_.params().sigma);
    e1.toEval();

    // Delta * m lifted to RNS, eval domain.
    RnsPoly dm(ctx_.ring(), l, false);
    for (size_t i = 0; i < l; ++i) {
        const u64 q = ctx_.ring().modulus(i);
        const u64 d = ctx_.deltaModQ(i);
        for (u32 j = 0; j < ctx_.degree(); ++j)
            dm.limb(i)[j] =
                static_cast<u32>(nt::mulMod(pt.coeffs[j] % q, d, q));
    }
    dm.toEval();

    BfvCiphertext ct;
    ct.c0 = pk.b;
    ct.c0.mulPointwiseInPlace(v);
    ct.c0.addInPlace(e0);
    ct.c0.addInPlace(dm);
    ct.c1 = pk.a;
    ct.c1.mulPointwiseInPlace(v);
    ct.c1.addInPlace(e1);
    return ct;
}

BfvPlaintext
BfvEvaluator::decrypt(const BfvCiphertext &ct, const BfvSecretKey &sk) const
{
    const size_t l = ct.c0.limbCount();
    RnsPoly s = sk.s;
    s.truncateLimbs(l);
    RnsPoly w = ct.c1;
    w.mulPointwiseInPlace(s);
    w.addInPlace(ct.c0);
    w.toCoeff();

    // m = round(t * w / Q) mod t, exactly per coefficient.
    const auto &basis = ctx_.qBasis();
    const u32 t = ctx_.plainModulus();
    BfvPlaintext pt;
    pt.coeffs.resize(ctx_.degree());
    std::vector<u64> residues(l);
    for (u32 j = 0; j < ctx_.degree(); ++j) {
        for (size_t i = 0; i < l; ++i)
            residues[i] = w.limb(i)[j];
        const BigUInt x = basis.compose(residues);
        const BigUInt y = (x * t).divRound(ctx_.bigQ());
        pt.coeffs[j] = static_cast<u32>(y.modSmall(t));
    }
    return pt;
}

BfvCiphertext
BfvEvaluator::add(const BfvCiphertext &a, const BfvCiphertext &b) const
{
    WallTimer timer;
    BfvCiphertext r = a;
    r.c0.addInPlace(b.c0);
    r.c1.addInPlace(b.c1);
    logCall(KernelKind::VecModAdd,
            static_cast<u32>(2 * a.c0.limbCount()), 0, timer.seconds());
    return r;
}

namespace {

/** Extend a Q-basis eval poly to the full Q u B basis (BFV ModUp). */
RnsPoly
modUpToQb(const BfvContext &ctx, const RnsPoly &c, ckks::KernelLog *log)
{
    const size_t l = ctx.qCount();
    const size_t full = l + ctx.bCount();
    const u32 n = ctx.degree();

    WallTimer ti;
    RnsPoly coeff = c;
    coeff.toCoeff();
    if (log)
        log->add(KernelKind::Intt, n, static_cast<u32>(l), 0, ti.seconds());

    // The conversion writes the B limbs of up directly.
    RnsPoly up(ctx.ring(), full, true);
    std::vector<const u32 *> in(l);
    std::vector<u32 *> out(ctx.bCount());
    for (size_t i = 0; i < l; ++i)
        in[i] = coeff.limb(i).data();
    for (size_t j = 0; j < ctx.bCount(); ++j)
        out[j] = up.limb(l + j).data();
    WallTimer tb;
    ctx.qToB().convert(in.data(), out.data(), n);
    if (log)
        log->add(KernelKind::BConv, n, static_cast<u32>(l),
                 static_cast<u32>(ctx.bCount()), tb.seconds());

    WallTimer tn;
    for (size_t i = 0; i < l; ++i)
        up.limb(i) = c.limb(i); // already in eval domain
    for (size_t j = 0; j < ctx.bCount(); ++j)
        poly::forwardInPlace(out[j], ctx.ring().tables(l + j));
    if (log)
        log->add(KernelKind::Ntt, n, static_cast<u32>(ctx.bCount()), 0,
                 tn.seconds());
    return up;
}

} // namespace

BfvCiphertext
BfvEvaluator::multiply(const BfvCiphertext &a, const BfvCiphertext &b,
                       const BfvSwitchKey &rlk) const
{
    const size_t l = ctx_.qCount();
    const size_t full = l + ctx_.bCount();
    const u32 n = ctx_.degree();

    // ModUp all four components to Q u B, then tensor in eval domain:
    // (d0, d1, d2). The extended operands die with the block.
    RnsPoly d0, d1, d2;
    {
        const RnsPoly a0 = modUpToQb(ctx_, a.c0, log_);
        const RnsPoly a1 = modUpToQb(ctx_, a.c1, log_);
        const RnsPoly b0 = modUpToQb(ctx_, b.c0, log_);
        const RnsPoly b1 = modUpToQb(ctx_, b.c1, log_);
        WallTimer tm;
        d0 = a0;
        d0.mulPointwiseInPlace(b0);
        d2 = a1;
        d2.mulPointwiseInPlace(b1);
        d1 = a0;
        d1.mulPointwiseInPlace(b1);
        RnsPoly d1b = a1;
        d1b.mulPointwiseInPlace(b0);
        logCall(KernelKind::VecModMul, static_cast<u32>(4 * full), 0,
                tm.seconds());
        WallTimer ta;
        d1.addInPlace(d1b);
        logCall(KernelKind::VecModAdd, static_cast<u32>(full), 0,
                ta.seconds());
    }

    // Scale by t/Q: exact reference implementation over the composed
    // integers (the RNS flow around it is what the kernels measure).
    WallTimer ts;
    RnsPoly *tensor[3] = {&d0, &d1, &d2};
    RnsPoly scaled[3] = {RnsPoly(ctx_.ring(), l, false),
                         RnsPoly(ctx_.ring(), l, false),
                         RnsPoly(ctx_.ring(), l, false)};
    const auto &qb = ctx_.qbBasis();
    const BigUInt &big_qb = qb.bigModulus();
    const u32 t = ctx_.plainModulus();
    for (int comp = 0; comp < 3; ++comp) {
        tensor[comp]->toCoeff();
        std::vector<u64> residues(full);
        for (u32 j = 0; j < n; ++j) {
            for (size_t i = 0; i < full; ++i)
                residues[i] = tensor[comp]->limb(i)[j];
            BigUInt x = qb.compose(residues);
            // Center modulo Q*B, scale, round.
            const bool neg = (x + x).compare(big_qb) > 0;
            if (neg)
                x = big_qb - x;
            const BigUInt y = (x * t).divRound(ctx_.bigQ());
            for (size_t i = 0; i < l; ++i) {
                const u64 q = ctx_.ring().modulus(i);
                const u64 r = y.modSmall(q);
                scaled[comp].limb(i)[j] =
                    static_cast<u32>(neg ? nt::negMod(r, q) : r);
            }
        }
    }
    logCall(KernelKind::BConv, static_cast<u32>(3 * full),
            static_cast<u32>(3 * l), ts.seconds());

    WallTimer tn;
    for (auto &p : scaled)
        p.toEval();
    logCall(KernelKind::Ntt, static_cast<u32>(3 * l), 0, tn.seconds());

    // Relinearise d2 back onto (c0, c1).
    auto [k0, k1] =
        ctx_.hybridKeySwitch().keySwitch(std::move(scaled[2]), rlk, log_);
    WallTimer tadd;
    BfvCiphertext out;
    out.c0 = std::move(scaled[0]);
    out.c0.addInPlace(k0);
    out.c1 = std::move(scaled[1]);
    out.c1.addInPlace(k1);
    logCall(KernelKind::VecModAdd, static_cast<u32>(2 * l), 0,
            tadd.seconds());
    return out;
}

BfvCiphertext
BfvEvaluator::rotate(const BfvCiphertext &ct, u32 auto_idx,
                     const BfvSwitchKey &key) const
{
    // Automorphism first, then the key switch: the approximate BConv
    // does not commute with the automorphism's coefficient sign flips,
    // so CKKS's hoisted form (switch, then gather) gives other bits.
    WallTimer t;
    RnsPoly r0 = ct.c0.automorphism(auto_idx);
    RnsPoly r1 = ct.c1.automorphism(auto_idx);
    logCall(KernelKind::Automorphism,
            static_cast<u32>(2 * ct.c0.limbCount()), 0, t.seconds());
    auto [k0, k1] =
        ctx_.hybridKeySwitch().keySwitch(std::move(r1), key, log_);
    WallTimer ta;
    BfvCiphertext out;
    out.c0 = std::move(r0);
    out.c0.addInPlace(k0);
    out.c1 = std::move(k1);
    logCall(KernelKind::VecModAdd, static_cast<u32>(ct.c0.limbCount()), 0,
            ta.seconds());
    return out;
}

} // namespace cross::bfv
