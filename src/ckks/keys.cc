#include "ckks/keys.h"

namespace cross::ckks {

using poly::RnsPoly;

KeyGenerator::KeyGenerator(const CkksContext &ctx, u64 seed)
    : ctx_(ctx), rng_(seed)
{
    const size_t full = ctx_.qCount() + ctx_.hybridKeySwitch().pCount();
    sk_.s = RnsPoly::ternary(ctx_.ring(), full, rng_);
    sk_.s.toEval();
}

PublicKey
KeyGenerator::publicKey()
{
    const size_t l = ctx_.qCount();
    PublicKey pk;
    pk.a = RnsPoly::uniform(ctx_.ring(), l, true, rng_);
    RnsPoly e = RnsPoly::gaussian(ctx_.ring(), l, rng_, ctx_.params().sigma);
    e.toEval();
    RnsPoly s_l = sk_.s;
    s_l.truncateLimbs(l);
    // b = -a*s + e
    pk.b = pk.a;
    pk.b.mulPointwiseInPlace(s_l);
    pk.b.negateInPlace();
    pk.b.addInPlace(e);
    return pk;
}

SwitchKey
KeyGenerator::switchKeyFor(const RnsPoly &s_src)
{
    return ctx_.hybridKeySwitch().switchKeyFor(sk_.s, s_src, rng_,
                                               ctx_.params().sigma);
}

SwitchKey
KeyGenerator::relinKey()
{
    RnsPoly s2 = sk_.s;
    s2.mulPointwiseInPlace(sk_.s);
    return switchKeyFor(s2);
}

SwitchKey
KeyGenerator::rotationKey(u32 auto_idx)
{
    return switchKeyFor(sk_.s.automorphism(auto_idx));
}

} // namespace cross::ckks
