/**
 * @file
 * Key material and the key generator.
 *
 * Switching keys follow hybrid key switching with dnum digits [37]; the
 * context's HybridKeySwitch generates them (hybrid_keyswitch.h).
 * Relinearisation uses s_src = s^2, rotation keys use s_src = tau_k(s).
 *
 * Sampling is deterministic from the generator's seed -- reproducible
 * research keys, not production randomness (see README).
 */
#pragma once

#include <map>
#include <vector>

#include "ckks/context.h"
#include "common/rng.h"
#include "poly/ring.h"

namespace cross::ckks {

/** Ternary secret over the full Q u P basis, eval domain. */
struct SecretKey
{
    poly::RnsPoly s;
};

/** Encryption key (b, a) with b = -a*s + e over the L q-limbs. */
struct PublicKey
{
    poly::RnsPoly b;
    poly::RnsPoly a;
};

/** Generates secret/public/relinearisation/rotation keys. */
class KeyGenerator
{
  public:
    KeyGenerator(const CkksContext &ctx, u64 seed = 0x5eedULL);

    const SecretKey &secretKey() const { return sk_; }
    PublicKey publicKey();

    /** Relinearisation key (targets s^2). */
    SwitchKey relinKey();

    /** Switching key from an arbitrary source secret to s. */
    SwitchKey switchKeyFor(const poly::RnsPoly &s_src);

    /** Rotation key for Galois element @p auto_idx (targets tau_k(s)). */
    SwitchKey rotationKey(u32 auto_idx);

  private:
    const CkksContext &ctx_;
    Rng rng_;
    SecretKey sk_;
};

} // namespace cross::ckks
