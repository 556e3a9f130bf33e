/**
 * @file
 * BFV: the second HE scheme of the paper's appendix profiling (Fig. 14
 * includes "(BFV) Rotation" and "(BFV) Mult. & Relin." rows).
 *
 * Scale-invariant (BFV) encryption over the same substrate as CKKS: the
 * message m in R_t is carried as Delta*m with Delta = floor(Q/t), so
 * decryption rounds t*(c0 + c1 s)/Q. The expensive operator mix is the
 * same kernel family the paper accelerates -- (I)NTT, BConv, VecMod* --
 * plus BFV multiplication's basis extension and scale-down.
 *
 * Implementation notes (documented substitutions, not shortcuts in the
 * kernel schedule):
 *  - Multiplication extends both ciphertexts from basis Q to Q u B via
 *    the production BConv kernels, tensors in the evaluation domain,
 *    and scales the result by t/Q exactly per coefficient with BigUInt
 *    (a reference implementation of the BEHZ/HPS scale-down; the RNS
 *    kernels around it are the ones the profiling measures).
 *  - Relinearisation / rotation run the hybrid key switch CKKS runs
 *    (ckks/hybrid_keyswitch.h) at alpha = 1, dnum = L and P = 1: per-limb
 *    RNS gadget digits, no auxiliary modulus, and ModDown skipped. A
 *    switching key is its key's top-level precomp.
 *  - Batching encodes Z_t^N via an NTT modulo t (t == 1 mod 2N).
 */
#pragma once

#include <memory>
#include <vector>

#include "ckks/hybrid_keyswitch.h"
#include "ckks/kernel_log.h"
#include "common/rng.h"
#include "nt/bigint.h"
#include "poly/ring.h"
#include "rns/bconv.h"

namespace cross::bfv {

/** BFV parameters. */
struct BfvParams
{
    u32 n = 1 << 10;      ///< ring degree
    u32 logq = 28;        ///< RNS prime width
    size_t limbs = 4;     ///< ciphertext modulus limb count
    u32 logt = 16;        ///< plaintext modulus width (t == 1 mod 2N)
    double sigma = 3.2;

    static BfvParams testSet(u32 n = 1 << 10, size_t limbs = 4,
                             u32 logt = 16);
};

/** Scheme context: Q basis, extension basis B, plaintext NTT tables. */
class BfvContext
{
  public:
    explicit BfvContext(BfvParams params);

    const BfvParams &params() const { return params_; }
    u32 degree() const { return params_.n; }
    size_t qCount() const { return params_.limbs; }

    /** Ring over Q u B (limbs 0..L-1 = Q, the rest = B). */
    const poly::Ring &ring() const { return *ring_; }
    /** Extension-basis limb count (used by multiplication). */
    size_t bCount() const { return bCount_; }

    u32 plainModulus() const { return t_; }
    const poly::NttTables &plainTables() const { return *plainTables_; }

    const nt::BigUInt &bigQ() const { return bigQ_; }
    /** [Delta]_{q_i} = [floor(Q/t)]_{q_i}. */
    u64 deltaModQ(size_t i) const { return deltaModQ_[i]; }

    /** Q -> B conversion (multiplication ModUp). */
    const rns::BasisConversion &qToB() const { return *qToB_; }

    /** The hybrid key switch over Q alone: alpha = 1, dnum = L, P = 1
     *  (built with the context; a one-limb Q has nothing to convert, so
     *  its key switch is rejected). */
    const ckks::HybridKeySwitch &hybridKeySwitch() const { return *ks_; }

    /** The Q-basis as an RnsBasis (for CRT composition). */
    const rns::RnsBasis &qBasis() const { return qBasis_; }
    /** The full Q u B basis. */
    const rns::RnsBasis &qbBasis() const { return qbBasis_; }

  private:
    BfvParams params_;
    u32 t_;
    size_t bCount_;
    std::unique_ptr<poly::Ring> ring_;
    std::unique_ptr<poly::NttTables> plainTables_;
    nt::BigUInt bigQ_;
    std::vector<u64> deltaModQ_;
    rns::RnsBasis qBasis_;
    rns::RnsBasis qbBasis_;
    std::unique_ptr<rns::BasisConversion> qToB_;
    std::unique_ptr<ckks::HybridKeySwitch> ks_;
};

/** Plaintext: slot values in Z_t. */
struct BfvPlaintext
{
    std::vector<u32> coeffs; ///< polynomial coefficients mod t
};

/** Ciphertext (c0, c1) over the Q basis, eval domain. */
struct BfvCiphertext
{
    poly::RnsPoly c0;
    poly::RnsPoly c1;
};

/** Batching encoder: Z_t^N <-> R_t via the NTT modulo t. */
class BfvEncoder
{
  public:
    explicit BfvEncoder(const BfvContext &ctx) : ctx_(ctx) {}

    /** Encode up to N values of Z_t into plaintext slots. */
    BfvPlaintext encode(const std::vector<u64> &values) const;
    /** Decode a plaintext back to N slot values. */
    std::vector<u64> decode(const BfvPlaintext &pt) const;

  private:
    const BfvContext &ctx_;
};

/** Secret/public key material and the switching keys. */
struct BfvSecretKey
{
    poly::RnsPoly s; ///< full Q u B basis, eval domain
};

struct BfvPublicKey
{
    poly::RnsPoly b, a; ///< Q basis, eval domain
};

/** Per-limb RNS gadget switching key (dnum = L), held as its top-level
 *  precomp: one (b_i, a_i) pair per q limb, over Q. */
using BfvSwitchKey = ckks::KeySwitchPrecomp;

class BfvKeyGenerator
{
  public:
    BfvKeyGenerator(const BfvContext &ctx, u64 seed = 0xbf5ULL);

    const BfvSecretKey &secretKey() const { return sk_; }
    BfvPublicKey publicKey();
    BfvSwitchKey relinKey();
    BfvSwitchKey rotationKey(u32 auto_idx);

  private:
    BfvSwitchKey switchKeyFor(const poly::RnsPoly &s_src);

    const BfvContext &ctx_;
    Rng rng_;
    BfvSecretKey sk_;
};

/** Encrypt / decrypt / evaluate. */
class BfvEvaluator
{
  public:
    BfvEvaluator(const BfvContext &ctx, ckks::KernelLog *log = nullptr)
        : ctx_(ctx), log_(log)
    {
    }

    BfvCiphertext encrypt(const BfvPlaintext &pt, const BfvPublicKey &pk,
                          Rng &rng) const;
    BfvPlaintext decrypt(const BfvCiphertext &ct,
                         const BfvSecretKey &sk) const;

    BfvCiphertext add(const BfvCiphertext &a, const BfvCiphertext &b) const;
    /** Full BFV multiplication: ModUp, tensor, scale by t/Q, relin. */
    BfvCiphertext multiply(const BfvCiphertext &a, const BfvCiphertext &b,
                           const BfvSwitchKey &rlk) const;
    /** Slot rotation: automorphism, then the per-limb key switch. */
    BfvCiphertext rotate(const BfvCiphertext &ct, u32 auto_idx,
                         const BfvSwitchKey &key) const;

  private:
    void logCall(ckks::KernelKind kind, u32 limbs, u32 limbs_out,
                 double seconds) const;

    const BfvContext &ctx_;
    ckks::KernelLog *log_;
};

} // namespace cross::bfv
