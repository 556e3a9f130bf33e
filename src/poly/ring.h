/**
 * @file
 * The RNS polynomial ring R_Q = Z_Q[x]/(x^N + 1) in double-CRT form:
 * L limbs (one per RNS prime) x N coefficients, with per-limb NTT tables
 * and cached automorphism index maps.
 *
 * This is the substrate every HE operator in the paper decomposes into
 * (Fig. 6 "HE kernels" layer): limb-wise NTT/INTT, vectorised modular
 * arithmetic, and slot automorphisms.
 */
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "poly/ntt_ct.h"
#include "poly/ntt_tables.h"
#include "rns/basis.h"

namespace cross::poly {

/**
 * Coefficient-domain automorphism x -> x^k: target index and sign per
 * source coefficient (the x^N == -1 wraparound flips signs).
 */
struct CoeffAutoMap
{
    std::vector<u32> target; ///< destination index of source coefficient j
    std::vector<u8> negate;  ///< 1 if the coefficient is negated
};

/** Ring context: degree, RNS basis, NTT tables, automorphism caches. */
class Ring
{
  public:
    /** @param n power-of-two degree; @param moduli NTT primes == 1 mod 2n */
    Ring(u32 n, std::vector<u64> moduli);

    u32 degree() const { return n_; }
    size_t limbCount() const { return basis_.size(); }
    const rns::RnsBasis &basis() const { return basis_; }
    u64 modulus(size_t i) const { return basis_.modulus(i); }
    const NttTables &tables(size_t i) const { return tables_[i]; }

    /**
     * Coefficient-domain automorphism map for odd k (mod 2N).
     * Thread-safe: the lazy cache fill is serialised internally, so
     * parallel batch items may request the same map concurrently.
     */
    const CoeffAutoMap &coeffAutoMap(u32 k) const;

    /**
     * Evaluation-domain automorphism map for odd k: out[m] = in[map[m]]
     * in the canonical bit-reversed NTT layout. No signs -- odd powers of
     * psi map to odd powers.
     */
    const std::vector<u32> &evalAutoMap(u32 k) const;

  private:
    u32 n_;
    rns::RnsBasis basis_;
    std::vector<NttTables> tables_;
    mutable std::mutex autoCacheMutex_;
    mutable std::map<u32, CoeffAutoMap> coeffAutoCache_;
    mutable std::map<u32, std::vector<u32>> evalAutoCache_;
};

/**
 * An element of R_Q (limb-major), tagged with its domain.
 *
 * Each limb maps to a ring modulus through an explicit slot list, so a
 * polynomial may live on a non-contiguous sub-basis such as
 * {q_0..q_l} u {p_0..p_{alpha-1}} -- the extended basis hybrid
 * key-switching operates on. The default mapping is the identity prefix.
 *
 * A polynomial owns its limbs and takes every one from, and gives every
 * one back to, the calling thread's limb free list (limb_pool.h): the
 * constructors, copies, selectSlots and automorphism take; the
 * destructor, assignment, truncateLimbs and dropLastLimb give back.
 * Giving back never reads the ring, so a polynomial may outlive it.
 */
class RnsPoly
{
  public:
    RnsPoly() = default;

    /** Zero polynomial on the first @p nlimbs ring moduli. */
    RnsPoly(const Ring &ring, size_t nlimbs, bool eval_domain);

    /** Zero polynomial on an explicit list of ring modulus indices. */
    RnsPoly(const Ring &ring, std::vector<u32> slots, bool eval_domain);

    /**
     * A polynomial on @p slots whose coefficients are unspecified, for
     * a caller that writes every coefficient of every limb before it
     * reads one (the name follows std::make_unique_for_overwrite).
     */
    static RnsPoly forOverwrite(const Ring &ring, std::vector<u32> slots,
                                bool eval_domain);

    RnsPoly(const RnsPoly &o);
    RnsPoly(RnsPoly &&o) noexcept = default;
    RnsPoly &operator=(const RnsPoly &o);
    RnsPoly &operator=(RnsPoly &&o) noexcept;
    ~RnsPoly();

    const Ring &ring() const { return *ring_; }
    size_t limbCount() const { return limbs_.size(); }
    bool isEval() const { return eval_; }
    u32 degree() const { return n_; }

    /** Ring modulus index of limb @p i. */
    u32 slot(size_t i) const { return slots_[i]; }
    const std::vector<u32> &slots() const { return slots_; }

    /** Modulus of limb @p i. */
    u64 limbModulus(size_t i) const { return ring_->modulus(slots_[i]); }

    std::vector<u32> &limb(size_t i) { return limbs_[i]; }
    const std::vector<u32> &limb(size_t i) const { return limbs_[i]; }

    /**
     * Extract the limbs whose ring modulus indices are @p ring_idx (in
     * that order); throws if one is absent.
     */
    RnsPoly selectSlots(const std::vector<u32> &ring_idx) const;

    /** @name Sampling (deterministic via the caller's Rng). @{ */
    static RnsPoly uniform(const Ring &ring, size_t nlimbs, bool eval,
                           Rng &rng);
    /** Ternary secret in {-1,0,1}, encoded per limb. Coefficient domain. */
    static RnsPoly ternary(const Ring &ring, size_t nlimbs, Rng &rng);
    /** Discrete-Gaussian error (stddev sigma), coefficient domain. */
    static RnsPoly gaussian(const Ring &ring, size_t nlimbs, Rng &rng,
                            double sigma = 3.2);
    /** @} */

    /** @name In-place limb-wise arithmetic (same domain required). @{ */
    void addInPlace(const RnsPoly &o);
    void subInPlace(const RnsPoly &o);
    void negateInPlace();
    /** Entry-wise product; both operands must be in eval domain. */
    void mulPointwiseInPlace(const RnsPoly &o);
    /** Multiply limb i by scalar s_i mod q_i. */
    void mulScalarPerLimbInPlace(const std::vector<u64> &scalars);
    /** Multiply every limb by the same integer constant (reduced per limb). */
    void mulConstantInPlace(u64 c);
    /** @} */

    /** Forward NTT on all limbs (coeff -> eval). */
    void toEval();
    /** Inverse NTT on all limbs (eval -> coeff). */
    void toCoeff();

    /** Apply the automorphism x -> x^k in the current domain. */
    RnsPoly automorphism(u32 k) const;

    /** Drop the last limb (rescale/moddown bookkeeping). */
    void dropLastLimb();

    /** Keep only the first @p n limbs. */
    void truncateLimbs(size_t n);

    bool operator==(const RnsPoly &o) const;

  private:
    /** Validate @p slots and take one limb per slot, zeroed if @p zero. */
    RnsPoly(const Ring &ring, std::vector<u32> slots, bool eval_domain,
            bool zero);

    /** Take one limb per slot from the free list. */
    void takeLimbs(bool zero);
    /** Give limbs [n, limbCount()) back to the free list. */
    void releaseLimbsFrom(size_t n);

    const Ring *ring_ = nullptr;
    u32 n_ = 0; ///< ring degree, kept so giving limbs back needs no ring
    bool eval_ = false;
    std::vector<u32> slots_;
    std::vector<std::vector<u32>> limbs_;
};

// The schoolbook / Karatsuba negacyclic reference multiplies moved to
// tests/test_refs.h: they are ground truth for tests, not product code.

} // namespace cross::poly
