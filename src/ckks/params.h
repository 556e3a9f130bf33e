/**
 * @file
 * CKKS parameter sets.
 *
 * The paper's configurations (Table IV): chains of equal-width NTT primes
 * with log2 q = 28 so each coefficient fits a 32-bit TPU register, plus an
 * auxiliary basis for hybrid key switching with dnum digits (Section V-A,
 * "Security Parameter Selection"). Sets A-D:
 *
 *   Set A: N = 2^12, log2 Q = 109  (4 limbs)
 *   Set B: N = 2^13, log2 Q = 218  (8 limbs)
 *   Set C: N = 2^14, log2 Q = 438  (15 limbs)
 *   Set D: N = 2^16, log2 Q = 1904 (51 limbs)   -- the default
 */
#pragma once

#include <cstddef>
#include <string>

#include "common/types.h"

namespace cross::ckks {

/** Scheme parameters; validated by CkksContext. */
struct CkksParams
{
    u32 n = 1 << 12;        ///< ring degree (power of two)
    u32 logq = 28;          ///< bit width of every RNS prime
    size_t limbs = 4;       ///< L: number of q_i primes
    u32 dnum = 3;           ///< key-switching digit count
    u32 scaleBits = 24;     ///< default encoding scale = 2^scaleBits
    double sigma = 3.2;     ///< error stddev
    u32 auxBits = 29;       ///< bit width of key-switching primes

    /** alpha: limbs per key-switching digit. */
    size_t alpha() const { return (limbs + dnum - 1) / dnum; }

    /** Number of auxiliary primes (|P| basis). */
    size_t auxCount() const { return alpha(); }

    /** Table IV paper sets 'A'..'D'. */
    static CkksParams paperSet(char set);

    /** Small parameters for fast unit tests. */
    static CkksParams testSet(u32 n = 1 << 10, size_t limbs = 4,
                              u32 dnum = 2);

    /**
     * Double rescaling (Section V-A): map a requested wide-modulus chain
     * (e.g. L levels of 59-bit primes, as FIDESlib/FAB report) onto
     * 32-bit-register-friendly sub-moduli by splitting every level into
     * ceil(wideLogq / logq) primes of logq bits. One logical rescale is
     * then limbs / levels successive rescales (CkksEvaluator::rescale
     * calls, graph nodes or pipeline stages), each dropping one limb.
     *
     * @param levels    levels of the wide chain
     * @param wide_logq wide prime width the baseline used (> 31 allowed)
     * @return params with limbs = levels * ceil(wide_logq / logq)
     */
    static CkksParams doubleRescaled(u32 n, size_t levels, u32 wide_logq,
                                     u32 dnum = 3);

    std::string describe() const;
};

} // namespace cross::ckks
