/**
 * @file
 * Shared reference implementations for the test suites.
 *
 * Ground-truth code that multiple suites compare against lives here --
 * not in the product library -- so the `cross` library ships no
 * test-only code and every suite checks against the *same* reference.
 * Used by poly_test, crossntt_test, the BAT property tests and (the
 * textbook key switch) hoisting_test and bfv_test.
 */
#pragma once

#include <utility>
#include <vector>

#include "ckks/hybrid_keyswitch.h"
#include "common/types.h"

namespace cross::testref {

/**
 * Reference negacyclic product of two coefficient vectors mod q
 * (schoolbook O(N^2)); ground truth for every NTT-based multiply.
 */
std::vector<u32> negacyclicMulSchoolbook(const std::vector<u32> &a,
                                         const std::vector<u32> &b, u64 q);

/**
 * Reference negacyclic product via Karatsuba (O(N^1.585)); bit-identical
 * to negacyclicMulSchoolbook but fast enough to serve as ground truth at
 * N >= 4096, where schoolbook's 16M+ modmuls per call dominate test time.
 */
std::vector<u32> negacyclicMulKaratsuba(const std::vector<u32> &a,
                                        const std::vector<u32> &b, u64 q);

/** Deterministic uniform coefficient vector in [0, q)^n. */
std::vector<u32> randomPoly(u32 n, u64 q, u64 seed);

/**
 * The hybrid key switch of eval-domain @p c against @p pre, step by
 * step from public pieces of @p ks and with a fresh polynomial per
 * step: ModUp through the LimbMatrix BConv, each extended digit
 * permuted by @p auto_idx with RnsPoly::automorphism (index 1 is the
 * identity), the inner product as pointwise products and sums, and
 * ModDown through modDownConv and pInvModQ -- skipped when P is empty
 * (BFV's P = 1), where the sums are the result.
 */
std::pair<poly::RnsPoly, poly::RnsPoly>
textbookKeySwitch(const ckks::HybridKeySwitch &ks, const poly::RnsPoly &c,
                  const ckks::KeySwitchPrecomp &pre, u32 auto_idx);

} // namespace cross::testref
