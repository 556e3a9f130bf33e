/**
 * @file
 * Radix-2 in-place negacyclic NTT (paper Algorithm 3's butterfly family).
 *
 * forwardInPlace: Cooley-Tukey butterflies, natural-order input,
 * bit-reversed output. inverseInPlace: Gentleman-Sande, bit-reversed
 * input, natural-order output, including the final N^-1 scaling.
 *
 * This is the O(N log N) algorithm GPUs prefer; on a TPU its per-stage
 * bit-complement shuffles are the problem (Section III-D1), which is why
 * CROSS replaces it with the 3-step matrix form. Here it serves as both
 * the CPU production path and the functional ground truth for every other
 * NTT variant.
 *
 * Canonical evaluation order: after forwardInPlace, element m holds
 * a(psi^(2*bitrev(m)+1)).
 *
 * Each call transforms one limb on the calling thread. A multi-limb
 * transform is a plain loop of these calls; the only parallel work is
 * the batch item (ckks/batch_evaluator.h), never a split inside a limb.
 */
#pragma once

#include "common/types.h"
#include "poly/ntt_tables.h"

namespace cross::poly {

/** Forward negacyclic NTT; a has length N, values < q. */
void forwardInPlace(u32 *a, const NttTables &t);

/** Inverse negacyclic NTT (including N^-1); a has length N, values < q. */
void inverseInPlace(u32 *a, const NttTables &t);

} // namespace cross::poly
