/**
 * @file
 * Kernel-invocation log: every HE operator in the evaluator reports the
 * HE kernels it executes (kind + shape + wall time). Three consumers:
 *
 *  1. tests: the functional evaluator's log must equal the pure schedule
 *     enumerator's prediction (src/ckks/schedule.h);
 *  2. the TPU cost model: replays a schedule through cross::Lowering;
 *  3. Fig. 14: wall-time per kernel kind on the host CPU backend.
 *
 * The entries keep the schedule's shape when the CPU fuses kernels: a
 * fused pass books its whole time to one of the entries it covers and
 * logs the others with 0 s. The key switch's inner product books to
 * its VecModMul entry (its Automorphism gathers and VecModAdd sums log
 * 0 s), and ModDown's subtract-and-scale books to VecModMulConst. BFV
 * runs the same key-switch body, so its inner product books to
 * VecModMul the same way (one VecModMul and one 0 s VecModAdd entry
 * per key switch, no ModDown entries at P = 1).
 */
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace cross::ckks {

/** HE kernel taxonomy (matches the paper's Fig. 14 / Table IX legends). */
enum class KernelKind
{
    Ntt,
    Intt,
    BConv,
    VecModMul,
    VecModMulConst,
    VecModAdd,
    VecModSub,
    Automorphism,
};

/** Human-readable kind name. */
const char *kernelKindName(KernelKind k);

/** One kernel invocation. */
struct KernelCall
{
    KernelKind kind;
    u32 n = 0;       ///< degree
    u32 limbs = 0;   ///< limbs processed (source limbs for BConv)
    u32 limbsOut = 0;///< BConv target limbs (0 otherwise)
    double seconds = 0.0; ///< wall time when measured functionally

    bool
    sameShape(const KernelCall &o) const
    {
        return kind == o.kind && n == o.n && limbs == o.limbs &&
            limbsOut == o.limbsOut;
    }
};

/** Append-only kernel log. */
class KernelLog
{
  public:
    void
    add(KernelKind kind, u32 n, u32 limbs, u32 limbs_out = 0,
        double seconds = 0.0)
    {
        calls_.push_back({kind, n, limbs, limbs_out, seconds});
    }

    const std::vector<KernelCall> &calls() const { return calls_; }

    void
    clear()
    {
        calls_.clear();
        hoistedModUpSaves_ = 0;
    }

    /**
     * Append every call of @p o after this log's calls. The batch
     * engine records each batch item into its own KernelLog and merges
     * them in item order, so a parallel batched run produces exactly
     * the log a sequential run would.
     */
    void
    append(const KernelLog &o)
    {
        calls_.insert(calls_.end(), o.calls_.begin(), o.calls_.end());
        hoistedModUpSaves_ += o.hoistedModUpSaves_;
    }

    /** Credit @p saves ModUps elided by Halevi-Shoup hoisting (a
     *  fan-out of N rotations sharing one ModUp credits N-1). */
    void noteHoistedModUpSaves(u64 saves) { hoistedModUpSaves_ += saves; }

    /** Total ModUps elided by hoisted fan-outs (the LinearTransform
     *  stage): exactly the Intt launches (and per-digit
     *  BConv/NTT blocks) that running every branch as its own rotate
     *  (the per-op matVec loop, or the PerOp bootstrap graph) adds. */
    u64 hoistedModUpSaves() const { return hoistedModUpSaves_; }

    /** Total wall seconds attributed to @p kind. */
    double secondsFor(KernelKind kind) const;

    /** Total wall seconds across all calls. */
    double totalSeconds() const;

  private:
    std::vector<KernelCall> calls_;
    u64 hoistedModUpSaves_ = 0;
};

} // namespace cross::ckks
