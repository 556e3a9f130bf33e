/**
 * @file
 * Pure schedule enumeration and the HE-operator cost model.
 *
 * enumerateKernels() predicts -- without executing anything -- the exact
 * sequence of HE kernels the functional evaluator runs for one HE
 * operator at a given level. Tests assert the prediction equals the
 * evaluator's KernelLog, and the TPU cost model replays the same sequence
 * through cross::Lowering. This is what makes the simulated Table VIII
 * numbers an honest costing of the real algorithm rather than a detached
 * analytical formula.
 */
#pragma once

#include <vector>

#include "ckks/he_op.h"
#include "ckks/kernel_log.h"
#include "ckks/params.h"
#include "cross/lowering.h"
#include "tpu/sim.h"

namespace cross::ckks {

/** Kernel schedule of one HE operator at @p level (limbs = level + 1). */
std::vector<KernelCall> enumerateKernels(HeOp op, const CkksParams &params,
                                         size_t level);

/**
 * Kernel schedule of a fused operator pipeline starting at @p level:
 * the concatenation of each stage's schedule with the level evolving
 * between stages (heOpNextLevel). A LinearTransform entry expands to
 * one shared ModUp (none at fanin 0), the identity term's
 * MultiplyPlain when weighted, then per branch a rotation block
 * [+ MultiplyPlain] + Add: the Halevi-Shoup hoisted transform that
 * pays the decomposition once per stage. Unweighted at fanin 1 that is
 * exactly the Rotate + Add schedule.
 * Mirrors BatchEvaluator::run's per-item KernelLog exactly, so
 * schedule-conformance tests can assert evaluator-log == enumerator
 * for whole pipelines.
 */
std::vector<KernelCall>
enumerateKernels(const std::vector<PipelineOp> &pipeline,
                 const CkksParams &params, size_t level);

/** Kernel schedule of the hybrid key switch alone. */
std::vector<KernelCall> enumerateKeySwitch(const CkksParams &params,
                                           size_t level);

/** Level after applying @p op at @p level (Rescale consumes one limb). */
size_t heOpNextLevel(HeOp op, size_t level);

/** Prices enumerated schedules on a simulated TPU. */
class HeOpCostModel
{
  public:
    HeOpCostModel(const tpu::DeviceConfig &dev, lowering::Config cfg,
                  CkksParams params);

    /** Row split used for the matrix-form NTT (best of the paper sweep). */
    u32 rowSplit() const { return rowSplit_; }

    /** Cost of a single kernel call. */
    tpu::KernelCost kernelCost(const KernelCall &call) const;

    /**
     * Fused cost of one HE operator at @p level: kernels accumulate into
     * one launch (the paper's single-kernel amortised latency metric).
     */
    tpu::KernelCost opCost(HeOp op, size_t level) const;

    /**
     * Fused cost of a whole operator pipeline starting at @p level:
     * one launch covering every stage, pricing exactly the kernels
     * BatchEvaluator::run executes per item (a LinearTransform
     * priced with its one shared ModUp).
     */
    tpu::KernelCost pipelineCost(const std::vector<PipelineOp> &pipeline,
                                 size_t level) const;

    /** Amortised single-batch latency of @p op in microseconds. */
    double opLatencyUs(HeOp op, size_t level, u64 batch = 1) const;

    /** Amortised per-item latency of a fused pipeline in
     *  microseconds, for the shape Pipeline::pipelineOps() reports
     *  (Table VIII's pipeline rows). */
    double pipelineLatencyUs(const std::vector<PipelineOp> &pipeline,
                             size_t level, u64 batch = 1) const;

    /** Per-category latency breakdown of @p op (Fig. 12). */
    std::map<tpu::OpCat, double> opBreakdown(HeOp op, size_t level) const;

    const lowering::Lowering &lowering() const { return lower_; }
    const CkksParams &params() const { return params_; }

  private:
    const tpu::DeviceConfig &dev_;
    lowering::Config cfg_;
    CkksParams params_;
    lowering::Lowering lower_;
    u32 rowSplit_;
};

/**
 * Pick the best (R, C) split for degree @p n on @p dev by sweeping the
 * paper's configurations (Section V-A: R in {128, 256, 512} scaled to N).
 */
u32 bestRowSplit(const tpu::DeviceConfig &dev, const lowering::Config &cfg,
                 u32 n);

} // namespace cross::ckks
