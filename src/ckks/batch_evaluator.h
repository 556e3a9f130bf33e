/**
 * @file
 * Batched, multi-threaded evaluation engine with fused operator
 * pipelines.
 *
 * The paper's headline wins come from batching: amortising the MXU
 * weight-stationary setup (BAT matrices, MAT NTT operands, switching
 * keys) across many ciphertexts (Fig. 11b). BatchEvaluator is the
 * functional mirror of the simulator's batching model
 * (tpu::runBatched's fixedUs / paramBytes split): every per-operator
 * precomputation -- the KeySwitchPrecomp operands via the context's
 * KeySwitchCache, the basis conversions with the context itself, the
 * automorphism index maps in the ring -- is built at most once per
 * context and shared by all items. The items are spread over the
 * global thread pool (common/parallel.h), the library's only parallel
 * work; the kernels inside an item run as plain limb loops on the
 * thread that runs it.
 *
 * The one entry point is run(CtVec, Pipeline). It amortises on two
 * axes at once:
 *  - across *items*: one precomp serves every ciphertext of the batch
 *    (a single batched operator is a one-stage Pipeline);
 *  - across *operators*: the pipeline is a small operator sequence
 *    (e.g. Mult -> Rescale -> Rotate, the shapes the bootstrap
 *    schedule chains); run() prebuilds every (key, level) precomp the
 *    whole pipeline will touch, then streams each item through all
 *    stages -- no per-stage setup, no intermediate batch-wide
 *    barriers.
 *
 * Guarantees:
 *  - Results are bit-identical to looping CkksEvaluator over the
 *    items and the stages, at any thread count (including 1, the
 *    default). A linearTransform stage always shares one ModUp
 *    across its rotation branches, so it launches fanin-1 fewer
 *    ModUps than looping rotate + multiplyPlain + add, with the same
 *    results.
 *  - The KernelLog is deterministic: each item records into a private
 *    log and the logs are merged in item order, so a parallel batched
 *    run logs exactly what a sequential run logs. The per-item log
 *    covers the whole pipeline, matching the sequential
 *    "all stages for item 0, then item 1, ..." order, and matching
 *    enumerateKernels(pipeline.pipelineOps(), ...) stage by stage.
 */
#pragma once

#include <vector>

#include "ckks/ciphertext.h"
#include "ckks/context.h"
#include "ckks/evaluator.h"
#include "ckks/he_op.h"
#include "ckks/kernel_log.h"
#include "ckks/keys.h"

namespace cross::ckks {

/** A batch of ciphertexts, one slot vector each. */
using CtVec = std::vector<Ciphertext>;

/** One term [pt *] rotate(in, autoIdx) of a LinearTransform stage. */
struct RotateBranch
{
    u32 autoIdx = 0;               ///< Galois element of this branch
    const SwitchKey *key = nullptr; ///< its rotation key
    const Plaintext *pt = nullptr;  ///< weighted stage: its plaintext
};

/**
 * One stage of a fused pipeline. Operand pointers reference
 * caller-owned storage; they must outlive the BatchEvaluator::run()
 * call (the Pipeline never copies ciphertexts, plaintexts or keys).
 */
struct PipelineStage
{
    HeOp op;
    u32 autoIdx = 0;              ///< Rotate: Galois element
    const SwitchKey *key = nullptr; ///< Mult (relin) / Rotate key
    const CtVec *rhs = nullptr;   ///< Add / Mult second operand batch
    /** AddPlain / MultiplyPlain: one operand for every item;
     *  weighted LinearTransform: the identity term's plaintext. */
    const Plaintext *pt = nullptr;
    /** LinearTransform: the rotation branches. */
    std::vector<RotateBranch> branches{};
};

/**
 * The switching keys stage @p st key-switches with, in the order
 * applyStage reads their precomps: the Mult/Rotate key, one per
 * LinearTransform branch, or none. Each switches at the item's level
 * after the stage's operand alignment, which for a Mult is its lower
 * operand's.
 */
std::vector<const SwitchKey *> stageKeys(const PipelineStage &st);

/**
 * One item through one stage, shared by BatchEvaluator::run and the
 * sequential reference interpreter (CompiledGraph::runSequential), so
 * both execute every stage the same way, one evaluator call per op.
 * @p i picks the item's Add/Mult operand. @p pre holds one precomp
 * per stageKeys(st) entry at the level the item switches at: run's
 * walk fetches them from the residency cache, runSequential builds
 * them uncached. An lvalue @p cur is only read (an op that changes its
 * input works on a copy); an rvalue is consumed, so such an op works
 * in its limbs.
 */
Ciphertext applyStage(const CkksEvaluator &ev, const PipelineStage &st,
                      const Ciphertext &cur, size_t i,
                      const std::vector<KeySwitchCache::Shared> &pre);
Ciphertext applyStage(const CkksEvaluator &ev, const PipelineStage &st,
                      Ciphertext &&cur, size_t i,
                      const std::vector<KeySwitchCache::Shared> &pre);

/**
 * A small operator sequence applied item-wise by BatchEvaluator::run.
 * Built fluently:
 *
 *     Pipeline p;
 *     p.multiply(b, rlk).rescale().rotate(k, rot_key);
 *     auto out = batch.run(a, p);
 */
class Pipeline
{
  public:
    /** cur[i] + rhs[i] (levels aligned like CkksEvaluator::add). */
    Pipeline &add(const CtVec &rhs);
    /** cur[i] * rhs[i] with relinearisation against @p rlk. */
    Pipeline &multiply(const CtVec &rhs, const SwitchKey &rlk);
    Pipeline &rescale();
    Pipeline &rotate(u32 auto_idx, const SwitchKey &rot_key);

    /** @name Plaintext-operand stages (CtS/StC matrices, EvalMod
     *  constants): apply @p pt to every item. @{ */
    Pipeline &addPlain(const Plaintext &pt);
    Pipeline &multiplyPlain(const Plaintext &pt);
    /** @} */

    /**
     * Linear transform: cur = [identity *] cur + sum_b [b.pt *]
     * rotate(cur, b.autoIdx). Either @p identity and every branch
     * carry a plaintext (weighted: matVec) or none does (a slot-sum
     * fan-in or BSGS group); run() rejects a mix. Results are
     * bit-identical to the sequential loop
     *
     *     acc = identity ? multiplyPlain(cur, identity) : cur
     *     for b: t = rotate(cur, k_b)
     *            acc = add(acc, b.pt ? multiplyPlain(t, b.pt) : t)
     *
     * but the stage always hoists (Halevi-Shoup): one ModUp of the
     * stage input serves every branch, so N branches pay N-1 fewer
     * ModUps (credited to KernelLog::hoistedModUpSaves) and a stage
     * without branches pays none.
     */
    Pipeline &linearTransform(std::vector<RotateBranch> branches,
                              const Plaintext *identity = nullptr);

    /** @name Stages hold pointers; temporaries would dangle by run().
     *  Deleted so the misuse is a compile error, not a use-after-free.
     *  @{ */
    Pipeline &add(CtVec &&) = delete;
    Pipeline &multiply(CtVec &&, const SwitchKey &) = delete;
    Pipeline &multiply(const CtVec &, SwitchKey &&) = delete;
    Pipeline &multiply(CtVec &&, SwitchKey &&) = delete;
    Pipeline &rotate(u32, SwitchKey &&) = delete;
    Pipeline &addPlain(Plaintext &&) = delete;
    Pipeline &multiplyPlain(Plaintext &&) = delete;
    /** @} */

    const std::vector<PipelineStage> &stages() const { return stages_; }
    bool empty() const { return stages_.empty(); }

    /** Op + fan-in + weighted bit per stage: the shape
     *  enumerateKernels and HeOpCostModel::pipelineCost price. */
    std::vector<PipelineOp> pipelineOps() const;

  private:
    Pipeline &
    push(PipelineStage st)
    {
        stages_.push_back(std::move(st));
        return *this;
    }

    std::vector<PipelineStage> stages_;
};

/** Applies a fused pipeline across a ciphertext vector. */
class BatchEvaluator
{
  public:
    explicit BatchEvaluator(const CkksContext &ctx,
                            KernelLog *log = nullptr)
        : ctx_(ctx), log_(log)
    {
    }

    /**
     * Fused pipeline: apply every stage of @p pipeline to each item of
     * @p input, building each (key, level) KeySwitchPrecomp the whole
     * pipeline needs exactly once up front (served from the context's
     * residency cache), then streaming every item through all stages
     * with no intermediate batch barrier. Results and the merged
     * KernelLog are bit-identical to the sequential loop
     *
     *     for i: for stage: out[i] = evaluator.stage(out[i], ...)
     *
     * at any thread count. Mixed-level inputs pick the per-item level
     * precomp at every stage.
     */
    CtVec run(const CtVec &input, const Pipeline &pipeline) const;

    const CkksContext &context() const { return ctx_; }

  private:
    const CkksContext &ctx_;
    KernelLog *log_;
};

} // namespace cross::ckks
