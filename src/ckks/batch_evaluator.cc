#include "ckks/batch_evaluator.h"

#include <algorithm>

#include "common/check.h"
#include "common/parallel.h"

namespace cross::ckks {

// Fail-fast (run validates before any parallel work): an operand whose
// chain is shorter than the ciphertext's is the caller's bug, mirrored
// on the scalar paths' precomp-level-style checks.
const Plaintext &
pipelineStagePlain(const PipelineStage &st, size_t level)
{
    requireThat(st.pt->poly.limbCount() >= level + 1,
                "BatchEvaluator::run: plaintext operand level below "
                "item level");
    return *st.pt;
}

Pipeline &
Pipeline::add(const CtVec &rhs)
{
    PipelineStage st{};
    st.op = HeOp::Add;
    st.rhs = &rhs;
    stages_.push_back(std::move(st));
    return *this;
}

Pipeline &
Pipeline::multiply(const CtVec &rhs, const SwitchKey &rlk)
{
    PipelineStage st{};
    st.op = HeOp::Mult;
    st.key = &rlk;
    st.rhs = &rhs;
    stages_.push_back(std::move(st));
    return *this;
}

Pipeline &
Pipeline::rescale()
{
    PipelineStage st{};
    st.op = HeOp::Rescale;
    stages_.push_back(std::move(st));
    return *this;
}

Pipeline &
Pipeline::rescaleMulti()
{
    PipelineStage st{};
    st.op = HeOp::RescaleMulti;
    stages_.push_back(std::move(st));
    return *this;
}

Pipeline &
Pipeline::rotate(u32 auto_idx, const SwitchKey &rot_key)
{
    PipelineStage st{};
    st.op = HeOp::Rotate;
    st.autoIdx = auto_idx;
    st.key = &rot_key;
    stages_.push_back(std::move(st));
    return *this;
}

Pipeline &
Pipeline::addPlain(const Plaintext &pt)
{
    PipelineStage st{};
    st.op = HeOp::AddPlain;
    st.pt = &pt;
    stages_.push_back(std::move(st));
    return *this;
}

Pipeline &
Pipeline::multiplyPlain(const Plaintext &pt)
{
    PipelineStage st{};
    st.op = HeOp::MultiplyPlain;
    st.pt = &pt;
    stages_.push_back(std::move(st));
    return *this;
}

Pipeline &
Pipeline::rotateAccum(std::vector<RotateBranch> branches)
{
    requireThat(!branches.empty(),
                "Pipeline::rotateAccum: need at least one branch");
    for (const auto &br : branches)
        requireThat(br.key != nullptr,
                    "Pipeline::rotateAccum: branch has no rotation key");
    PipelineStage st{};
    st.op = HeOp::RotateAccum;
    st.branches = std::move(branches);
    stages_.push_back(std::move(st));
    return *this;
}

std::vector<PipelineOp>
Pipeline::pipelineOps() const
{
    std::vector<PipelineOp> ops;
    ops.reserve(stages_.size());
    for (const auto &st : stages_)
        ops.push_back({st.op, st.op == HeOp::RotateAccum
                                  ? st.branches.size()
                                  : size_t{1}});
    return ops;
}

CtVec
BatchEvaluator::run(const CtVec &input, const Pipeline &pipeline) const
{
    const size_t count = input.size();
    const auto &stages = pipeline.stages();

    // Quiesce scope for the whole pipeline: precomp references fetched
    // below stay valid across eviction while any run is in flight, and
    // the last run to finish reclaims the retired storage.
    const KeySwitchCache::ReaderGuard guard(ctx_.keySwitchCache());

    // Walk every item's (limb count, scale) through the stages to
    // discover the exact set of (key, level) precomps the pipeline
    // needs, fetch each from the context's residency cache exactly
    // once (sequential prefetch: the parallel region below only
    // reads), warm the shared automorphism maps, and fail fast on
    // malformed operands -- level/scale-mismatched plaintext operands,
    // short rhs batches, drained modulus chains -- before any parallel
    // work starts. The scale walk replays the evaluator's exact
    // floating-point updates, so its checks accept precisely the
    // batches the per-item execution would accept.
    //
    // stage_pre[s][i] is the precomp item i uses at stage s (null for
    // keyless stages); accum_pre[s][b][i] the same for branch b of a
    // RotateAccum stage.
    std::vector<size_t> limbs(count);
    std::vector<double> scale(count);
    for (size_t i = 0; i < count; ++i) {
        limbs[i] = input[i].limbs();
        scale[i] = input[i].scale;
    }
    std::vector<std::vector<const KeySwitchPrecomp *>> stage_pre(
        stages.size(),
        std::vector<const KeySwitchPrecomp *>(count, nullptr));
    std::vector<std::vector<std::vector<const KeySwitchPrecomp *>>>
        accum_pre(stages.size());
    const CkksEvaluator builder(ctx_);
    for (size_t s = 0; s < stages.size(); ++s) {
        const auto &st = stages[s];
        if (st.rhs) {
            requireThat(st.rhs->size() == count,
                        "BatchEvaluator::run: stage operand batch size "
                        "mismatch");
        }
        switch (st.op) {
          case HeOp::Add:
            for (size_t i = 0; i < count; ++i) {
                requireThat(ckksScalesMatch(scale[i], (*st.rhs)[i].scale),
                            "BatchEvaluator::run: add stage scales do "
                            "not match");
                limbs[i] = std::min(limbs[i], (*st.rhs)[i].limbs());
            }
            break;

          case HeOp::Mult:
            requireThat(st.key != nullptr,
                        "BatchEvaluator::run: multiply stage has no "
                        "relinearisation key");
            for (size_t i = 0; i < count; ++i) {
                limbs[i] = std::min(limbs[i], (*st.rhs)[i].limbs());
                scale[i] = scale[i] * (*st.rhs)[i].scale;
                requireThat(ctx_.activeDigits(limbs[i] - 1) <=
                                st.key->digits.size(),
                            "BatchEvaluator::run: relinearisation key "
                            "does not cover the item level");
                stage_pre[s][i] =
                    &builder.precomputeKeySwitchCached(*st.key,
                                                       limbs[i] - 1);
            }
            break;

          case HeOp::Rescale:
            for (size_t i = 0; i < count; ++i) {
                requireThat(limbs[i] >= 2,
                            "BatchEvaluator::run: rescale has no limb "
                            "left to drop");
                scale[i] = scale[i] /
                    static_cast<double>(ctx_.qModulus(limbs[i] - 1));
                --limbs[i];
            }
            break;

          case HeOp::RescaleMulti:
            for (size_t i = 0; i < count; ++i) {
                requireThat(limbs[i] > ctx_.params().rescaleSplit,
                            "BatchEvaluator::run: not enough limbs for "
                            "a double rescale");
                for (u32 r = 0; r < ctx_.params().rescaleSplit; ++r) {
                    scale[i] = scale[i] /
                        static_cast<double>(
                            ctx_.qModulus(limbs[i] - 1 - r));
                }
                limbs[i] -= ctx_.params().rescaleSplit;
            }
            break;

          case HeOp::Rotate:
            requireThat(st.key != nullptr,
                        "BatchEvaluator::run: rotate stage has no "
                        "rotation key");
            checkAutomorphismIndex(ctx_, st.autoIdx);
            if (count > 0)
                (void)ctx_.ring().evalAutoMap(st.autoIdx);
            for (size_t i = 0; i < count; ++i) {
                requireThat(ctx_.activeDigits(limbs[i] - 1) <=
                                st.key->digits.size(),
                            "BatchEvaluator::run: rotation key does "
                            "not cover the item level");
                stage_pre[s][i] =
                    &builder.precomputeKeySwitchCached(*st.key,
                                                       limbs[i] - 1);
            }
            break;

          case HeOp::AddPlain:
            for (size_t i = 0; i < count; ++i) {
                const Plaintext &pt = pipelineStagePlain(st, limbs[i] - 1);
                requireThat(ckksScalesMatch(scale[i], pt.scale),
                            "BatchEvaluator::run: addPlain stage "
                            "scales do not match");
            }
            break;

          case HeOp::MultiplyPlain:
            for (size_t i = 0; i < count; ++i) {
                const Plaintext &pt = pipelineStagePlain(st, limbs[i] - 1);
                scale[i] = scale[i] * pt.scale;
            }
            break;

          case HeOp::RotateAccum: {
            requireThat(!st.branches.empty(),
                        "BatchEvaluator::run: rotateAccum stage has no "
                        "branches");
            // Validate *every* branch key (identity and level
            // coverage) before building a single precomp: a bad
            // branch must fail the run up front, the way a bad
            // plaintext row does, not after sibling branches already
            // populated the cache or parallel work started.
            for (const auto &br : st.branches) {
                requireThat(br.key != nullptr,
                            "BatchEvaluator::run: rotateAccum branch "
                            "has no rotation key");
                checkAutomorphismIndex(ctx_, br.autoIdx);
                for (size_t i = 0; i < count; ++i) {
                    requireThat(ctx_.activeDigits(limbs[i] - 1) <=
                                    br.key->digits.size(),
                                "BatchEvaluator::run: rotateAccum "
                                "branch key does not cover the item "
                                "level");
                }
            }
            accum_pre[s].assign(
                st.branches.size(),
                std::vector<const KeySwitchPrecomp *>(count, nullptr));
            for (size_t b = 0; b < st.branches.size(); ++b) {
                const auto &br = st.branches[b];
                if (count > 0)
                    (void)ctx_.ring().evalAutoMap(br.autoIdx);
                for (size_t i = 0; i < count; ++i) {
                    accum_pre[s][b][i] =
                        &builder.precomputeKeySwitchCached(
                            *br.key, limbs[i] - 1);
                }
            }
            break;
          }
        }
    }

    // Stream each item through the whole pipeline: item-level
    // parallelism outside, the per-stage limb loops inside run inline
    // on the same worker (parallel.h's nesting rule). Each item logs
    // privately and the logs merge in item order below, so the merged
    // log comes out in (item, stage) order == the sequential loop,
    // independent of scheduling.
    CtVec out(count);
    std::vector<KernelLog> logs(log_ ? count : 0);
    parallelFor(0, count, [&](size_t i) {
        const CkksEvaluator ev(ctx_, log_ ? &logs[i] : nullptr);
        Ciphertext cur = input[i];
        for (size_t s = 0; s < stages.size(); ++s) {
            const auto &st = stages[s];
            switch (st.op) {
              case HeOp::Add:
                cur = ev.add(cur, (*st.rhs)[i]);
                break;
              case HeOp::Mult:
                cur = ev.multiply(cur, (*st.rhs)[i], *stage_pre[s][i]);
                break;
              case HeOp::Rescale:
                cur = ev.rescale(cur);
                break;
              case HeOp::RescaleMulti:
                cur = ev.rescaleMulti(cur);
                break;
              case HeOp::Rotate:
                cur = ev.rotate(cur, st.autoIdx, *stage_pre[s][i]);
                break;
              case HeOp::AddPlain:
                cur = ev.addPlain(cur, pipelineStagePlain(st, cur.limbs() - 1));
                break;
              case HeOp::MultiplyPlain:
                cur = ev.multiplyPlain(cur,
                                       pipelineStagePlain(st, cur.limbs() - 1));
                break;
              case HeOp::RotateAccum: {
                // Fan out from the stage input, fold partial sums back
                // in branch order. The input is decomposed once and
                // every branch reuses the digits (kernels log as ModUp,
                // then rotation block + Add per branch, matching the
                // schedule enumerator).
                const HoistedDecomp dec = ev.hoistedModUp(cur.c1);
                Ciphertext acc = cur;
                for (size_t b = 0; b < st.branches.size(); ++b) {
                    Ciphertext rotated = ev.applyHoistedRotation(
                        cur, dec, st.branches[b].autoIdx,
                        *accum_pre[s][b][i]);
                    acc = ev.add(acc, rotated);
                }
                ev.noteHoistedSaves(st.branches.size());
                cur = acc;
                break;
              }
            }
        }
        out[i] = std::move(cur);
    });
    if (log_) {
        for (const auto &l : logs)
            log_->append(l);
    }
    return out;
}

} // namespace cross::ckks
