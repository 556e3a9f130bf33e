#include "ckks/batch_evaluator.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"

namespace cross::ckks {

namespace {

// Fail-fast (run validates before any parallel work): an operand whose
// chain is shorter than the ciphertext's is the caller's bug, mirrored
// on the scalar paths' precomp-level-style checks. Shared by the
// prevalidation walk and applyStage, so the checks cannot diverge.
const Plaintext &
pipelineStagePlain(const Plaintext &pt, size_t level)
{
    requireThat(pt.poly.limbCount() >= level + 1,
                "BatchEvaluator::run: plaintext operand level below "
                "item level");
    return pt;
}

Ciphertext
linearTransformItem(const CkksEvaluator &ev, const PipelineStage &st,
                    const Ciphertext &in,
                    const std::vector<KeySwitchCache::Shared> &pre)
{
    // Kernels log in the schedule enumerator's order: ModUp, the
    // identity term, then rotation block [+ weight] + Add per branch.
    const size_t level = in.limbs() - 1;
    const auto weigh = [&](Ciphertext t, const Plaintext *pt) {
        if (pt)
            t = ev.multiplyPlain(std::move(t), pipelineStagePlain(*pt, level));
        return t;
    };
    HoistedDecomp dec;
    if (!st.branches.empty())
        dec = ev.hoistedModUp(in.c1);
    // The identity term copies in: every branch still reads it.
    Ciphertext acc = weigh(in, st.pt);
    for (size_t b = 0; b < st.branches.size(); ++b) {
        const RotateBranch &br = st.branches[b];
        acc = ev.add(std::move(acc),
                     weigh(ev.applyHoistedRotation(in, dec, br.autoIdx,
                                                   *pre.at(b)),
                           br.pt));
    }
    ev.noteHoistedSaves(st.branches.size());
    return acc;
}

/**
 * applyStage's one body. Ct is const Ciphertext & for an input the
 * caller keeps (an op that changes its input copies it) and Ciphertext
 * for one that dies here (moved into that op).
 */
template <class Ct>
Ciphertext
applyStageTo(const CkksEvaluator &ev, const PipelineStage &st, Ct &&cur,
             size_t i, const std::vector<KeySwitchCache::Shared> &pre)
{
    // Read before cur is moved into an op.
    const size_t level = cur.limbs() - 1;
    switch (st.op) {
      case HeOp::Add:
        return ev.add(std::forward<Ct>(cur), (*st.rhs)[i]);
      case HeOp::Mult:
        return ev.multiply(cur, (*st.rhs)[i], *pre.at(0));
      case HeOp::Rescale:
        return ev.rescale(std::forward<Ct>(cur));
      case HeOp::Rotate:
        return ev.rotate(cur, st.autoIdx, *pre.at(0));
      case HeOp::AddPlain:
        return ev.addPlain(std::forward<Ct>(cur),
                           pipelineStagePlain(*st.pt, level));
      case HeOp::MultiplyPlain:
        return ev.multiplyPlain(std::forward<Ct>(cur),
                                pipelineStagePlain(*st.pt, level));
      case HeOp::LinearTransform:
        return linearTransformItem(ev, st, cur, pre);
    }
    internalCheck(false, "applyStage: unknown op");
    return Ciphertext(std::forward<Ct>(cur));
}

} // namespace

std::vector<const SwitchKey *>
stageKeys(const PipelineStage &st)
{
    if (st.op == HeOp::Mult || st.op == HeOp::Rotate)
        return {st.key};
    std::vector<const SwitchKey *> keys;
    for (const RotateBranch &br : st.branches)
        keys.push_back(br.key);
    return keys;
}

Ciphertext
applyStage(const CkksEvaluator &ev, const PipelineStage &st,
           const Ciphertext &cur, size_t i,
           const std::vector<KeySwitchCache::Shared> &pre)
{
    return applyStageTo(ev, st, cur, i, pre);
}

Ciphertext
applyStage(const CkksEvaluator &ev, const PipelineStage &st,
           Ciphertext &&cur, size_t i,
           const std::vector<KeySwitchCache::Shared> &pre)
{
    return applyStageTo(ev, st, std::move(cur), i, pre);
}

Pipeline &
Pipeline::add(const CtVec &rhs)
{
    return push({.op = HeOp::Add, .rhs = &rhs});
}

Pipeline &
Pipeline::multiply(const CtVec &rhs, const SwitchKey &rlk)
{
    return push({.op = HeOp::Mult, .key = &rlk, .rhs = &rhs});
}

Pipeline &
Pipeline::rescale()
{
    return push({.op = HeOp::Rescale});
}

Pipeline &
Pipeline::rotate(u32 auto_idx, const SwitchKey &rot_key)
{
    return push({.op = HeOp::Rotate, .autoIdx = auto_idx, .key = &rot_key});
}

Pipeline &
Pipeline::addPlain(const Plaintext &pt)
{
    return push({.op = HeOp::AddPlain, .pt = &pt});
}

Pipeline &
Pipeline::multiplyPlain(const Plaintext &pt)
{
    return push({.op = HeOp::MultiplyPlain, .pt = &pt});
}

Pipeline &
Pipeline::linearTransform(std::vector<RotateBranch> branches,
                          const Plaintext *identity)
{
    for (const auto &br : branches)
        requireThat(br.key != nullptr,
                    "Pipeline::linearTransform: branch has no rotation key");
    return push({.op = HeOp::LinearTransform, .pt = identity,
                 .branches = std::move(branches)});
}

std::vector<PipelineOp>
Pipeline::pipelineOps() const
{
    std::vector<PipelineOp> ops;
    ops.reserve(stages_.size());
    for (const auto &st : stages_) {
        const bool lt = st.op == HeOp::LinearTransform;
        ops.push_back({st.op, lt ? st.branches.size() : size_t{1},
                       lt && st.pt != nullptr});
    }
    return ops;
}

CtVec
BatchEvaluator::run(const CtVec &input, const Pipeline &pipeline) const
{
    const size_t count = input.size();
    const auto &stages = pipeline.stages();

    // Walk every item's (limb count, scale) through the stages to
    // discover the exact set of (key, level) precomps the pipeline
    // needs, fetch each from the context's residency cache up front
    // (sequential prefetch), and fail fast on malformed operands --
    // level/scale-mismatched plaintext operands, short rhs batches,
    // drained modulus chains -- before any parallel work starts. (The
    // basis conversions are built with the context, and the ring fills
    // its automorphism maps under its own lock on first use.) The run
    // owns every fetched precomp until it returns, so an eviction by a
    // concurrent run, invalidate() or clear() cannot free one an item
    // still reads. The scale walk replays the evaluator's exact
    // floating-point updates, so its checks accept precisely the
    // batches the per-item execution would accept.
    //
    // pre[s][i] owns the precomps item i uses at stage s: the
    // Mult/Rotate key's, one per LinearTransform branch, or none.
    std::vector<size_t> limbs(count);
    std::vector<double> scale(count);
    for (size_t i = 0; i < count; ++i) {
        limbs[i] = input[i].limbs();
        scale[i] = input[i].scale;
    }
    std::vector<std::vector<std::vector<KeySwitchCache::Shared>>> pre(
        stages.size(),
        std::vector<std::vector<KeySwitchCache::Shared>>(count));
    const CkksEvaluator builder(ctx_);
    const HybridKeySwitch &ks = ctx_.hybridKeySwitch();
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
                requireThat(ks.activeDigits(limbs[i] - 1) <=
                                st.key->digits.size(),
                            "BatchEvaluator::run: relinearisation key "
                            "does not cover the item level");
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

          case HeOp::Rotate:
            requireThat(st.key != nullptr,
                        "BatchEvaluator::run: rotate stage has no "
                        "rotation key");
            checkAutomorphismIndex(ctx_, st.autoIdx);
            for (size_t i = 0; i < count; ++i) {
                requireThat(ks.activeDigits(limbs[i] - 1) <=
                                st.key->digits.size(),
                            "BatchEvaluator::run: rotation key does "
                            "not cover the item level");
            }
            break;

          case HeOp::AddPlain:
            for (size_t i = 0; i < count; ++i) {
                const Plaintext &pt =
                    pipelineStagePlain(*st.pt, limbs[i] - 1);
                requireThat(ckksScalesMatch(scale[i], pt.scale),
                            "BatchEvaluator::run: addPlain stage "
                            "scales do not match");
            }
            break;

          case HeOp::MultiplyPlain:
            for (size_t i = 0; i < count; ++i) {
                const Plaintext &pt =
                    pipelineStagePlain(*st.pt, limbs[i] - 1);
                scale[i] = scale[i] * pt.scale;
            }
            break;

          case HeOp::LinearTransform: {
            // Validate *every* term (key identity and level coverage,
            // plaintext presence, level and scale) before building a
            // single precomp: a bad term must fail the run up front,
            // not after sibling branches populated the cache or
            // parallel work started. Each term must meet the identity
            // term's scale at its add.
            const bool weighted = st.pt != nullptr;
            for (size_t i = 0; i < count; ++i) {
                const size_t level = limbs[i] - 1;
                const double acc_scale =
                    weighted
                        ? scale[i] * pipelineStagePlain(*st.pt, level).scale
                        : scale[i];
                for (const auto &br : st.branches) {
                    requireThat(br.key != nullptr &&
                                    ks.activeDigits(level) <=
                                        br.key->digits.size(),
                                "BatchEvaluator::run: linearTransform "
                                "branch key missing or below the item "
                                "level");
                    checkAutomorphismIndex(ctx_, br.autoIdx);
                    requireThat((br.pt != nullptr) == weighted,
                                "BatchEvaluator::run: linearTransform "
                                "mixes weighted and unweighted terms");
                    requireThat(
                        !weighted ||
                            ckksScalesMatch(
                                acc_scale,
                                scale[i] *
                                    pipelineStagePlain(*br.pt, level).scale),
                        "BatchEvaluator::run: linearTransform term "
                        "scales do not match");
                }
                scale[i] = acc_scale;
            }
            break;
          }
        }
        // The stage's checks passed: fetch its keys' precomps at the
        // level each item switches at (a Mult's lower operand's).
        for (const SwitchKey *key : stageKeys(st)) {
            for (size_t i = 0; i < count; ++i) {
                pre[s][i].push_back(
                    builder.precomputeKeySwitchShared(*key, limbs[i] - 1));
            }
        }
    }

    // Stream each item through the whole pipeline. The items are the
    // pool's units of work, and an item's kernels run as plain limb
    // loops on the thread that runs it; a batch of one runs on the
    // caller's thread. Each item logs
    // privately and the logs merge in item order below, so the merged
    // log comes out in (item, stage) order == the sequential loop,
    // independent of scheduling.
    CtVec out(count);
    std::vector<KernelLog> logs(log_ ? count : 0);
    parallelFor(0, count, [&](size_t i) {
        const CkksEvaluator ev(ctx_, log_ ? &logs[i] : nullptr);
        // The first stage reads the caller's item; each later one
        // consumes the result of the stage before it.
        Ciphertext cur = stages.empty()
            ? input[i]
            : applyStage(ev, stages[0], input[i], i, pre[0][i]);
        for (size_t s = 1; s < stages.size(); ++s)
            cur = applyStage(ev, stages[s], std::move(cur), i, pre[s][i]);
        out[i] = std::move(cur);
    });
    if (log_) {
        for (const auto &l : logs)
            log_->append(l);
    }
    return out;
}

} // namespace cross::ckks
