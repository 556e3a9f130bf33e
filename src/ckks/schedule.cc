#include "ckks/schedule.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/check.h"

namespace cross::ckks {

namespace {

void
push(std::vector<KernelCall> &v, KernelKind kind, u32 n, u32 limbs,
     u32 limbs_out = 0)
{
    v.push_back({kind, n, limbs, limbs_out, 0.0});
}

/**
 * Phase 1, the shared ModUp: one INTT of the input, then per digit a
 * BConv into the complement+P basis and the NTT back. This block is
 * what a hoisted rotation fan-out pays exactly once.
 */
void
appendModUp(std::vector<KernelCall> &v, const CkksParams &p, size_t level)
{
    const u32 n = p.n;
    const size_t alpha = p.alpha();
    const size_t aux = p.auxCount();
    const size_t ext = level + 1 + aux;
    const size_t digits = (level + alpha) / alpha;

    push(v, KernelKind::Intt, n, static_cast<u32>(level + 1));
    for (size_t j = 0; j < digits; ++j) {
        const size_t first = j * alpha;
        const size_t last = std::min(first + alpha, level + 1);
        const size_t dsize = last - first;
        push(v, KernelKind::BConv, n, static_cast<u32>(dsize),
             static_cast<u32>(ext - dsize));
        push(v, KernelKind::Ntt, n, static_cast<u32>(ext - dsize));
    }
}

/** Phase 3, one ModDown: back-convert the P part and fold it out. */
void
appendModDown(std::vector<KernelCall> &v, const CkksParams &p,
              size_t level)
{
    const u32 n = p.n;
    const size_t aux = p.auxCount();
    push(v, KernelKind::Intt, n, static_cast<u32>(aux));
    push(v, KernelKind::BConv, n, static_cast<u32>(aux),
         static_cast<u32>(level + 1));
    push(v, KernelKind::Ntt, n, static_cast<u32>(level + 1));
    push(v, KernelKind::VecModSub, n, static_cast<u32>(level + 1));
    push(v, KernelKind::VecModMulConst, n, static_cast<u32>(level + 1));
}

/**
 * Phases 2+3, the tail every key switch shares: the inner product of
 * the extended-basis digits with the key (one fused multiply, one
 * fused accumulate), then ModDown of both accumulators.
 */
void
appendInnerProductModDown(std::vector<KernelCall> &v, const CkksParams &p,
                          size_t level)
{
    const u32 n = p.n;
    const size_t alpha = p.alpha();
    const size_t ext = level + 1 + p.auxCount();
    const size_t digits = (level + alpha) / alpha;

    push(v, KernelKind::VecModMul, n, static_cast<u32>(2 * digits * ext));
    push(v, KernelKind::VecModAdd, n, static_cast<u32>(2 * digits * ext));
    appendModDown(v, p, level);
    appendModDown(v, p, level);
}

/**
 * One rotation against an already-hoisted decomposition: permute the
 * digits + c0 (one launch), the key-switch tail, and the c0 fold.
 * Rotate = ModUp + this block; every extra rotation of a hoisted
 * fan-out is this block alone.
 */
void
appendHoistedRotBlock(std::vector<KernelCall> &v, const CkksParams &p,
                      size_t level)
{
    const size_t alpha = p.alpha();
    const size_t ext = level + 1 + p.auxCount();
    const size_t digits = (level + alpha) / alpha;

    push(v, KernelKind::Automorphism, p.n,
         static_cast<u32>(digits * ext + level + 1));
    appendInnerProductModDown(v, p, level);
    push(v, KernelKind::VecModAdd, p.n, static_cast<u32>(level + 1));
}

} // namespace

std::vector<KernelCall>
enumerateKeySwitch(const CkksParams &p, size_t level)
{
    std::vector<KernelCall> v;
    appendModUp(v, p, level);
    appendInnerProductModDown(v, p, level);
    return v;
}

std::vector<KernelCall>
enumerateKernels(HeOp op, const CkksParams &p, size_t level)
{
    requireThat(level < p.limbs, "enumerateKernels: level out of range");
    std::vector<KernelCall> v;
    const u32 n = p.n;
    const u32 limbs = static_cast<u32>(level + 1);

    switch (op) {
      case HeOp::Add:
        push(v, KernelKind::VecModAdd, n, 2 * limbs);
        break;

      case HeOp::Mult: {
        push(v, KernelKind::VecModMul, n, 4 * limbs);
        push(v, KernelKind::VecModAdd, n, limbs);
        auto ks = enumerateKeySwitch(p, level);
        v.insert(v.end(), ks.begin(), ks.end());
        push(v, KernelKind::VecModAdd, n, 2 * limbs);
        break;
      }

      case HeOp::Rescale: {
        requireThat(level >= 1, "rescale needs >= 2 limbs");
        for (int comp = 0; comp < 2; ++comp) {
            push(v, KernelKind::Intt, n, 1);
            for (size_t i = 0; i < level; ++i) {
                push(v, KernelKind::Ntt, n, 1);
                push(v, KernelKind::VecModSub, n, 1);
                push(v, KernelKind::VecModMulConst, n, 1);
            }
        }
        break;
      }

      case HeOp::Rotate: {
        // The hoisted-order rotate: ModUp of c1, then one rotation
        // block (digit permutation, fused inner product, ModDown, c0
        // fold). A hoisted fan-out shares the first part.
        appendModUp(v, p, level);
        appendHoistedRotBlock(v, p, level);
        break;
      }

      case HeOp::AddPlain:
        push(v, KernelKind::VecModAdd, n, limbs);
        break;

      case HeOp::MultiplyPlain:
        push(v, KernelKind::VecModMulConst, n, 2 * limbs);
        break;

      case HeOp::LinearTransform:
        // One unweighted branch: the transform's expansion at fanin 1
        // is exactly Rotate + Add.
        return enumerateKernels({PipelineOp{op, 1}}, p, level);
    }
    return v;
}

size_t
heOpNextLevel(HeOp op, size_t level)
{
    switch (op) {
      case HeOp::Add:
      case HeOp::Mult:
      case HeOp::Rotate:
      case HeOp::AddPlain:
      case HeOp::MultiplyPlain:
      case HeOp::LinearTransform:
        return level;
      case HeOp::Rescale:
        requireThat(level >= 1, "heOpNextLevel: rescale needs >= 2 limbs");
        return level - 1;
    }
    internalCheck(false, "heOpNextLevel: unknown op");
    return level;
}

std::vector<KernelCall>
enumerateKernels(const std::vector<PipelineOp> &pipeline,
                 const CkksParams &p, size_t level)
{
    std::vector<KernelCall> v;
    for (const auto &st : pipeline) {
        if (st.op == HeOp::LinearTransform) {
            // One shared ModUp for the whole fan-out, the identity
            // term, then per branch one rotation block [+ weight] +
            // accumulate: the hoisting contract (fanin-1 ModUps fewer
            // than per-branch Rotate).
            const auto weigh =
                st.weighted ? enumerateKernels(HeOp::MultiplyPlain, p, level)
                            : std::vector<KernelCall>{};
            const auto add = enumerateKernels(HeOp::Add, p, level);
            if (st.fanin > 0)
                appendModUp(v, p, level);
            v.insert(v.end(), weigh.begin(), weigh.end());
            for (size_t b = 0; b < st.fanin; ++b) {
                appendHoistedRotBlock(v, p, level);
                v.insert(v.end(), weigh.begin(), weigh.end());
                v.insert(v.end(), add.begin(), add.end());
            }
        } else {
            const auto one = enumerateKernels(st.op, p, level);
            v.insert(v.end(), one.begin(), one.end());
        }
        level = heOpNextLevel(st.op, level);
    }
    return v;
}

HeOpCostModel::HeOpCostModel(const tpu::DeviceConfig &dev,
                             lowering::Config cfg, CkksParams params)
    : dev_(dev), cfg_(cfg), params_(std::move(params)), lower_(dev, cfg),
      rowSplit_(bestRowSplit(dev, cfg, params_.n))
{
}

tpu::KernelCost
HeOpCostModel::kernelCost(const KernelCall &call) const
{
    switch (call.kind) {
      case KernelKind::Ntt:
        return lower_.ntt(call.n, rowSplit_, call.limbs, false);
      case KernelKind::Intt:
        return lower_.ntt(call.n, rowSplit_, call.limbs, true);
      case KernelKind::BConv:
        return lower_.bconv(call.n, call.limbs, call.limbsOut);
      case KernelKind::VecModMul:
        return lower_.vecModMul(call.n, call.limbs);
      case KernelKind::VecModMulConst:
        return lower_.vecModMulConst(call.n, call.limbs);
      case KernelKind::VecModAdd:
      case KernelKind::VecModSub:
        return lower_.vecModAdd(call.n, call.limbs);
      case KernelKind::Automorphism:
        return lower_.automorphism(call.n, call.limbs);
    }
    internalCheck(false, "kernelCost: unknown kind");
    return {};
}

tpu::KernelCost
HeOpCostModel::opCost(HeOp op, size_t level) const
{
    tpu::KernelCost total;
    total.name = heOpName(op);
    for (const auto &call : enumerateKernels(op, params_, level))
        total.append(kernelCost(call));
    return total;
}

tpu::KernelCost
HeOpCostModel::pipelineCost(const std::vector<PipelineOp> &pipeline,
                            size_t level) const
{
    tpu::KernelCost total;
    std::string name = "Pipeline[";
    for (size_t i = 0; i < pipeline.size(); ++i) {
        if (i)
            name += " > ";
        name += heOpName(pipeline[i].op);
        if (pipeline[i].op == HeOp::LinearTransform) {
            name += "x";
            name += std::to_string(pipeline[i].fanin);
            if (pipeline[i].weighted)
                name += "w";
        }
    }
    total.name = name + "]";
    for (const auto &call : enumerateKernels(pipeline, params_, level))
        total.append(kernelCost(call));
    return total;
}

double
HeOpCostModel::opLatencyUs(HeOp op, size_t level, u64 batch) const
{
    const auto cost = opCost(op, level);
    return tpu::runBatched(dev_, cost, batch).perItemUs;
}

double
HeOpCostModel::pipelineLatencyUs(const std::vector<PipelineOp> &pipeline,
                                 size_t level, u64 batch) const
{
    const auto cost = pipelineCost(pipeline, level);
    return tpu::runBatched(dev_, cost, batch).perItemUs;
}

std::map<tpu::OpCat, double>
HeOpCostModel::opBreakdown(HeOp op, size_t level) const
{
    const auto cost = opCost(op, level);
    return tpu::runBatched(dev_, cost, 1).byCat;
}

u32
bestRowSplit(const tpu::DeviceConfig &dev, const lowering::Config &cfg,
             u32 n)
{
    // The paper sweeps (R, C) in {(128, N/128) ... (512, N/512)} and
    // reports the best; for standalone NTT at small N it pins one
    // dimension to the 128-lane width. Radix-2 has no split.
    const u32 sqrt_split = 1u << ((ilog2(n) + 1) / 2);
    if (cfg.ntt == lowering::NttAlgo::Radix2)
        return sqrt_split;

    lowering::Lowering lower(dev, cfg);
    u32 best = sqrt_split;
    double best_us = -1;
    for (u32 r : {128u, 256u, 512u, sqrt_split}) {
        if (r >= n || n % r != 0 || r < 2)
            continue;
        const auto cost = lower.ntt(n, r, 1, false);
        const double us = tpu::runBatched(dev, cost, 1).totalUs;
        if (best_us < 0 || us < best_us) {
            best_us = us;
            best = r;
        }
    }
    return best;
}

} // namespace cross::ckks
