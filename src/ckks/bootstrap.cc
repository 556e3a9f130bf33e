#include "ckks/bootstrap.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace cross::ckks {

namespace {

/**
 * The one structural walk of the packed bootstrapping schedule
 * (ModRaise -> CoeffToSlot -> EvalMod -> SlotToCoeff). Every consumer
 * -- the op-level enumeration, the kernel expansion and the executable
 * bootstrapGraph -- replays this walk, so op counts and level
 * evolution can never drift between the estimator and the functional
 * engine.
 *
 * @p on_rot_group fires once per BSGS rotation group (nrot, level);
 * @p on_op fires for every non-rotation op (op, level).
 */
template <typename RotGroupFn, typename OpFn>
void
walkBootstrap(const CkksParams &p, const BootstrapConfig &cfg,
              RotGroupFn &&on_rot_group, OpFn &&on_op)
{
    requireThat(p.limbs > cfg.ctsLevels + cfg.stcLevels + 4,
                "bootstrap: modulus chain too short for the pipeline");
    size_t level = p.limbs - 1;
    const u32 slots = p.n / 2;
    const HeOp mat_mul =
        cfg.plainMatrices ? HeOp::MultiplyPlain : HeOp::Mult;
    const HeOp const_add = cfg.plainMatrices ? HeOp::AddPlain : HeOp::Add;

    // ModRaise bookkeeping (plaintext constants under plainMatrices).
    on_op(const_add, level);
    on_op(const_add, level);

    const double rho_d =
        std::pow(static_cast<double>(slots), 1.0 / cfg.ctsLevels);
    const size_t rho = static_cast<size_t>(std::llround(rho_d));
    const size_t bsgs = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(rho))));

    for (u32 s = 0; s < cfg.ctsLevels; ++s) {
        on_rot_group(2 * bsgs, level);
        on_op(mat_mul, level);
        on_op(mat_mul, level);
        for (size_t a = 0; a < rho; ++a)
            on_op(HeOp::Add, level);
        on_op(HeOp::Rescale, level);
        if (level > cfg.stcLevels + 4)
            --level;
    }

    const size_t cheb_mults = 2 * static_cast<size_t>(std::ceil(
        std::sqrt(static_cast<double>(cfg.evalModDegree))));
    for (size_t m = 0; m < cheb_mults; ++m) {
        on_op(HeOp::Mult, level);
        on_op(const_add, level);
        if (m % 2 == 1 && level > cfg.stcLevels + 2) {
            on_op(HeOp::Rescale, level);
            --level;
        }
    }
    for (u32 it = 0; it < cfg.evalModIters; ++it) {
        on_op(HeOp::Mult, level);
        on_op(HeOp::Add, level);
        on_op(HeOp::Add, level);
        on_op(HeOp::Rescale, level);
        if (level > cfg.stcLevels + 1)
            --level;
    }

    for (u32 s = 0; s < cfg.stcLevels; ++s) {
        on_rot_group(2 * bsgs, level);
        on_op(mat_mul, level);
        on_op(mat_mul, level);
        for (size_t a = 0; a < rho; ++a)
            on_op(HeOp::Add, level);
        on_op(HeOp::Rescale, level);
        if (level > 1)
            --level;
    }
}

} // namespace

std::vector<BootstrapOp>
enumerateBootstrapOps(const CkksParams &p, const BootstrapConfig &cfg)
{
    std::vector<BootstrapOp> ops;
    walkBootstrap(
        p, cfg,
        [&](size_t nrot, size_t level) {
            ops.push_back({HeOp::LinearTransform, level, nrot});
        },
        [&](HeOp op, size_t level) { ops.push_back({op, level, 1}); });
    return ops;
}

std::vector<KernelCall>
enumerateBootstrapKernels(const CkksParams &p, const BootstrapConfig &cfg,
                          BootstrapKernelMode mode)
{
    // Both modes expand the same op walk through the structural
    // enumerator; PerOp only unrolls each rotation group, so the
    // schedules differ by exactly (fanin - 1) ModUps per group.
    std::vector<KernelCall> v;
    for (const auto &bop : enumerateBootstrapOps(p, cfg)) {
        std::vector<PipelineOp> pops{{bop.op, bop.fanin}};
        if (mode == BootstrapKernelMode::PerOp &&
            bop.op == HeOp::LinearTransform) {
            pops.clear();
            for (size_t b = 0; b < bop.fanin; ++b)
                pops.insert(pops.end(), {{HeOp::Rotate}, {HeOp::Add}});
        }
        const auto k = enumerateKernels(pops, p, bop.level);
        v.insert(v.end(), k.begin(), k.end());
    }
    return v;
}

BootstrapGraph
bootstrapGraph(const CkksContext &ctx, const BootstrapConfig &cfg,
               double scale, u64 seed, BootstrapKernelMode mode)
{
    const std::vector<BootstrapOp> ops =
        enumerateBootstrapOps(ctx.params(), cfg);

    // Multiplicative operand scales: the k multiplications before a
    // Rescale at level l share q_l between them.
    std::vector<double> mul_scale(ops.size(), 1.0);
    std::vector<size_t> pending;
    for (size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].op == HeOp::Mult || ops[i].op == HeOp::MultiplyPlain) {
            pending.push_back(i);
        } else if (ops[i].op == HeOp::Rescale && !pending.empty()) {
            const double s = std::pow(
                static_cast<double>(ctx.qModulus(ops[i].level)),
                1.0 / static_cast<double>(pending.size()));
            for (size_t j : pending)
                mul_scale[j] = s;
            pending.clear();
        }
    }

    // One node per op, the scale ledger replaying the compiler's exact
    // floating-point updates so every Add operand meets its input spec.
    Rng rng(seed);
    const auto values = [&] {
        std::vector<double> v(ctx.degree() / 2);
        for (double &x : v)
            x = rng.real();
        return v;
    };
    BootstrapGraph bg;
    graph::Graph &g = bg.graph;
    auto &specs = bg.lowering.inputs;
    size_t limbs = ctx.qCount();
    double cur = scale;
    const auto operand = [&](double s) {
        specs.push_back({limbs, s});
        return g.input("operand");
    };
    graph::NodeId x = operand(scale);
    for (size_t i = 0; i < ops.size(); ++i) {
        // An execution consumes one limb per Rescale unconditionally,
        // so the walk's level guards (which stop decrementing near the
        // chain bottom) must never have bound.
        requireThat(ops[i].level + 1 == limbs,
                    "bootstrapGraph: config level guards bound; "
                    "schedule is not executable at these params "
                    "(lengthen the modulus chain)");
        switch (ops[i].op) {
          case HeOp::Add:
            x = g.add(x, operand(cur));
            break;
          case HeOp::AddPlain:
            x = g.addPlain(x, graph::PlainOperand::matching(values()));
            break;
          case HeOp::Mult:
            x = g.multiply(x, operand(mul_scale[i]));
            cur = cur * mul_scale[i];
            break;
          case HeOp::MultiplyPlain:
            x = g.multiplyPlain(
                x, graph::PlainOperand::at(values(), mul_scale[i]));
            cur = cur * mul_scale[i];
            break;
          case HeOp::Rescale:
            x = g.rescale(x);
            cur = cur / static_cast<double>(ctx.qModulus(limbs - 1));
            --limbs;
            break;
          case HeOp::LinearTransform: {
            // Every BSGS group is as wide as the rotation pool, so
            // cycling the pool gives each group the steps 1..fanin.
            std::vector<i64> steps(ops[i].fanin);
            for (size_t b = 0; b < steps.size(); ++b)
                steps[b] = static_cast<i64>(b + 1);
            if (mode == BootstrapKernelMode::Hoisted) {
                x = g.slotSum(x, std::move(steps));
                break;
            }
            // The rotated term is the Add's primary operand, so each
            // Rotate + Add pair fuses into one segment.
            graph::NodeId acc = x;
            for (i64 k : steps)
                acc = g.add(g.rotate(x, k), acc);
            x = acc;
            break;
          }
          default:
            internalCheck(false,
                          "bootstrapGraph: op not emitted by the "
                          "bootstrap walk");
        }
    }
    return bg;
}

BootstrapEstimate
estimateBootstrap(const tpu::DeviceConfig &dev,
                  const lowering::Config &lcfg, const CkksParams &params,
                  const BootstrapConfig &cfg)
{
    HeOpCostModel model(dev, lcfg, params);
    BootstrapEstimate est;
    est.heOps = enumerateBootstrapOps(params, cfg).size();

    for (const auto &call : enumerateBootstrapKernels(params, cfg)) {
        // Worst-case methodology: every kernel is its own launch.
        const auto cost = model.kernelCost(call);
        const double us = tpu::runBatched(dev, cost, 1).totalUs;
        est.totalUs += us;
        ++est.kernelLaunches;
        std::string key;
        switch (call.kind) {
          case KernelKind::Ntt:
          case KernelKind::Intt:
            key = "(I)NTT";
            break;
          case KernelKind::BConv:
            key = "BConv";
            break;
          case KernelKind::VecModMul:
          case KernelKind::VecModMulConst:
            key = "VecModMul";
            break;
          case KernelKind::VecModAdd:
          case KernelKind::VecModSub:
            key = "VecModAdd";
            break;
          case KernelKind::Automorphism:
            key = "Automorphism";
            break;
        }
        est.byKernelUs[key] += us;
    }
    return est;
}

} // namespace cross::ckks
