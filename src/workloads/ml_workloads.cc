#include "workloads/ml_workloads.h"

#include <map>

#include "ckks/graph/compiler.h"
#include "common/check.h"

namespace cross::workloads {

using ckks::CkksParams;
using ckks::HeOp;

namespace {

/** Branch steps of a log2 rotate-accumulate tree: 1, 2, 4, ... */
std::vector<i64>
powerSteps(size_t count)
{
    std::vector<i64> steps;
    steps.reserve(count);
    for (size_t j = 0; j < count; ++j)
        steps.push_back(static_cast<i64>(1) << j);
    return steps;
}

} // namespace

GraphWorkload
helrIterationGraph()
{
    // HELR [30]: batch 1024 images x 196 features packed into
    // ceil(1024*196 / (N/2)) ciphertexts at N = 2^12 (Set A-like chain
    // deep enough for one iteration: inner product, degree-3 sigmoid,
    // gradient, update). Node repeat counts carry the per-operator
    // ciphertext multiplicity.
    GraphWorkload gw;
    gw.name = "HELR logistic regression (1 iteration, batch 1024)";
    gw.params = CkksParams::testSet(1 << 12, 6, 3);
    gw.itemsPerRun = 1024;
    const u64 cts =
        (1024 * 196 + (gw.params.n / 2) - 1) / (gw.params.n / 2);

    ckks::graph::Graph &g = gw.graph;
    const auto rep = [&](ckks::graph::NodeId id) {
        g.setRepeat(id, cts);
        return id;
    };

    const auto x = g.input("packed features");

    // z = w . x: one plaintext-weight product folded as Mult, then a
    // rotate-accumulate tree over the 196 features (log2 -> 8 levels).
    auto ip = rep(g.multiply(x, x, "inner-product mult"));
    ip = rep(g.slotSum(ip, powerSteps(8), "inner-product rotate-sum"));
    ip = rep(g.rescale(ip, "rescale"));

    // sigma(z) ~ degree-3 polynomial: two multiplicative levels.
    auto s = ip;
    for (int r = 0; r < 2; ++r) {
        s = rep(g.multiply(s, s, "sigmoid mults"));
        s = rep(g.add(s, s, "sigmoid adds"));
        s = rep(g.rescale(s, "sigmoid rescale"));
    }

    // gradient = X^T (sigma - y): one mult + batch-sum rotation tree
    // (log2(1024 / packing rows) ~ 10) + update add.
    auto grad = rep(g.multiply(s, s, "gradient mult"));
    grad = rep(g.slotSum(grad, powerSteps(10), "gradient rotate-sum"));
    grad = rep(g.rescale(grad, "gradient rescale"));
    g.markOutput(rep(g.add(grad, grad, "weight update")));
    return gw;
}

GraphWorkload
mnistInferenceGraph()
{
    // WISE-style network [67]: 2 x {Conv-ReLU-AvgPool} -> FC -> ReLU ->
    // FC on 3x32x32 inputs, batch 64. HE parameters per Section V-D:
    // N = 2^13, L = 18, dnum = 3.
    GraphWorkload gw;
    gw.name = "MNIST CNN inference (batch 64)";
    gw.params = CkksParams::testSet(1 << 13, 18, 3);
    gw.itemsPerRun = 64;

    // Each image occupies its own ciphertext (3*32*32 = 3072 values fit
    // the 4096 slots once); channels multiply the repeat counts as the
    // network widens -- the packing the WISE reference model [67] uses.
    const u64 cts = 64;

    ckks::graph::Graph &g = gw.graph;
    const auto rep = [&](ckks::graph::NodeId id, u64 count) {
        g.setRepeat(id, count);
        return id;
    };
    auto cur = g.input("image");

    const auto conv = [&](const char *stage, u64 c_in, u64 c_out, u64 k) {
        // Per output channel: k^2 shifted-and-weighted copies of every
        // input-channel ciphertext, accumulated. Rotations are shared
        // across output channels; the weighted accumulations are
        // plaintext products, modelled as half-weight Mults (no key
        // switch but a full VecModMul + rescale pressure).
        cur = rep(g.rotate(cur, 1, stage), (k * k - 1) * c_in * cts);
        cur = rep(g.multiply(cur, cur, stage),
                  k * k * c_in * c_out * cts / 2);
        cur = rep(g.add(cur, cur, stage), k * k * c_in * c_out * cts / 2);
        cur = rep(g.rescale(cur, stage), c_out * cts);
    };
    const auto relu = [&](const char *stage, u64 channels) {
        // Composite minimax polynomial approximation of sign() (the
        // standard high-precision HE ReLU): ~12 ct-ct multiplies over 3
        // multiplicative levels per channel ciphertext.
        for (int r = 0; r < 3; ++r) {
            cur = rep(g.multiply(cur, cur, stage), 4 * channels * cts);
            cur = rep(g.add(cur, cur, stage), 4 * channels * cts);
            cur = rep(g.rescale(cur, stage), channels * cts);
        }
    };
    const auto pool = [&](const char *stage, u64 channels) {
        cur = rep(g.slotSum(cur, {1, 2, 4}, stage), channels * cts);
    };

    conv("conv1", 3, 8, 3);
    relu("relu1", 8);
    pool("pool1", 8);
    conv("conv2", 8, 16, 3);
    relu("relu2", 16);
    pool("pool2", 16);

    // FC1 (1024 -> 64): BSGS diagonal method over the 16 channel cts.
    cur = rep(g.rotate(cur, 1, "fc1"), 2 * 32 * 16 * cts / 4);
    cur = rep(g.multiply(cur, cur, "fc1"), 64 * 16 * cts / 8);
    cur = rep(g.add(cur, cur, "fc1"), 64 * 16 * cts / 8);
    cur = rep(g.rescale(cur, "fc1"), cts);
    relu("relu3", 1);
    // FC2 (64 -> 10).
    cur = rep(g.rotate(cur, 1, "fc2"), 16 * cts / 4);
    cur = rep(g.multiply(cur, cur, "fc2"), 10 * cts / 4);
    g.markOutput(rep(g.add(cur, cur, "fc2"), 10 * cts / 4));
    return gw;
}

Workload
workloadFromGraph(const GraphWorkload &gw)
{
    Workload w;
    w.name = gw.name;
    w.params = gw.params;
    w.itemsPerRun = gw.itemsPerRun;

    const auto push = [&](const std::string &stage, HeOp op, size_t level,
                          u64 count) {
        if (count == 0)
            return;
        if (!w.ops.empty()) {
            OpGroup &back = w.ops.back();
            if (back.stage == stage && back.op == op &&
                back.level == level) {
                back.count += count;
                return;
            }
        }
        w.ops.push_back({stage, op, level, count});
    };
    for (const auto &op :
         ckks::graph::enumerateGraphOps(gw.graph, gw.params,
                                        gw.lowering)) {
        const std::string stage = op.label.empty() ? "op" : op.label;
        if (op.op == HeOp::LinearTransform) {
            // The transform runs one rotate [+ multiplyPlain] + one
            // accumulate add per branch, plus the identity term's
            // multiplyPlain when weighted, per repetition.
            push(stage, HeOp::Rotate, op.level, op.fanin * op.repeat);
            if (op.weighted)
                push(stage, HeOp::MultiplyPlain, op.level,
                     (op.fanin + 1) * op.repeat);
            push(stage, HeOp::Add, op.level, op.fanin * op.repeat);
        } else {
            push(stage, op.op, op.level, op.repeat);
        }
    }
    return w;
}

Workload
helrIteration()
{
    return workloadFromGraph(helrIterationGraph());
}

Workload
mnistInference()
{
    return workloadFromGraph(mnistInferenceGraph());
}

ckks::graph::Graph
denseSquareLayerGraph(const std::vector<std::vector<double>> &w,
                      const std::vector<double> &bias, size_t replicate)
{
    requireThat(!w.empty() && bias.size() == w.size(),
                "denseSquareLayerGraph: bias length must match the "
                "matrix dimension");
    ckks::graph::Graph g;
    const auto x = g.input("x");
    const auto mv = g.matVec(x, w, replicate, "matvec");
    const auto r = g.rescale(mv, "matvec rescale");
    std::vector<double> bias_packed;
    bias_packed.reserve(bias.size() * replicate);
    for (size_t rep = 0; rep < replicate; ++rep)
        bias_packed.insert(bias_packed.end(), bias.begin(), bias.end());
    const auto b = g.addPlain(
        r, ckks::graph::PlainOperand::matching(bias_packed), "bias");
    const auto sq = g.multiply(b, b, "square");
    g.markOutput(g.rescale(sq, "square rescale"));
    return g;
}

ckks::graph::Graph
helrGradientGraph(const std::vector<double> &y_slots)
{
    requireThat(!y_slots.empty(),
                "helrGradientGraph: need at least one label slot");
    ckks::graph::Graph g;
    const auto z = g.input("z");
    const auto yz = g.rescale(
        g.multiplyPlain(z, ckks::graph::PlainOperand::base(y_slots),
                        "label mask"),
        "label mask rescale");
    g.markOutput(g.polynomial(yz, {0.5, -0.197, 0.0, 0.004},
                              y_slots.size(), "sigmoid gradient"));
    return g;
}

WorkloadEstimate
estimateWorkload(const Workload &w, const tpu::DeviceConfig &dev,
                 const lowering::Config &cfg, u32 tc_count)
{
    requireThat(tc_count >= 1, "estimateWorkload: need >= 1 tensor core");
    ckks::HeOpCostModel model(dev, cfg, w.params);

    WorkloadEstimate est;
    std::map<std::string, double> stages;
    // Cache per (op, level): the schedules repeat heavily.
    std::map<std::pair<int, size_t>, double> cache;
    for (const auto &g : w.ops) {
        const auto key = std::make_pair(static_cast<int>(g.op), g.level);
        auto it = cache.find(key);
        if (it == cache.end()) {
            it = cache
                     .emplace(key,
                              model.opLatencyUs(g.op, g.level))
                     .first;
        }
        const double us = it->second * static_cast<double>(g.count);
        est.totalUs += us;
        stages[g.stage] += us;
        est.heOps += g.count;
    }
    // Independent ciphertexts parallelise across tensor cores.
    est.totalUs /= tc_count;
    for (auto &[k, v] : stages)
        est.byStageUs.emplace_back(k, v / tc_count);
    est.perItemUs = est.totalUs / static_cast<double>(w.itemsPerRun);
    return est;
}

} // namespace cross::workloads
