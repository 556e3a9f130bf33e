#include "ckks/graph/compiler.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "ckks/encoder.h"
#include "ckks/evaluator.h"
#include "common/check.h"
#include "common/timer.h"

namespace cross::ckks::graph {

namespace {

/** Ledger entry of one graph edge: the (limb count, scale) a value
 *  has after its producing node, tracked through the evaluator's
 *  exact floating-point updates. */
struct Ledger
{
    size_t limbs = 0;
    double scale = 0.0;
};

[[noreturn]] void
failAt(NodeId id, const Node &n, const std::string &msg)
{
    std::string where =
        "graph: " + msg + " at node #" + std::to_string(id) + " (" +
        nodeKindName(n.kind);
    if (!n.label.empty())
        where += ", " + n.label;
    where += ")";
    throw std::invalid_argument(where);
}

double
resolvePlainScale(const PlainOperand &p, double cur_scale, double base)
{
    switch (p.policy) {
      case PlainOperand::ScalePolicy::Base:
        return base;
      case PlainOperand::ScalePolicy::Match:
        return cur_scale;
      case PlainOperand::ScalePolicy::Explicit:
        return p.explicitScale;
    }
    return base;
}

/** Everything the ledger walk learns about an expanded graph. */
struct WalkResult
{
    std::vector<GraphOp> ops;     ///< flat, program order
    std::vector<GraphOp> nodeOp;  ///< per node (unset: Input, Reduce)
    std::vector<Ledger> after;    ///< ledger after node
    std::vector<double> ptScale;  ///< resolved plaintext operand scale
    std::vector<InputSpec> inputSpecs; ///< resolved per input
    std::vector<NodeId> outputs;       ///< effective outputs
};

/**
 * The shared lowering walk. With @p ctx (exact mode) the rescale
 * divisors are the real moduli and scale mismatches fail fast --
 * compileGraph's contract. Without it (structural mode) moduli are
 * nominal 2^logq and only level violations throw -- what
 * enumerateGraphOps needs to price a workload without building keys.
 */
WalkResult
walkGraph(const Graph &ex, const CkksParams &params,
          const CkksContext *ctx, const LoweringOptions &opts)
{
    const bool exact = ctx != nullptr;
    const double base = opts.baseScale > 0
                            ? opts.baseScale
                            : std::ldexp(1.0, static_cast<int>(
                                                  params.scaleBits));
    const auto q_at = [&](size_t i) {
        return exact ? static_cast<double>(ctx->qModulus(i))
                     : std::ldexp(1.0, static_cast<int>(params.logq));
    };
    requireThat(opts.inputs.empty() ||
                    opts.inputs.size() == ex.inputs().size(),
                "graph: input spec count does not match graph inputs");

    const auto &nodes = ex.nodes();
    WalkResult wr;
    wr.nodeOp.resize(nodes.size());
    wr.after.resize(nodes.size());
    wr.ptScale.assign(nodes.size(), 0.0);

    size_t input_idx = 0;
    for (NodeId id = 0; id < nodes.size(); ++id) {
        const Node &n = nodes[id];
        Ledger cur;
        if (n.kind != NodeKind::Input)
            cur = wr.after[n.args[0]];

        // The node's one operator, at the level it executes at.
        const auto emit = [&](HeOp op, size_t fanin = 1,
                              bool weighted = false) {
            GraphOp &gop = wr.nodeOp[id];
            gop.node = id;
            gop.op = op;
            gop.fanin = fanin;
            gop.weighted = weighted;
            gop.level = cur.limbs - 1;
            gop.repeat = n.repeat;
            gop.label = n.label;
            wr.ops.push_back(gop);
        };

        switch (n.kind) {
          case NodeKind::Input: {
            InputSpec spec;
            if (!opts.inputs.empty())
                spec = opts.inputs[input_idx];
            ++input_idx;
            cur.limbs = spec.limbs > 0 ? spec.limbs : params.limbs;
            if (cur.limbs > params.limbs)
                failAt(id, n, "input level above the modulus chain");
            cur.scale = spec.scale > 0 ? spec.scale : base;
            wr.inputSpecs.push_back({cur.limbs, cur.scale});
            break;
          }
          case NodeKind::Add: {
            const Ledger &rhs = wr.after[n.args[1]];
            if (exact && !ckksScalesMatch(cur.scale, rhs.scale))
                failAt(id, n, "add operand scales do not match");
            cur.limbs = std::min(cur.limbs, rhs.limbs);
            emit(HeOp::Add);
            break;
          }
          case NodeKind::Multiply: {
            const Ledger &rhs = wr.after[n.args[1]];
            cur.limbs = std::min(cur.limbs, rhs.limbs);
            emit(HeOp::Mult);
            cur.scale = cur.scale * rhs.scale;
            break;
          }
          case NodeKind::AddPlain: {
            const double pts =
                resolvePlainScale(n.plain, cur.scale, base);
            wr.ptScale[id] = pts;
            if (exact && !ckksScalesMatch(cur.scale, pts))
                failAt(id, n,
                       "addPlain operand scale does not match the "
                       "ciphertext scale");
            emit(HeOp::AddPlain);
            break;
          }
          case NodeKind::MultiplyPlain: {
            const double pts =
                resolvePlainScale(n.plain, cur.scale, base);
            wr.ptScale[id] = pts;
            emit(HeOp::MultiplyPlain);
            cur.scale *= pts;
            break;
          }
          case NodeKind::Rotate:
            emit(HeOp::Rotate);
            break;
          case NodeKind::LinearTransform: {
            const bool weighted = !n.weights.empty();
            // The diagonal method reads slot i + d < 2 dim as
            // x[(i + d) % dim]: only a replicated block, or one that
            // spans every slot, wraps that way.
            if (weighted && !n.branchSteps.empty() && n.replicate < 2 &&
                n.weights.size() != params.n / 2)
                failAt(id, n,
                       "matVec needs replicate >= 2 unless its "
                       "dimension equals the slot count (rotations "
                       "would not wrap within the block)");
            emit(HeOp::LinearTransform, n.branchSteps.size(), weighted);
            if (weighted) {
                wr.ptScale[id] = base;
                cur.scale *= base;
            }
            break;
          }
          case NodeKind::Rescale:
            if (cur.limbs < 2)
                failAt(id, n, "rescale has no limb left to drop");
            emit(HeOp::Rescale);
            cur.scale /= q_at(cur.limbs - 1);
            --cur.limbs;
            break;
          case NodeKind::Reduce: {
            const Ledger &ref = wr.after[n.args[1]];
            if (ref.limbs > cur.limbs)
                failAt(id, n,
                       "reduce reference has more limbs than the "
                       "operand");
            cur.limbs = ref.limbs;
            if (n.adoptScale)
                cur.scale = ref.scale;
            break;
          }
          case NodeKind::Polynomial:
            failAt(id, n,
                   "macro node reached the lowering walk (expand "
                   "first)");
        }
        wr.after[id] = cur;
    }

    wr.outputs = ex.outputs();
    if (wr.outputs.empty() && !nodes.empty())
        wr.outputs.push_back(static_cast<NodeId>(nodes.size() - 1));
    return wr;
}

/** One planned execution step: a Reduce node or a group of
 *  consecutive nodes fused into one pipeline segment. */
struct StepPlan
{
    bool isReduce = false;
    NodeId node = 0;            ///< Reduce node
    std::vector<NodeId> group;  ///< segment nodes, program order
};

/**
 * Segmentation: nodes fuse into the running segment while they form a
 * pure chain -- the new node's primary input is the segment's last
 * node, that value has no other consumer (and is not a graph output,
 * which must be materialized), and every secondary operand is already
 * materialized. Reduce nodes force a segment boundary. Execution order
 * is program order, so results and per-item kernel sequences do not
 * depend on where the segment boundaries fall.
 */
std::vector<StepPlan>
planSteps(const Graph &ex, const WalkResult &wr)
{
    const auto &nodes = ex.nodes();
    std::vector<u32> uses(nodes.size(), 0);
    for (const Node &n : nodes) {
        if (n.kind == NodeKind::Input)
            continue;
        ++uses[n.args[0]];
        if (n.kind == NodeKind::Add || n.kind == NodeKind::Multiply)
            ++uses[n.args[1]];
    }
    std::vector<bool> is_output(nodes.size(), false);
    for (NodeId o : wr.outputs) {
        is_output[o] = true;
        ++uses[o];
    }

    std::vector<bool> materialized(nodes.size(), false);
    std::vector<StepPlan> plan;
    std::vector<NodeId> group;
    const auto close = [&] {
        if (group.empty())
            return;
        materialized[group.back()] = true;
        StepPlan sp;
        sp.group = std::move(group);
        plan.push_back(std::move(sp));
        group.clear();
    };

    for (NodeId id = 0; id < nodes.size(); ++id) {
        const Node &n = nodes[id];
        if (n.kind == NodeKind::Input) {
            materialized[id] = true;
            continue;
        }
        if (n.kind == NodeKind::Reduce) {
            close();
            internalCheck(materialized[n.args[0]],
                          "graph: reduce operand not materialized");
            StepPlan sp;
            sp.isReduce = true;
            sp.node = id;
            plan.push_back(std::move(sp));
            materialized[id] = true;
            continue;
        }
        bool extend = !group.empty() && n.args[0] == group.back() &&
                      uses[group.back()] == 1 &&
                      !is_output[group.back()];
        if (extend &&
            (n.kind == NodeKind::Add || n.kind == NodeKind::Multiply))
            extend = materialized[n.args[1]];
        if (!extend) {
            close();
            internalCheck(materialized[n.args[0]],
                          "graph: segment input not materialized");
            if (n.kind == NodeKind::Add || n.kind == NodeKind::Multiply)
                internalCheck(materialized[n.args[1]],
                              "graph: segment operand not "
                              "materialized");
        }
        group.push_back(id);
    }
    close();
    return plan;
}

} // namespace

std::vector<GraphOp>
enumerateGraphOps(const Graph &g, const CkksParams &params,
                  const LoweringOptions &opts)
{
    const Graph ex = g.expanded();
    return walkGraph(ex, params, nullptr, opts).ops;
}

std::unique_ptr<CompiledGraph>
compileGraph(const CkksContext &ctx, const Graph &g,
             const CompileOptions &opts)
{
    const CkksParams &params = ctx.params();
    const Graph ex = g.expanded();
    const WalkResult wr = walkGraph(ex, params, &ctx, opts.lowering);
    const auto &nodes = ex.nodes();

    std::unique_ptr<CompiledGraph> cg(new CompiledGraph());
    cg->ctx_ = &ctx;
    cg->ops_ = wr.ops;
    cg->inputIds_ = ex.inputs();
    cg->outputIds_ = wr.outputs;
    cg->inputSpecs_ = wr.inputSpecs;

    // Galois elements of every rotation the lowered program performs:
    // one per Rotate node, one per LinearTransform branch.
    const CkksEncoder enc(ctx);
    std::map<NodeId, std::vector<u32>> rot_idx;
    std::set<u32> galois;
    bool need_relin = false;
    for (NodeId id = 0; id < nodes.size(); ++id) {
        const Node &n = nodes[id];
        if (n.kind == NodeKind::Rotate ||
            n.kind == NodeKind::LinearTransform) {
            auto &v = rot_idx[id];
            for (i64 s : n.kind == NodeKind::Rotate
                             ? std::vector<i64>{n.steps}
                             : n.branchSteps) {
                v.push_back(enc.rotationAutomorphism(s));
                galois.insert(v.back());
            }
        } else if (n.kind == NodeKind::Multiply) {
            need_relin = true;
        }
    }

    // Key material: explicit caller keys fail fast when one is
    // missing; a generator derives exactly the working set.
    if (need_relin) {
        if (opts.relinKey) {
            cg->relinKey_ = opts.relinKey;
        } else if (opts.keygen) {
            cg->ownedRelinKey_ =
                std::make_unique<SwitchKey>(opts.keygen->relinKey());
            cg->relinKey_ = cg->ownedRelinKey_.get();
        } else {
            throw std::invalid_argument(
                "graph compile: the graph multiplies ciphertexts but "
                "no relinearisation key or key generator was given");
        }
    }
    std::map<u32, const SwitchKey *> rot_keys;
    for (u32 a : galois) {
        if (opts.rotationKeys) {
            const auto it = opts.rotationKeys->find(a);
            if (it == opts.rotationKeys->end())
                throw std::invalid_argument(
                    "graph compile: missing rotation key for Galois "
                    "element " +
                    std::to_string(a));
            rot_keys[a] = &it->second;
        } else if (opts.keygen) {
            cg->ownedRotKeys_.emplace(a, opts.keygen->rotationKey(a));
            rot_keys[a] = &cg->ownedRotKeys_.at(a);
        } else {
            throw std::invalid_argument(
                "graph compile: the graph rotates slots but no "
                "rotation keys or key generator was given");
        }
    }

    // Key working-set plan vs the residency budget.
    std::set<std::tuple<bool, u32, size_t>> seen;
    for (const GraphOp &op : cg->ops_) {
        const auto add_entry = [&](bool relin, u32 a, size_t level) {
            if (!seen.insert({relin, a, level}).second)
                return;
            KeyWorkingSet::Entry e;
            e.relin = relin;
            e.autoIdx = a;
            e.level = level;
            e.bytes = ctx.hybridKeySwitch().precompBytes(level);
            cg->keyPlan_.entries.push_back(e);
            cg->keyPlan_.totalBytes += e.bytes;
        };
        if (op.op == HeOp::Mult)
            add_entry(true, 0, op.level);
        else if (op.op == HeOp::Rotate ||
                 op.op == HeOp::LinearTransform)
            for (u32 a : rot_idx.at(op.node))
                add_entry(false, a, op.level);
    }
    cg->keyPlan_.budgetBytes = ctx.keySwitchCache().byteBudget();
    cg->keyPlan_.fitsResidency =
        cg->keyPlan_.budgetBytes == 0 ||
        cg->keyPlan_.totalBytes <= cg->keyPlan_.budgetBytes;

    // Build the executable steps. Stage operands (plaintexts, keys)
    // point at owned, address-stable storage; Add/Mult second operands
    // are value slots, bound per run.
    using Slots = CompiledGraph::Slots;
    cg->slotCount_ = nodes.size();
    // Index of the last step reading each slot.
    constexpr size_t kUnread = static_cast<size_t>(-1);
    std::vector<size_t> last_read(nodes.size(), kUnread);
    for (const auto &sp : planSteps(ex, wr)) {
        CompiledGraph::Step step;
        if (sp.isReduce) {
            const Node &n = nodes[sp.node];
            step.isReduce = true;
            step.in = n.args[0];
            step.out = sp.node;
            step.reduceLimbs = wr.after[sp.node].limbs;
            step.reduceScale = wr.after[sp.node].scale;
            last_read[step.in] = cg->steps_.size();
            cg->steps_.push_back(std::move(step));
            continue;
        }
        step.in = nodes[sp.group.front()].args[0];
        step.out = sp.group.back();
        last_read[step.in] = cg->steps_.size();
        for (NodeId id : sp.group) {
            const Node &n = nodes[id];
            const GraphOp &op = wr.nodeOp[id];
            switch (op.op) {
              case HeOp::Add:
                last_read[n.args[1]] = cg->steps_.size();
                step.stages.push_back(
                    [rhs = n.args[1]](Pipeline &p, const Slots &at) {
                        p.add(*at[rhs]);
                    });
                break;
              case HeOp::Mult:
                last_read[n.args[1]] = cg->steps_.size();
                step.stages.push_back(
                    [rhs = n.args[1], key = cg->relinKey_](
                        Pipeline &p, const Slots &at) {
                        p.multiply(*at[rhs], *key);
                    });
                break;
              case HeOp::Rescale:
                step.stages.push_back(
                    [](Pipeline &p, const Slots &) { p.rescale(); });
                break;
              case HeOp::Rotate: {
                const u32 a = rot_idx.at(id).front();
                const SwitchKey *key = rot_keys.at(a);
                step.stages.push_back([a, key](Pipeline &p, const Slots &) {
                    p.rotate(a, *key);
                });
                break;
              }
              case HeOp::AddPlain:
              case HeOp::MultiplyPlain: {
                cg->plains_.push_back(enc.encodeReal(
                    n.plain.values, wr.ptScale[id], op.level + 1));
                const Plaintext *pt = &cg->plains_.back();
                if (op.op == HeOp::AddPlain)
                    step.stages.push_back(
                        [pt](Pipeline &p, const Slots &) {
                            p.addPlain(*pt);
                        });
                else
                    step.stages.push_back(
                        [pt](Pipeline &p, const Slots &) {
                            p.multiplyPlain(*pt);
                        });
                break;
              }
              case HeOp::LinearTransform: {
                // Weighted terms encode at the stage's level, identity
                // term first.
                const auto &idx = rot_idx.at(id);
                std::vector<const Plaintext *> pts(idx.size() + 1, nullptr);
                for (size_t t = 0; t < n.weights.size(); ++t) {
                    cg->plains_.push_back(enc.encodeReal(
                        n.weights[t], wr.ptScale[id], op.level + 1));
                    pts[t] = &cg->plains_.back();
                }
                std::vector<RotateBranch> branches;
                for (size_t b = 0; b < idx.size(); ++b)
                    branches.push_back(
                        {idx[b], rot_keys.at(idx[b]), pts[b + 1]});
                step.stages.push_back(
                    [branches, identity = pts[0]](Pipeline &p, const Slots &) {
                        p.linearTransform(branches, identity);
                    });
                break;
              }
            }
        }
        ++cg->segments_;
        cg->steps_.push_back(std::move(step));
    }
    // Graph inputs are the caller's and outputs are returned: a run
    // frees neither.
    for (NodeId id : cg->inputIds_)
        last_read[id] = kUnread;
    for (NodeId id : cg->outputIds_)
        last_read[id] = kUnread;
    for (NodeId id = 0; id < nodes.size(); ++id)
        if (last_read[id] != kUnread)
            cg->steps_[last_read[id]].release.push_back(id);
    return cg;
}

void
CompiledGraph::checkInput(size_t k, const Ciphertext &ct) const
{
    requireThat(k < inputSpecs_.size(),
                "CompiledGraph: input index out of range");
    requireThat(ct.limbs() == inputSpecs_[k].limbs,
                "CompiledGraph: input item level does not match the "
                "compiled ledger");
    requireThat(ckksScalesMatch(ct.scale, inputSpecs_[k].scale),
                "CompiledGraph: input item scale does not match the "
                "compiled ledger");
}

std::vector<CtVec>
CompiledGraph::execute(const std::vector<CtVec> &inputs,
                       const SegmentRunner &segment) const
{
    requireThat(inputs.size() == inputIds_.size(),
                "CompiledGraph::run: input count does not match the "
                "graph");
    for (size_t k = 0; k < inputs.size(); ++k) {
        requireThat(inputs[k].size() == inputs.front().size(),
                    "CompiledGraph::run: input batches must have the "
                    "same item count");
        for (const Ciphertext &ct : inputs[k])
            checkInput(k, ct);
    }

    // This run's value table: graph inputs are read in place, and
    // every step's result lives in a slot owned by this call until
    // its last reader has run.
    std::vector<CtVec> owned(slotCount_);
    Slots at(slotCount_, nullptr);
    for (size_t k = 0; k < inputs.size(); ++k)
        at[inputIds_[k]] = &inputs[k];
    const CkksEvaluator ev(*ctx_);
    for (const Step &st : steps_) {
        const CtVec &in = *at[st.in];
        if (st.isReduce) {
            CtVec out(in.size());
            for (size_t i = 0; i < in.size(); ++i) {
                out[i] = ev.reduceToLimbs(in[i], st.reduceLimbs);
                out[i].scale = st.reduceScale;
            }
            owned[st.out] = std::move(out);
        } else {
            Pipeline pipe;
            for (const StageBuilder &add_stage : st.stages)
                add_stage(pipe, at);
            owned[st.out] = segment(in, pipe);
        }
        at[st.out] = &owned[st.out];
        for (NodeId id : st.release)
            owned[id] = CtVec();
    }
    std::vector<CtVec> res;
    res.reserve(outputIds_.size());
    for (NodeId o : outputIds_)
        res.push_back(*at[o]);
    return res;
}

std::vector<CtVec>
CompiledGraph::run(const BatchEvaluator &batch,
                   const std::vector<CtVec> &inputs) const
{
    requireThat(&batch.context() == ctx_,
                "CompiledGraph::run: evaluator bound to a different "
                "context");
    const WallTimer timer;
    auto out = execute(inputs, [&](const CtVec &in, const Pipeline &pipe) {
        return batch.run(in, pipe);
    });
    // Keep the fastest completed run; 0 stays reserved for "never run".
    const u64 us = std::max<u64>(1, static_cast<u64>(timer.micros()));
    u64 fastest = fastestRunUs_.load(std::memory_order_relaxed);
    while ((fastest == 0 || us < fastest) &&
           !fastestRunUs_.compare_exchange_weak(fastest, us,
                                                std::memory_order_relaxed))
        ;
    return out;
}

std::vector<CtVec>
CompiledGraph::runSequential(KernelLog *log,
                             const std::vector<CtVec> &inputs) const
{
    const CkksEvaluator ev(*ctx_, log);
    return execute(inputs, [&](const CtVec &in, const Pipeline &pipe) {
        CtVec out(in.size());
        for (size_t i = 0; i < in.size(); ++i) {
            Ciphertext cur = in[i];
            for (const PipelineStage &stage : pipe.stages()) {
                // Uncached precomps at the level the stage switches
                // at: a Mult's lower operand's, else the item's.
                size_t limbs = cur.limbs();
                if (stage.op == HeOp::Mult)
                    limbs = std::min(limbs, (*stage.rhs)[i].limbs());
                std::vector<KeySwitchCache::Shared> pre;
                for (const SwitchKey *key : stageKeys(stage))
                    pre.push_back(std::make_shared<const KeySwitchPrecomp>(
                        ev.precomputeKeySwitch(*key, limbs - 1)));
                cur = applyStage(ev, stage, std::move(cur), i, pre);
            }
            out[i] = std::move(cur);
        }
        return out;
    });
}

} // namespace cross::ckks::graph
