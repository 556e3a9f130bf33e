/**
 * @file
 * Graph compiler: lowers an operator graph (graph.h) -- an ML workload
 * or the bootstrap schedule (bootstrap.h's bootstrapGraph) -- onto the
 * fused Pipeline / BatchEvaluator machinery.
 *
 * Lowering walks the expanded graph in program order and maintains a
 * level/scale *ledger* per edge that replays the evaluator's exact
 * floating-point scale updates (the walkBootstrap trick): every
 * add/addPlain operand pair is checked against the same
 * ckksScalesMatch predicate the evaluator applies, every rescale
 * divides by the real q_l, and plaintext operands are encoded at the
 * ledger's (limbs, scale) -- so a graph that compiles executes without
 * a single scale or level surprise, and a malformed one fails at
 * compile time with the node that broke.
 *
 * The compiler also plans the rotation/relinearisation key working set
 * against the context's KeySwitchCache byte budget (KeyWorkingSet: the
 * distinct (key, level) precomps the compiled program touches and
 * whether they fit residency), and fuses maximal pure chains into
 * pipeline segments, one BatchEvaluator::run per segment. Pricing a
 * graph on the simulated device is the estimator's job
 * (enumerateGraphOps + HeOpCostModel), not the compiler's.
 *
 * The compiled program is the one runtime form of a model: compiled
 * once, then run any number of times, including concurrently.
 * CompiledGraph::run keeps no per-run state in the object -- its one
 * cross-run statistic is the fastest completed run time
 * (fastestRunMicros, a relaxed atomic) -- so concurrent run() calls on
 * one model are safe; a BatchEvaluator that carries a KernelLog must
 * not be shared between them.
 */
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ckks/batch_evaluator.h"
#include "ckks/graph/graph.h"
#include "ckks/he_op.h"
#include "ckks/keys.h"

namespace cross::ckks::graph {

/** Level/scale of one graph input. Zero fields mean the defaults:
 *  the full modulus chain and the base scale. */
struct InputSpec
{
    size_t limbs = 0;
    double scale = 0.0;
};

/** Ledger / lowering knobs shared by compileGraph and the structural
 *  enumerator. */
struct LoweringOptions
{
    /** Scale of Base-policy plaintext operands and default input
     *  scale; 0 = 2^params.scaleBits. */
    double baseScale = 0.0;
    /** Per-input levels/scales; empty = all defaults. */
    std::vector<InputSpec> inputs;
};

/**
 * One lowered HE operator: what the compiled program executes, in
 * program order. Every other node lowers to exactly one operator;
 * Reduce nodes lower to none (reduceToLimbs runs no kernels).
 * Concatenating enumerateKernels({op, fanin, weighted}, params, level)
 * over the list predicts a sequential run's KernelLog exactly.
 */
struct GraphOp
{
    NodeId node = 0;   ///< expanded-graph node this op came from
    HeOp op = HeOp::Add;
    size_t fanin = 1;  ///< LinearTransform branch count (1 otherwise)
    bool weighted = false; ///< LinearTransform built by matVec
    size_t level = 0;  ///< level the op executes at
    u64 repeat = 1;    ///< estimator multiplicity (node's repeat)
    std::string label; ///< node's stage label
};

/**
 * Structural lowering: the (op, level) schedule of @p g under the
 * ledger rules, without a context, keys or operand encoding (moduli
 * are taken at their nominal 2^logq width). This is what the workload
 * estimators price -- the same walk compileGraph executes, so the
 * estimated schedule cannot drift from the functional one.
 */
std::vector<GraphOp> enumerateGraphOps(const Graph &g,
                                       const CkksParams &params,
                                       const LoweringOptions &opts = {});

/** Launch granularity of the compiled program. The one schedule runs
 *  maximal fused segments, one BatchEvaluator::run each, with every
 *  matVec or slotSum as one LinearTransform stage whose rotations
 *  share one ModUp (Halevi-Shoup hoisting). The option stays because
 *  the Set-B benchmark (setbench/) names it. */
enum class ScheduleKind
{
    Fused,
};

/** Key material and lowering knobs for compileGraph. */
struct CompileOptions
{
    LoweringOptions lowering;

    /** @name Key sources. Either a generator (the compiler derives and
     *  owns exactly the rotation keys the graph needs, plus the relin
     *  key unless one is supplied), or explicit caller-owned keys --
     *  then a rotation the graph needs but the map lacks fails the
     *  compile. Caller-owned keys must outlive the CompiledGraph.
     *  @{ */
    KeyGenerator *keygen = nullptr;
    const SwitchKey *relinKey = nullptr;
    /** Caller rotation keys by Galois element. */
    const std::map<u32, SwitchKey> *rotationKeys = nullptr;
    /** @} */

    ScheduleKind schedule = ScheduleKind::Fused;
};

/**
 * The rotation/relin key working set of a compiled graph: one entry
 * per distinct (key, level) precomp the program touches, with the
 * byte sizes the KeySwitchCache accounts (KeySwitchPrecomp::
 * paramBytes), against the context's residency budget.
 */
struct KeyWorkingSet
{
    struct Entry
    {
        bool relin = false; ///< relinearisation key (autoIdx unused)
        u32 autoIdx = 0;    ///< rotation: Galois element
        size_t level = 0;
        size_t bytes = 0;
    };

    std::vector<Entry> entries;
    size_t totalBytes = 0;
    /** Context cache budget (0 = unbounded). */
    size_t budgetBytes = 0;
    /** Whole working set stays resident at once (always true when the
     *  budget is unbounded). When false, a run still executes
     *  correctly but re-builds evicted precomps LRU-style. */
    bool fitsResidency = true;
};

/**
 * A lowered, runnable graph. Owns its step plan, plaintext operands and
 * generated keys (stages point into the owned storage, so the object
 * is neither copyable nor movable; compileGraph hands it out by
 * unique_ptr). run() and runSequential() are const and keep no
 * per-run state: each call reads the graph inputs in place, keeps its
 * intermediate values in its own slot table (each freed once the last
 * step reading it has run) and builds every segment's Pipeline against
 * that table; across runs only fastestRunMicros() is kept. Concurrent
 * run() calls on one CompiledGraph are therefore safe, but a
 * BatchEvaluator that carries a KernelLog must not be shared between
 * them (the log is not synchronised); give each concurrent caller its
 * own evaluator.
 */
class CompiledGraph
{
  public:
    /**
     * Execute on a batch: @p inputs, one CtVec per graph input (all
     * the same item count), each item at its input's ledger level and
     * scale (validated fail-fast). Returns one CtVec per graph
     * output. Results and the merged KernelLog are bit-identical to
     * runSequential at any thread count. A completed run records its
     * wall time in fastestRunMicros().
     */
    std::vector<CtVec> run(const BatchEvaluator &batch,
                           const std::vector<CtVec> &inputs) const;

    /**
     * Sequential reference: item by item, stage by stage, each stage
     * through applyStage with precomps it builds itself through
     * precomputeKeySwitch (no residency cache, no prevalidation walk,
     * no thread pool: everything runs on the caller's thread). The
     * conformance baseline for run()'s caching, prevalidation and
     * threading, and the stack's one sequential reference interpreter. Because run()
     * executes the same applyStage, what a stage computes is checked
     * against hand-rolled per-op CkksEvaluator loops, not against
     * this. A reference run is not a measurement: it leaves
     * fastestRunMicros() alone.
     */
    std::vector<CtVec> runSequential(KernelLog *log,
                                     const std::vector<CtVec> &inputs) const;

    /**
     * Fail fast unless @p ct arrives at input @p k's ledger level and
     * scale (inputLedger()[k]): the check run() applies to every input
     * item, exposed so a caller queueing single requests (the serving
     * engine) rejects a mismatched one at submit time.
     *
     * @throws std::invalid_argument on a level or scale mismatch.
     */
    void checkInput(size_t k, const Ciphertext &ct) const;

    /** The context the graph was compiled for; run() accepts only an
     *  evaluator bound to it. */
    const CkksContext &context() const { return *ctx_; }

    /** The lowered operator schedule, in program order. */
    const std::vector<GraphOp> &ops() const { return ops_; }

    /** The planned key working set vs the cache budget. */
    const KeyWorkingSet &keyPlan() const { return keyPlan_; }

    /**
     * Wall time of the fastest completed run() so far, in microseconds
     * (at least 1), or 0 before the first one. No request served
     * through this model is expected to finish sooner on this host,
     * whatever its batch; the serving engine's deadline admission
     * reads it.
     */
    u64 fastestRunMicros() const
    {
        return fastestRunUs_.load(std::memory_order_relaxed);
    }

    /** Fused pipeline segments the program executes. */
    size_t segmentCount() const { return segments_; }

    /** Resolved (limbs, scale) each input must arrive at. */
    const std::vector<InputSpec> &inputLedger() const
    {
        return inputSpecs_;
    }

    /** @name Interface arity (the serving layer admits only 1-in /
     *  1-out models for request-level batching). @{ */
    size_t inputCount() const { return inputIds_.size(); }
    size_t outputCount() const { return outputIds_.size(); }
    /** @} */

    CompiledGraph(const CompiledGraph &) = delete;
    CompiledGraph &operator=(const CompiledGraph &) = delete;

  private:
    CompiledGraph() = default;

    friend std::unique_ptr<CompiledGraph>
    compileGraph(const CkksContext &ctx, const Graph &g,
                 const CompileOptions &opts);

    /** A run's value table: one slot per expanded node. */
    using Slots = std::vector<const CtVec *>;
    /** Appends one stage to a segment's Pipeline; Add/Mult stages read
     *  their second operand from the run's table. */
    using StageBuilder = std::function<void(Pipeline &, const Slots &)>;
    /** Runs one segment's Pipeline over a batch. */
    using SegmentRunner =
        std::function<CtVec(const CtVec &, const Pipeline &)>;

    /** One execution step: a fused pipeline segment, or a Reduce
     *  (level alignment between segments; runs no kernels). */
    struct Step
    {
        bool isReduce = false;
        NodeId in = 0;  ///< value slot feeding the step
        NodeId out = 0; ///< value slot the step writes
        std::vector<StageBuilder> stages;
        size_t reduceLimbs = 0;  ///< Reduce: target limb count
        double reduceScale = 0;  ///< Reduce: result scale (bit-exact)
        /** Slots this step reads last (graph inputs and outputs
         *  excluded): freed once it has run, so a run holds only the
         *  intermediates a later step still needs. */
        std::vector<NodeId> release;
    };

    /** The interpreter run() and runSequential() share: validate the
     *  inputs, walk the steps over a fresh slot table, hand each
     *  segment to @p segment. */
    std::vector<CtVec> execute(const std::vector<CtVec> &inputs,
                               const SegmentRunner &segment) const;

    const CkksContext *ctx_ = nullptr;
    std::vector<Step> steps_;
    size_t slotCount_ = 0;
    std::vector<GraphOp> ops_;
    KeyWorkingSet keyPlan_;
    size_t segments_ = 0;
    mutable std::atomic<u64> fastestRunUs_{0};

    std::vector<NodeId> inputIds_;
    std::vector<NodeId> outputIds_;
    std::vector<InputSpec> inputSpecs_;

    std::deque<Plaintext> plains_;
    std::map<u32, SwitchKey> ownedRotKeys_;
    std::unique_ptr<SwitchKey> ownedRelinKey_;
    const SwitchKey *relinKey_ = nullptr;
};

/**
 * Compile @p g for @p ctx: expand macros, run the exact ledger walk
 * (fail-fast on level/scale misuse), encode plaintext operands,
 * materialise keys, plan the key working set and build the executable
 * fused steps.
 *
 * @throws std::invalid_argument on ledger violations, missing keys or
 *         malformed inputs.
 */
std::unique_ptr<CompiledGraph> compileGraph(const CkksContext &ctx,
                                            const Graph &g,
                                            const CompileOptions &opts);

} // namespace cross::ckks::graph
