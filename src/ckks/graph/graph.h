/**
 * @file
 * Operator-graph IR for encrypted ML workloads.
 *
 * The nGraph-style split the paper's Section V-D workloads want:
 * describe a workload once as a small operator graph (matmul via the
 * diagonal method, activation-as-polynomial, rotate/slot-sum trees,
 * explicit level management), then let the compiler (graph/compiler.h)
 * lower it to the fused Pipeline / BatchEvaluator machinery -- or
 * enumerate it structurally for the cost estimators -- from the same
 * description, so the functional execution and the priced schedule
 * cannot drift.
 *
 * Two node tiers:
 *  - primitives map 1:1 onto pipeline stages (Add, Multiply,
 *    AddPlain, MultiplyPlain, Rotate, Rescale, Reduce = level
 *    alignment, and LinearTransform = sum_j [pt_j *] rotate(x, k_j),
 *    the one hoisted stage that matVec and slotSum both build);
 *  - the Polynomial macro expands deterministically into the exact
 *    primitive sequence the hand-written HELR example used -- the
 *    expansion order is part of the contract, asserted bit-identical
 *    and kernel-log-equal by graph_test.
 *
 * matVec is not a macro over rotate nodes: it is one LinearTransform
 * node whose rotations share a single ModUp of x. Its results stay
 * bit-identical to the hand-rolled rotate + multiplyPlain + add loop,
 * but its per-item KernelLog is the schedule enumerator's (one ModUp,
 * then a rotation block per diagonal), not that loop's.
 *
 * Plaintext operands carry their *values* plus a scale policy, not an
 * encoded Plaintext: the compiler encodes them at lowering time against
 * the level/scale ledger, which is what keeps a graph-built workload
 * bit-identical to a hand-rolled one (the hand-rolled code encoded at
 * exactly those (scale, limbs) too).
 */
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace cross::ckks::graph {

/** Node handle: index into Graph::nodes(). */
using NodeId = u32;

/** Operator kinds. Polynomial is a macro (see expanded()). */
enum class NodeKind
{
    Input,
    Add,           ///< ct + ct (scales must match)
    Multiply,      ///< ct * ct with relinearisation
    AddPlain,      ///< ct + pt
    MultiplyPlain, ///< ct * pt (no key switch)
    Rotate,        ///< slot rotation by a fixed step
    /** x + sum_j rotate(x, k_j) (slotSum) or sum_d diag_d *
     *  rotate(x, d) (matVec): one hoisted LinearTransform stage. */
    LinearTransform,
    Rescale,
    /** Truncate to a reference node's limb count (reduceToLimbs; logs
     *  no kernels). adoptScale additionally copies the reference's
     *  ledger scale -- the explicit `lin.scale = cub.scale` level
     *  alignment the HELR example performed. */
    Reduce,
    Polynomial, ///< macro: degree <= 3 polynomial in one ciphertext
};

const char *nodeKindName(NodeKind kind);

/**
 * A plaintext operand by value + scale policy. The compiler encodes it
 * during lowering at the consuming ciphertext's ledger limb count and
 * at the policy's scale:
 *  - Base:     the compile-time base scale (2^scaleBits by default) --
 *    what the examples used for weights/constants before a rescale;
 *  - Match:    the consuming ciphertext's current ledger scale -- what
 *    addPlain operands must use to pass the scale check;
 *  - Explicit: a caller-fixed scale.
 */
struct PlainOperand
{
    enum class ScalePolicy
    {
        Base,
        Match,
        Explicit,
    };

    std::vector<double> values;
    ScalePolicy policy = ScalePolicy::Base;
    double explicitScale = 0.0;

    static PlainOperand base(std::vector<double> v);
    static PlainOperand matching(std::vector<double> v);
    static PlainOperand at(std::vector<double> v, double scale);
};

/** One graph node. Which payload fields apply depends on kind. */
struct Node
{
    NodeKind kind = NodeKind::Input;
    /** Ciphertext-valued operands. args[0] is the primary (pipeline)
     *  input of every non-Input node; Reduce's args[1] is the limb /
     *  scale *reference* only, never read at run time. */
    std::vector<NodeId> args;
    /** Stage attribution for estimators and error messages. */
    std::string label;
    /** Estimator multiplicity: how many times this op runs at paper
     *  scale (ciphertext count x invocations). Execution ignores it. */
    u64 repeat = 1;

    PlainOperand plain;         ///< AddPlain / MultiplyPlain
    i64 steps = 0;              ///< Rotate: left-rotation step
    /** LinearTransform: rotation step of each branch, in fold order
     *  (the identity term comes first and has no step). */
    std::vector<i64> branchSteps;
    /** Weighted LinearTransform (matVec): one plaintext per term,
     *  identity first, encoded at the base scale; empty when the
     *  transform is unweighted (slotSum). */
    std::vector<std::vector<double>> weights;
    size_t replicate = 1;       ///< matVec: input packing replication
    bool adoptScale = false;    ///< Reduce: copy reference's scale
    std::vector<double> coeffs; ///< Polynomial: c0..c3, low to high
    size_t polySlots = 0;       ///< Polynomial: slots the constants fill
};

/**
 * An operator DAG under construction. Builder methods validate their
 * operands eagerly (std::invalid_argument on misuse) and return the new
 * node's id; node ids are the scheduling order -- the compiler executes
 * nodes in creation order, which is how graph-built programs reproduce
 * a hand-written operator sequence exactly.
 */
class Graph
{
  public:
    NodeId input(std::string label = "input");
    NodeId add(NodeId a, NodeId b, std::string label = "");
    NodeId multiply(NodeId a, NodeId b, std::string label = "");
    NodeId addPlain(NodeId a, PlainOperand pt, std::string label = "");
    NodeId multiplyPlain(NodeId a, PlainOperand pt,
                         std::string label = "");
    NodeId rotate(NodeId a, i64 steps, std::string label = "");
    /** Rotate-accumulate fan-in a + sum_j rotate(a, steps[j]): an
     *  unweighted LinearTransform node. */
    NodeId slotSum(NodeId a, std::vector<i64> steps,
                   std::string label = "");
    NodeId rescale(NodeId a, std::string label = "");
    /** Truncate @p a to @p ref's ledger limb count; adopt_scale also
     *  copies @p ref's ledger scale. */
    NodeId reduceTo(NodeId a, NodeId ref, bool adopt_scale,
                    std::string label = "");

    /**
     * Diagonal-method matrix-vector product y = W x for square W over
     * an input packed with @p replicate adjacent copies of x (so
     * rotations wrap within the block): one weighted LinearTransform
     * node computing
     *
     *     acc = multiplyPlain(x, diag_0)
     *     for d = 1..dim-1:
     *         acc = add(acc, multiplyPlain(rotate(x, d), diag_d))
     *
     * with diag_d[i] = W[i][(i + d) % dim] on the first block and zero
     * elsewhere -- bit-identical to the loop examples/private_inference
     * runs, with every rotation sharing one ModUp of x. For dim >= 2,
     * compiling fails unless replicate >= 2 or dim equals the slot
     * count: otherwise rotate(x, d) does not wrap within the block.
     */
    NodeId matVec(NodeId x, std::vector<std::vector<double>> w,
                  size_t replicate, std::string label = "");

    /**
     * Polynomial macro: c0 + c1 x + c2 x^2 + c3 x^3 (degree <= 3, at
     * least one non-constant coefficient), constants filling
     * @p const_slots slots. Expands to the power basis the HELR example
     * built -- x^2 = rescale(x * x), x^3 = rescale(x^2 * reduce(x)) --
     * then one multiplyPlain + rescale per non-zero term, folded in
     * ascending degree with Reduce-adopt level alignment, and a final
     * addPlain of c0 at the matching scale.
     */
    NodeId polynomial(NodeId x, std::vector<double> coeffs,
                      size_t const_slots, std::string label = "");

    /** Estimator multiplicity of @p n (default 1). */
    void setRepeat(NodeId n, u64 repeat);

    /** Mark @p n as a graph output (outputs are always materialized). */
    void markOutput(NodeId n);

    const std::vector<Node> &nodes() const { return nodes_; }
    const std::vector<NodeId> &inputs() const { return inputs_; }
    /** Marked outputs; when none were marked, the compiler defaults to
     *  the last node. */
    const std::vector<NodeId> &outputs() const { return outputs_; }

    /**
     * Macro-free copy: every Polynomial node replaced by its
     * primitive expansion (in place, preserving program order), all
     * references remapped, macro labels and repeat counts inherited by
     * the expansion. Primitive-only graphs round-trip unchanged.
     */
    Graph expanded() const;

  private:
    NodeId push(Node n);
    void checkArg(NodeId a, const char *what) const;

    std::vector<Node> nodes_;
    std::vector<NodeId> inputs_;
    std::vector<NodeId> outputs_;
};

} // namespace cross::ckks::graph
