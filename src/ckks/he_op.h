/**
 * @file
 * The backbone HE operator taxonomy of Table VIII.
 *
 * Lives in its own header (not schedule.h) so the functional batch
 * engine can name operators -- e.g. the stages of a fused
 * BatchEvaluator pipeline -- without depending on the TPU costing
 * stack that schedule.h pulls in.
 */
#pragma once

#include <cstddef>

namespace cross::ckks {

/** The backbone HE operators of Table VIII, plus the plaintext-operand
 *  and fan-in forms the bootstrap pipeline chains. */
enum class HeOp
{
    Add,
    Mult,
    Rescale,
    Rotate,
    /** Double rescaling (Section V-A): params().rescaleSplit chained
     *  single rescales dropping one sub-modulus each. */
    RescaleMulti,
    /** ct + pt (CtS/StC matrix constants, EvalMod Chebyshev terms). */
    AddPlain,
    /** ct * pt: no key switch, no relinearisation. */
    MultiplyPlain,
    /**
     * Branching-DAG stage: out = in + sum_j rotate(in, k_j) -- the
     * rotate-and-accumulate fan-in of a slot-summation tree. All
     * branches share one ModUp of the input (Halevi-Shoup hoisting):
     * each rotation permutes the decomposed digits and pays only its
     * inner product + ModDown. Bit-identical to per-branch rotate +
     * add at any thread count; fanin-1 fewer ModUps. The branch count
     * (fan-in) lives in PipelineOp / PipelineStage; as a bare HeOp it
     * means one branch, i.e. exactly Rotate + Add.
     */
    RotateAccum,
};

inline const char *
heOpName(HeOp op)
{
    switch (op) {
      case HeOp::Add: return "HE-Add";
      case HeOp::Mult: return "HE-Mult";
      case HeOp::Rescale: return "Rescale";
      case HeOp::Rotate: return "Rotate";
      case HeOp::RescaleMulti: return "RescaleMulti";
      case HeOp::AddPlain: return "HE-Add-Plain";
      case HeOp::MultiplyPlain: return "HE-Mult-Plain";
      case HeOp::RotateAccum: return "RotateAccum";
    }
    return "?";
}

/**
 * One operator of a fused pipeline as the schedule enumerator / cost
 * model sees it: the op plus its structural arity. fanin is the number
 * of rotate branches of a RotateAccum stage (1 for every other op).
 */
struct PipelineOp
{
    HeOp op;
    size_t fanin = 1;
};

} // namespace cross::ckks
