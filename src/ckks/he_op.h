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
 *  and linear-transform forms that matVec and the bootstrap chain. */
enum class HeOp
{
    Add,
    Mult,
    Rescale,
    Rotate,
    /** ct + pt (CtS/StC matrix constants, EvalMod Chebyshev terms). */
    AddPlain,
    /** ct * pt: no key switch, no relinearisation. */
    MultiplyPlain,
    /**
     * out = [pt_0 *] in + sum_j [pt_j *] rotate(in, k_j): matVec
     * (weighted) or a slot-sum fan-in / BSGS group (unweighted). All
     * branches share one ModUp of the input (Halevi-Shoup hoisting)
     * and plaintexts apply after ModDown, so results are bit-identical
     * to the per-op loop with fanin-1 fewer ModUps. As a bare HeOp it
     * means one unweighted branch, i.e. exactly Rotate + Add.
     */
    LinearTransform,
};

inline const char *
heOpName(HeOp op)
{
    switch (op) {
      case HeOp::Add: return "HE-Add";
      case HeOp::Mult: return "HE-Mult";
      case HeOp::Rescale: return "Rescale";
      case HeOp::Rotate: return "Rotate";
      case HeOp::AddPlain: return "HE-Add-Plain";
      case HeOp::MultiplyPlain: return "HE-Mult-Plain";
      case HeOp::LinearTransform: return "LinearTransform";
    }
    return "?";
}

/**
 * One operator of a fused pipeline as the schedule enumerator / cost
 * model sees it: the op plus its structural shape. fanin is the number
 * of rotation branches of a LinearTransform stage (1 for every other
 * op); weighted marks a LinearTransform whose terms carry plaintexts.
 */
struct PipelineOp
{
    HeOp op;
    size_t fanin = 1;
    bool weighted = false;
};

} // namespace cross::ckks
