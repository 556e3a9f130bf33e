/**
 * @file
 * Packed CKKS bootstrapping estimator (Table IX).
 *
 * Methodology follows the paper exactly (Section V-A): "the estimated
 * latency is obtained by multiplying the overall number of HE kernel
 * invocations with each profiled realistic latency, which represents the
 * worst case latency as it assumes no pipeline or fusion." We enumerate
 * the HE-operator sequence of packed bootstrapping [MAD, MICRO'23]
 * (ModRaise -> CoeffToSlot -> EvalMod -> SlotToCoeff) with BSGS
 * decompositions, expand every operator to its kernel schedule, and price
 * each kernel as an individual launch on the simulated device.
 *
 * The same schedule also *runs*: bootstrapGraph() emits it as an
 * operator graph that graph::compileGraph lowers like any workload.
 */
#pragma once

#include <map>
#include <string>

#include "ckks/graph/compiler.h"
#include "ckks/params.h"
#include "ckks/schedule.h"
#include "tpu/sim.h"

namespace cross::ckks {

/** Structural knobs of the packed bootstrapping pipeline. */
struct BootstrapConfig
{
    u32 ctsLevels = 3;      ///< CoeffToSlot matrix-decomposition depth
    u32 stcLevels = 3;      ///< SlotToCoeff depth
    u32 evalModDegree = 31; ///< Chebyshev degree of the mod reduction
    u32 evalModIters = 2;   ///< double-angle / arcsine refinement rounds
    /**
     * Emit the CtS/StC matrix products as MultiplyPlain and the
     * ModRaise/Chebyshev constants as AddPlain (how MAD-style packed
     * bootstrapping actually applies its plaintext matrices) instead
     * of ciphertext-ciphertext Mult/Add. Off by default so the
     * Table IX estimator keeps the paper's worst-case op mix.
     * bootstrapGraph() executes either setting.
     */
    bool plainMatrices = false;
};

/**
 * How the BSGS rotation groups of the bootstrap execute: the graph
 * shape bootstrapGraph() emits and the kernel expansion
 * enumerateBootstrapKernels() returns for it.
 *  - Hoisted: each group is one slotSum (a LinearTransform stage), so
 *    its rotations share one ModUp (Halevi-Shoup hoisting) -- the
 *    schedule estimateBootstrap() prices.
 *  - PerOp: each group is written as explicit rotate + add nodes, so
 *    every rotation pays its own ModUp (fanin x (Rotate + Add)); the
 *    reference the hoisted form is compared against.
 * Results are bit-identical between the modes at any thread count;
 * Hoisted launches exactly sum(fanin - 1) fewer ModUps.
 */
enum class BootstrapKernelMode
{
    Hoisted,
    PerOp,
};

/** Result: total latency plus the Table IX per-kernel breakdown. */
struct BootstrapEstimate
{
    double totalUs = 0;
    std::map<std::string, double> byKernelUs; ///< keyed by kernel name
    u64 kernelLaunches = 0;
    u64 heOps = 0;

    double
    fraction(const std::string &kernel) const
    {
        auto it = byKernelUs.find(kernel);
        return it == byKernelUs.end() ? 0.0 : it->second / totalUs;
    }
};

/**
 * One operator of the bootstrap pipeline: the op, the level it runs at
 * (levels consume downward from the top of the modulus chain) and, for
 * the BSGS rotation groups (LinearTransform), the branch fan-in.
 */
struct BootstrapOp
{
    HeOp op;
    size_t level = 0;
    size_t fanin = 1;

    bool operator==(const BootstrapOp &) const = default;
};

/**
 * Enumerate the bootstrap pipeline as (op, level, fanin) entries. Each
 * BSGS rotation group appears as a single LinearTransform entry whose
 * fanin is the group's rotation count.
 */
std::vector<BootstrapOp>
enumerateBootstrapOps(const CkksParams &params, const BootstrapConfig &cfg);

/**
 * Full kernel schedule of the pipeline: every enumerateBootstrapOps
 * entry expanded through the structural enumerateKernels(PipelineOp)
 * overload -- in Hoisted mode each LinearTransform group expands with
 * one shared ModUp, in PerOp mode as fanin x (Rotate + Add). Both modes
 * expand the same op walk, so they can never drift apart on op counts
 * or level evolution. Each matches the per-item KernelLog of the
 * bootstrapGraph() compiled in the same mode (at batch 1 for PerOp,
 * whose graph runs segment by segment).
 */
std::vector<KernelCall>
enumerateBootstrapKernels(const CkksParams &params,
                          const BootstrapConfig &cfg,
                          BootstrapKernelMode mode =
                              BootstrapKernelMode::Hoisted);

/** The bootstrap schedule as a graph, plus the input specs to compile
 *  it with. */
struct BootstrapGraph
{
    graph::Graph graph;
    /** inputs[0] is the bootstrapped ciphertext at the top of the
     *  chain; then one synthetic operand per Add / Mult op, in program
     *  order, at the level and scale the op meets it. */
    graph::LoweringOptions lowering;
};

/**
 * The enumerateBootstrapOps schedule as graph nodes. In Hoisted
 * @p mode it is one chain, so graph::compileGraph lowers it to a
 * single fused segment whose ops() equal the enumeration: each BSGS
 * group becomes a slotSum over the rotation pool (steps
 * 1..2 ceil(sqrt(rho)), cycled). In PerOp mode each group instead
 * becomes acc = add(rotate(in, k), acc) per step k, so its rotations
 * fan out from the group input and the program compiles to several
 * segments. Either way plaintext matrix rows and constants become
 * multiplyPlain / addPlain nodes, and each Add / Mult operand becomes
 * one more graph input (the same inputs in both modes).
 *
 * Operand values are synthesized from @p seed: the object under test
 * is the schedule execution (kernel sequence, level/scale evolution,
 * key residency), not a numerical bootstrap. The k multiplications
 * before a Rescale at level l each carry scale q_l^(1/k), so the
 * running scale returns to about @p scale after every rescale and
 * every plaintext encodes at a scale above 1.
 *
 * @throws std::invalid_argument when the chain is too short or the
 *         config's level guards would bind (the enumerated levels
 *         would then diverge from an execution, which always consumes
 *         a limb per rescale)
 */
BootstrapGraph bootstrapGraph(const CkksContext &ctx,
                              const BootstrapConfig &cfg, double scale,
                              u64 seed,
                              BootstrapKernelMode mode =
                                  BootstrapKernelMode::Hoisted);

/** Price the pipeline on one tensor core of @p dev. */
BootstrapEstimate estimateBootstrap(const tpu::DeviceConfig &dev,
                                    const lowering::Config &lcfg,
                                    const CkksParams &params,
                                    const BootstrapConfig &cfg = {});

} // namespace cross::ckks
