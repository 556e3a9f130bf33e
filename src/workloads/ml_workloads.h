/**
 * @file
 * HE machine-learning workload estimators (Section V-D).
 *
 * Methodology is the paper's own: enumerate the HE-operator sequence of
 * the workload, multiply by per-operator latencies profiled on the
 * simulated device ("the estimated latency is obtained by multiplying the
 * overall number of HE kernel invocations with each profiled realistic
 * latency"). Two workloads:
 *
 *  - HELR [30]: binary logistic regression, batches of 1024 images of
 *    14x14 = 196 features, one gradient-descent iteration per batch;
 *  - MNIST inference [67]: Conv-ReLU-AvgPool x2 -> FC -> ReLU -> FC on
 *    3x32x32 inputs, batch 64, N = 2^13, L = 18, no bootstrapping.
 */
#pragma once

#include <string>
#include <vector>

#include "ckks/graph/compiler.h"
#include "ckks/graph/graph.h"
#include "ckks/schedule.h"

namespace cross::workloads {

/** One HE-operator group of a workload schedule. */
struct OpGroup
{
    std::string stage;   ///< human-readable pipeline stage
    ckks::HeOp op;
    size_t level;        ///< modulus-chain level it executes at
    u64 count;           ///< invocations (already x ciphertext count)
};

/** Workload = named list of operator groups + packing bookkeeping. */
struct Workload
{
    std::string name;
    ckks::CkksParams params;
    u64 itemsPerRun;     ///< images per batch / samples per iteration
    std::vector<OpGroup> ops;
};

/**
 * Workload described once as an operator graph (ckks::graph). The
 * estimator schedule is *derived* from the graph by the same
 * structural lowering walk the graph compiler executes
 * (enumerateGraphOps), so the priced schedule and a functional
 * execution of the graph cannot drift -- the walkBootstrap trick
 * applied to the ML workloads.
 */
struct GraphWorkload
{
    std::string name;
    ckks::CkksParams params;
    u64 itemsPerRun = 0;
    ckks::graph::Graph graph;
    ckks::graph::LoweringOptions lowering;
};

/** HELR one-iteration schedule as an operator graph. */
GraphWorkload helrIterationGraph();

/** MNIST CNN inference schedule as an operator graph. */
GraphWorkload mnistInferenceGraph();

/**
 * Lower a graph workload to the estimator's operator groups: one
 * OpGroup per lowered operator (node repeat counts become invocation
 * counts, a LinearTransform expands to its rotate [+ multiplyPlain] +
 * add terms), consecutive identical (stage, op, level) groups merged.
 * Each branch is priced as a full Rotate -- the paper's per-op
 * estimator methodology -- even though the compiled LinearTransform
 * stage shares one ModUp across its branches, so the estimated
 * workload records do not depend on the hoisted execution.
 */
Workload workloadFromGraph(const GraphWorkload &gw);

/** HELR: one logistic-regression training iteration (batch 1024).
 *  Derived from helrIterationGraph(). */
Workload helrIteration();

/** MNIST CNN inference, batch 64. Derived from mnistInferenceGraph(). */
Workload mnistInference();

/** @name Runnable example graphs.
 *  Small concrete-weight graphs shared by the examples and graph_test,
 *  matching the hand-rolled operator sequences the examples originally
 *  executed (bit-identity is asserted by tests/graph_test.cc).
 *  @{ */

/** y = square(W x + b): diagonal-method mat-vec over an input packed
 *  with @p replicate copies, rescale, bias add, square activation. */
ckks::graph::Graph
denseSquareLayerGraph(const std::vector<std::vector<double>> &w,
                      const std::vector<double> &bias, size_t replicate);

/** HELR gradient coefficients g = 0.5 - 0.197 (y z) + 0.004 (y z)^3:
 *  label mask multiply + rescale, then the degree-3 polynomial macro
 *  over @p y_slots.size() slots. */
ckks::graph::Graph helrGradientGraph(const std::vector<double> &y_slots);

/** @} */

/** Cost summary on a simulated device. */
struct WorkloadEstimate
{
    double totalUs = 0;
    double perItemUs = 0;    ///< amortised per image / per sample
    u64 heOps = 0;
    std::vector<std::pair<std::string, double>> byStageUs;
};

/**
 * Price a workload on @p tc_count tensor cores of @p dev (ops parallelise
 * across ciphertexts, so cores divide the total).
 */
WorkloadEstimate estimateWorkload(const Workload &w,
                                  const tpu::DeviceConfig &dev,
                                  const lowering::Config &cfg,
                                  u32 tc_count);

} // namespace cross::workloads
