/**
 * @file
 * The gated workloads' set-up and measurement loops:
 *
 *  - the compiled two-layer MLP (setb_mlp_single at batch 1 on a
 *    1-thread pool, setb_mlp_batch on batches of 8 on a 2-thread pool);
 *  - the closed-loop serving run (setb_serve_closed): one driver thread
 *    keeps 16 streams busy, one request in flight each, alternating two
 *    dense-layer models of different widths, on a ServingEngine with 2
 *    dispatchers and a 2-thread pool.
 *
 * Every output is checked by the plain-double oracle outside the timed
 * interval; a refused or failed request counts as not ok.
 */
#pragma once

#include <memory>
#include <vector>

#include "bench_common.h"
#include "serving/serving.h"

namespace setb {

/** MLP width: 8 Set-B key switches per request (3 + 1 + 1 + 3). */
constexpr size_t kMlpDim = 4;
/** Distinct encrypted inputs per model. */
constexpr size_t kPoolSize = 8;
/** Offline batch size of setb_mlp_batch. */
constexpr size_t kBatch = 8;
/** Closed-loop client streams of setb_serve_closed. */
constexpr size_t kStreams = 16;
/** Widths of the two served dense layers (3 and 7 rotation keys). */
constexpr size_t kDenseDims[2] = {4, 8};

/** The compiled MLP on its own rig. */
struct MlpBench
{
    explicit MlpBench(u64 seed) : rig(seed) {}

    CkksRig rig;
    Mlp mlp;
    std::unique_ptr<cross::ckks::graph::CompiledGraph> model;
    InputPool inputs;
    /** Pre-built run inputs: batch k holds pool items k*b .. k*b+b-1. */
    std::vector<std::vector<cross::ckks::CtVec>> batches;
    size_t batchSize = 1;
};

/**
 * Build the MLP rig for batch size @p batch and warm it up (one run of
 * the first batch, outputs checked into @p tally). @p setup_s receives
 * the set-up seconds: context, keys, compile and warm-up, not the
 * encryption of the generated inputs.
 */
std::unique_ptr<MlpBench> setupMlp(u64 seed, size_t batch, Tally &tally,
                                   double &setup_s);

/**
 * One timed CompiledGraph::run of batch @p k (modulo the batch count),
 * with @p log attached when non-null. The outputs are checked after the
 * clock stops. @p corrupt, when set, is consumed by the first output.
 * @return the run's wall seconds
 */
double runMlpOnce(MlpBench &b, size_t k, cross::ckks::KernelLog *log,
                  Tally &tally, bool &corrupt);

/** Latency samples of a measured window. */
struct Samples
{
    std::vector<double> latency_s; ///< one per timed call or request
    double busy_s = 0.0;           ///< summed timed seconds
    u64 items = 0;                 ///< ciphertexts or requests completed
    double window_s = 0.0;         ///< wall length of the window
};

/**
 * Back-to-back runs for at least @p seconds and at least @p min_samples
 * runs (capped at kMaxWindowSeconds).
 */
Samples measureMlp(MlpBench &b, double seconds, size_t min_samples,
                   Tally &tally, bool &corrupt);

/** Hard cap on one measured window, whatever the sample target. */
constexpr double kMaxWindowSeconds = 90.0;

/** The two served dense-layer models on one rig. */
struct ServeBench
{
    explicit ServeBench(u64 seed) : rig(seed) {}

    CkksRig rig;
    DenseLayer layers[2];
    std::unique_ptr<cross::ckks::graph::CompiledGraph> models[2];
    InputPool inputs[2];
};

/**
 * Build both models on one context and warm each up once. The key cache
 * is unbounded: both working sets stay resident and batches of the two
 * models interleave over them. (Under a byte budget the open streams'
 * ReaderGuards keep every evicted precomp alive until the streams
 * close, so resident memory would grow with run length.)
 */
std::unique_ptr<ServeBench> setupServe(u64 seed, Tally &tally,
                                       double &setup_s);

/** Result of one closed-loop window. */
struct LoopResult
{
    Samples samples;
    cross::serving::ServingStats stats;
    /** Spans recorded by a traced loop (submit, done, model). */
    u64 spans = 0;
};

/**
 * Closed loop on a fresh engine: @p warmup_s unrecorded, then a window
 * of at least @p window_s and @p min_samples completions; requests in
 * flight at the end are drained and checked but not sampled. A traced
 * loop also records a span per request and an engine-stats snapshot per
 * completion (the instrumentation whose cost trace.overhead_frac shows).
 */
LoopResult closedLoop(ServeBench &s, double warmup_s, double window_s,
                      size_t min_samples, Tally &tally, bool &corrupt,
                      bool traced);

/**
 * The serving layer's per-layer metrics from a traced closed loop:
 * batch-forming counters from engine.stats(), throughput against a
 * sequential loop over the same requests, and the p50 latency above a
 * plain CompiledGraph::run at the realised mean batch.
 */
void servingLayerMetrics(ServeBench &s, const LoopResult &traced,
                         Metrics &out, Tally &tally);

} // namespace setb
