/**
 * @file
 * The traced run's layer ledger: calls into each layer's public
 * functions, timed from outside at Set-B shapes, with the thread-swept
 * numbers recorded next to the host's measured parallel capacity.
 */
#pragma once

#include "bench_common.h"

namespace setb {

/**
 * Measure every layer that does not depend on the workload -- nt,
 * poly, rns, the CKKS evaluator, the batch engine, the graph compiler
 * and runtime, the thread pool, the host, and BFV -- and add their
 * per-layer metrics to @p out. Outputs the probes produce (MLP runs,
 * BFV products) are checked into @p tally.
 */
void ledgerMetrics(u64 seed, Metrics &out, Tally &tally);

} // namespace setb
