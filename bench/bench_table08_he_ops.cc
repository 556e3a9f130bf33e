/**
 * @file
 * Table VIII: latency and energy efficiency of the backbone HE operators
 * (HE-Add, HE-Mult, Rescale, Rotate) against published CPU/GPU/FPGA/ASIC
 * systems.
 *
 * Methodology per Section V-A: for each baseline, CROSS runs under that
 * baseline's comparison parameter set (Table VIII "CROSS" rows) on a TPU
 * configuration scaled to roughly the baseline's power; the reported
 * number is the amortised single-batch latency across those tensor cores
 * (the same kernel running on every core).
 */
#include <iostream>

#include "baselines/efficiency.h"
#include "baselines/published.h"
#include "bench_util.h"
#include "ckks/schedule.h"
#include "tpu/sim.h"

namespace {

using namespace cross;
using ckks::HeOp;

struct OpLatencies
{
    double add, mult, rescale, rotate;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep(argc, argv, "table08_he_ops");
    bench::banner("Table VIII",
                  "HE operator latency + energy efficiency vs 8 systems",
                  bench::kSimNote);

    const auto &v6e = tpu::tpuV6e();

    TablePrinter t("Table VIII: HE kernel latency (us), N = 2^16");
    t.header({"System", "params(L,logq,dnum)", "HE-Add", "HE-Mult",
              "Rescale", "Rotate", "source"});

    struct Ratio
    {
        std::string name;
        double add, mult, rescale, rotate;
        bool pub;
    };
    std::vector<Ratio> ratios;

    for (const auto &base : baselines::table8Baselines()) {
        // HEAP compares at Set B (N = 2^13); everything else at N = 2^16.
        ckks::CkksParams p;
        const bool heap = base.name == "HEAP";
        p.n = heap ? (1u << 13) : (1u << 16);
        p.limbs = base.crossLimbs;
        p.logq = base.crossLogq;
        p.dnum = base.crossDnum;
        lowering::Config cfg;
        cfg.logq = base.crossLogq;
        ckks::HeOpCostModel model(v6e, cfg, p);
        const size_t lvl = p.limbs - 1;
        const u32 tc = base.tcCount;
        const OpLatencies cross = {
            model.opLatencyUs(HeOp::Add, lvl) / tc,
            model.opLatencyUs(HeOp::Mult, lvl) / tc,
            model.opLatencyUs(HeOp::Rescale, lvl) / tc,
            model.opLatencyUs(HeOp::Rotate, lvl) / tc,
        };

        t.row({base.name + " (" + base.platform + ")", base.params,
               base.addUs >= 0 ? fmtUs(base.addUs) : "N/A",
               fmtUs(base.multUs),
               base.rescaleUs >= 0 ? fmtUs(base.rescaleUs) : "N/A",
               fmtUs(base.rotateUs), "published"});
        t.row({"  CROSS v6e x" + std::to_string(tc) + "TC",
               std::to_string(base.crossLimbs) + "," +
                   std::to_string(base.crossLogq) + "," +
                   std::to_string(base.crossDnum),
               fmtUs(cross.add), fmtUs(cross.mult), fmtUs(cross.rescale),
               fmtUs(cross.rotate), "simulated"});
        rep.addUs("table8/he_add", {{"vs", base.name}}, cross.add);
        rep.addUs("table8/he_mult", {{"vs", base.name}}, cross.mult);
        rep.addUs("table8/rescale", {{"vs", base.name}}, cross.rescale);
        rep.addUs("table8/rotate", {{"vs", base.name}}, cross.rotate);

        ratios.push_back({base.name, base.addUs / cross.add,
                          base.multUs / cross.mult,
                          base.rescaleUs > 0
                              ? base.rescaleUs / cross.rescale
                              : -1,
                          base.rotateUs / cross.rotate,
                          base.publiclyAvailable});
    }
    t.print(std::cout);

    TablePrinter e("Energy-efficiency improvement (iso-power speedup, "
                   "simulated CROSS vs published baseline)");
    e.header({"vs", "HE-Add", "HE-Mult", "Rescale", "Rotate"});
    for (const auto &r : ratios) {
        e.row({r.name, fmtX(r.add, 2), fmtX(r.mult, 2),
               r.rescale > 0 ? fmtX(r.rescale, 2) : "N/A",
               fmtX(r.rotate, 2)});
    }
    e.print(std::cout);

    // Fused pipeline costing: the Mult -> Rescale -> Rotate sequence
    // the bootstrap schedule chains, priced as one launch
    // (HeOpCostModel::pipelineCost) vs three separate launches. The
    // functional twin (BatchEvaluator::run) is benchmarked by
    // bench_fig11b_batch_sweep; this is its simulated mirror.
    {
        const auto p = ckks::CkksParams::paperSet('C');
        lowering::Config cfg;
        ckks::HeOpCostModel model(v6e, cfg, p);
        const size_t lvl = p.limbs - 1;
        const std::vector<ckks::PipelineOp> pipe = {
            {HeOp::Mult}, {HeOp::Rescale}, {HeOp::Rotate}};
        TablePrinter f("Fused Mult->Rescale->Rotate pipeline on one "
                       "v6e core (Set C, simulated)");
        f.header({"Batch", "separate us/item", "fused us/item",
                  "fused gain"});
        for (u64 batch : {1u, 8u, 32u}) {
            const double separate =
                model.opLatencyUs(HeOp::Mult, lvl, batch) +
                model.opLatencyUs(HeOp::Rescale, lvl, batch) +
                model.opLatencyUs(HeOp::Rotate, lvl - 1, batch);
            const double fused =
                model.pipelineLatencyUs(pipe, lvl, batch);
            f.row({std::to_string(batch), fmtUs(separate),
                   fmtUs(fused), fmtX(separate / fused, 2)});
            rep.addUs("table8/pipeline_mult_rescale_rotate",
                      {{"mode", "fused"},
                       {"batch", std::to_string(batch)}},
                      fused);
            rep.addUs("table8/pipeline_mult_rescale_rotate",
                      {{"mode", "separate"},
                       {"batch", std::to_string(batch)}},
                      separate);
        }
        f.print(std::cout);
    }

    std::cout
        << "\nPaper's corresponding ratios: OpenFHE 2253/415/152/498, "
           "FIDESlib 12.8/1.55/1.64/2.23, WarpDrive 5.61/6.00/2.27/9.54,\n"
           "Cheddar 13.6/1.10/0.92/1.21, FAB 4.55/1.21/0.98/1.45, HEAP "
           "0.15/2.20/0.89/1.58, BASALISC 1.20/0.33/-/0.42, CraterLake "
           "1.32/0.03/0.06/0.03.\n"
           "Shape: CROSS dominates commodity platforms on Mult/Rotate, "
           "trails dedicated HE ASICs by 3-33x (Section V-G).\n";
    return rep.flush() ? 0 : 1;
}
