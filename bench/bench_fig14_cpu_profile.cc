/**
 * @file
 * Fig. 14 (appendix F): wall-clock latency breakdown of HE operators by
 * kernel, profiled on the *host CPU* with this library's functional CKKS
 * backend -- the counterpart of the paper's OpenFHE profiling that
 * motivates NTT/INTT/BConv/VecMod* as the kernels worth accelerating.
 *
 * This is a real measurement, not the simulator. It also records the
 * minor page faults each operator takes per call in steady state
 * (fig14/minor_faults): memory an operator frees and the allocator
 * hands back to the kernel is faulted in again by the next call. Limbs
 * recycle through a per-thread free list, so a CKKS operator should
 * take next to none; fig14/ckks_minor_faults_max, the largest CKKS
 * row, is banded in bench/fidelity_tolerance.json.
 *
 * A CKKS rotation's Automorphism time reads 0: the key switch gathers
 * each digit through the rotation map inside its fused inner product,
 * whose time is booked to VecModMul, so the gathers sit under the
 * VecMod columns rather than under Other.
 */
#include <sys/resource.h>

#include <algorithm>
#include <iostream>
#include <map>
#include <string>

#include "bench_util.h"
#include "bfv/bfv.h"
#include "ckks/context.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keys.h"
#include "common/rng.h"

namespace {

using namespace cross;
using namespace cross::ckks;

/** Aggregate a kernel log into Fig. 14's category percentages. */
std::map<std::string, double>
aggregate(const KernelLog &log)
{
    std::map<std::string, double> by;
    for (const auto &c : log.calls()) {
        std::string key;
        switch (c.kind) {
          case KernelKind::Ntt: key = "NTT"; break;
          case KernelKind::Intt: key = "INTT"; break;
          case KernelKind::BConv: key = "BasisChange"; break;
          case KernelKind::VecModMul:
          case KernelKind::VecModMulConst: key = "VecModMul"; break;
          case KernelKind::VecModAdd: key = "VecModAdd"; break;
          case KernelKind::VecModSub: key = "VecModSub"; break;
          case KernelKind::Automorphism: key = "Other"; break;
        }
        by[key] += c.seconds;
    }
    return by;
}

/** Minor page faults this process has taken so far. */
long
minorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter rep(argc, argv, "fig14_cpu_profile");
    bench::banner("Figure 14 (appendix F)",
                  "CPU latency profile of HE operators by kernel",
                  "host CPU, this library's functional CKKS backend");
    // One operator on one ciphertext runs on this thread, matching the
    // paper's single-threaded OpenFHE profile.
    CkksContext ctx(CkksParams::testSet(1 << 13, 12, 3));
    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx, 1);
    CkksEncryptor enc(ctx, keygen.publicKey(), 2);
    KernelLog log;
    CkksEvaluator ev(ctx, &log);
    // Key-switch operands built once, outside the profiled lambdas; the
    // rows come from the KernelLog, which never timed a precomp build.
    const auto rlk =
        ev.precomputeKeySwitch(keygen.relinKey(), ctx.qCount() - 1);
    const u32 gk = encoder.rotationAutomorphism(1);
    const auto rot_key =
        ev.precomputeKeySwitch(keygen.rotationKey(gk), ctx.qCount() - 1);

    Rng rng(3);
    std::vector<Complex> vals(encoder.slotCount());
    for (auto &v : vals)
        v = Complex(rng.real() - 0.5, rng.real() - 0.5);
    const double scale = static_cast<double>(1ULL << 26);
    const auto ca = enc.encrypt(encoder.encode(vals, scale, ctx.qCount()));
    const auto cb = enc.encrypt(encoder.encode(vals, scale, ctx.qCount()));

    const char *cats[] = {"NTT",       "INTT",      "BasisChange",
                          "VecModMul", "VecModAdd", "VecModSub",
                          "Other"};

    struct OpRun
    {
        const char *name;
        std::map<std::string, double> by;
        double total;
        double faultsPerCall;
    };
    std::vector<OpRun> runs;

    // One warm-up call per operator outside the profiled reps, so
    // first-use costs (lazily built maps, the heap's first growth) stay
    // out of both the kernel profile and the fault count.
    constexpr int kReps = 3; // profiled repetitions per operator
    auto profile = [&](const char *name, auto &&fn) {
        fn();
        log.clear();
        const long faults = minorFaults();
        for (int iter = 0; iter < kReps; ++iter)
            fn();
        const double per_call =
            static_cast<double>(minorFaults() - faults) / kReps;
        OpRun r{name, aggregate(log), log.totalSeconds(), per_call};
        runs.push_back(std::move(r));
    };

    profile("(CKKS) Mult. & Relin.",
            [&] { (void)ev.multiply(ca, cb, rlk); });
    profile("(CKKS) Rotation", [&] { (void)ev.rotate(ca, gk, rot_key); });
    // Inputs prepared outside the profiled lambdas so every rep logs
    // exactly the operator under measurement.
    const auto c3_norelin = ev.multiplyNoRelin(ca, cb);
    profile("(CKKS) Relinearization",
            [&] { (void)ev.relinearize(c3_norelin, rlk); });
    const auto c_mult = ev.multiply(ca, cb, rlk);
    profile("(CKKS) Rescale", [&] { (void)ev.rescale(c_mult); });
    // BFV rows (appendix Fig. 14 profiles both schemes).
    bfv::BfvContext bctx(bfv::BfvParams::testSet(1 << 13, 8, 17));
    bfv::BfvEncoder benc(bctx);
    bfv::BfvKeyGenerator bkeygen(bctx, 21);
    const auto bpk = bkeygen.publicKey();
    const auto brlk = bkeygen.relinKey();
    const auto brot = bkeygen.rotationKey(5);
    Rng brng(22);
    std::vector<u64> bvals(bctx.degree());
    for (auto &v : bvals)
        v = brng.uniform(bctx.plainModulus());
    bfv::BfvEvaluator bev(bctx, &log);
    const auto bct = bev.encrypt(benc.encode(bvals), bpk, brng);
    profile("(BFV) Mult. & Relin.",
            [&] { (void)bev.multiply(bct, bct, brlk); });
    profile("(BFV) Rotation", [&] { (void)bev.rotate(bct, 5, brot); });

    TablePrinter t("Fig. 14: percent of operator wall time per kernel "
                   "(N = 2^13, L = 12, dnum = 3, host CPU)");
    std::vector<std::string> hdr = {"Operator"};
    for (const auto *c : cats)
        hdr.push_back(c);
    hdr.push_back("total ms");
    t.header(hdr);
    double ckks_faults_max = 0.0;
    for (const auto &r : runs) {
        if (std::string(r.name).starts_with("(CKKS)"))
            ckks_faults_max = std::max(ckks_faults_max, r.faultsPerCall);
        std::vector<std::string> row = {r.name};
        for (const auto *c : cats) {
            const auto it = r.by.find(c);
            row.push_back(
                fmtPct(it == r.by.end() ? 0 : it->second / r.total));
        }
        row.push_back(fmtF(r.total * 1000 / kReps, 1));
        t.row(row);
        // Per-operator wall time, averaged over the profiled reps.
        rep.add("fig14/operator", {{"op", r.name}},
                r.total / kReps * 1e9);
        rep.add("fig14/minor_faults", {{"op", r.name}}, 0.0,
                r.faultsPerCall);
    }
    rep.add("fig14/ckks_minor_faults_max", {}, 0.0, ckks_faults_max);
    t.print(std::cout);

    TablePrinter f("Minor page faults per operator call (steady state, "
                   "mean of the profiled reps)");
    f.header({"Operator", "faults / call"});
    for (const auto &r : runs)
        f.row({r.name, fmtF(r.faultsPerCall, 1)});
    std::cout << "\n";
    f.print(std::cout);

    std::cout << "\nPaper (OpenFHE on Ryzen 9 5950X): NTT+INTT+BConv "
                 "account for 45-86% of operator latency across CKKS/BFV "
                 "operators; VecMod* for most of the rest. The same "
                 "kernels dominate both schemes here, which is the "
                 "premise of accelerating exactly these five kernels.\n"
              << "(BFV multiply's t/Q scale-down is counted under "
                 "BasisChange; see src/bfv/bfv.h.)\n";
    return rep.flush() ? 0 : 1;
}
