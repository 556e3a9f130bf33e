/**
 * @file
 * Host-CPU microbenchmarks of the three NTT implementations (radix-2 CT,
 * explicit 4-step, MAT 3-step) and the BConv kernel -- the functional
 * counterparts of Tables VII/X. On a fine-grained CPU the O(N log N)
 * butterfly wins, which is itself a datapoint for the paper's argument:
 * the 3-step trade only pays where a matrix engine exists (Section V-C b
 * reports the CPU behaviour differs from the TPU's).
 */
#include <algorithm>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/timer.h"
#include "gbench_main.h"
#include "nt/primes.h"
#include "nt/simd_dispatch.h"
#include "poly/ntt_3step.h"
#include "poly/ntt_4step.h"
#include "poly/ntt_ct.h"
#include "rns/bconv.h"

namespace {

using namespace cross;

std::vector<u32>
randomPoly(u32 n, u32 q, u64 seed)
{
    Rng rng(seed);
    std::vector<u32> v(n);
    for (auto &x : v)
        x = static_cast<u32>(rng.uniform(q));
    return v;
}

void
BM_NttRadix2(benchmark::State &state)
{
    const u32 n = static_cast<u32>(state.range(0));
    const u32 q =
        static_cast<u32>(nt::generateNttPrimes(28, 1, 2ULL * n)[0]);
    poly::NttTables tab(n, q);
    auto a = randomPoly(n, q, n);
    for (auto _ : state) {
        poly::forwardInPlace(a.data(), tab);
        benchmark::DoNotOptimize(a.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NttRadix2)->Arg(1 << 10)->Arg(1 << 12)->Arg(1 << 13);

void
BM_NttFourStepExplicit(benchmark::State &state)
{
    const u32 n = static_cast<u32>(state.range(0));
    const u32 q =
        static_cast<u32>(nt::generateNttPrimes(28, 1, 2ULL * n)[0]);
    poly::NttTables tab(n, q);
    poly::FourStepPlan plan(tab, poly::defaultRowSplit(n));
    const auto a = randomPoly(n, q, n + 1);
    for (auto _ : state) {
        auto out = plan.forward(a);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NttFourStepExplicit)->Arg(1 << 10)->Arg(1 << 12);

void
BM_NttThreeStepMat(benchmark::State &state)
{
    const u32 n = static_cast<u32>(state.range(0));
    const u32 q =
        static_cast<u32>(nt::generateNttPrimes(28, 1, 2ULL * n)[0]);
    poly::NttTables tab(n, q);
    poly::ThreeStepPlan plan(tab, poly::defaultRowSplit(n));
    const auto a = randomPoly(n, q, n + 2);
    for (auto _ : state) {
        auto out = plan.forward(a);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NttThreeStepMat)->Arg(1 << 10)->Arg(1 << 12);

void
BM_BConv(benchmark::State &state)
{
    const u32 l_in = static_cast<u32>(state.range(0));
    const u32 l_out = l_in + 2;
    const u64 step = 1 << 13;
    const auto from_m = nt::generateNttPrimes(28, l_in, step);
    const auto to_m = nt::generateNttPrimesAvoiding(28, l_out, step, from_m);
    rns::RnsBasis from(from_m), to(to_m);
    rns::BasisConversion conv(from, to);
    const u32 n = 1 << 12;
    Rng rng(9);
    rns::LimbMatrix in(l_in), out;
    for (u32 i = 0; i < l_in; ++i) {
        in[i].resize(n);
        for (auto &x : in[i])
            x = static_cast<u32>(rng.uniform(from.modulus(i)));
    }
    for (auto _ : state) {
        conv.apply(in, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n * l_in);
}
BENCHMARK(BM_BConv)->Arg(4)->Arg(8)->Arg(12);

/**
 * Post-run dispatch sweep: the radix-2 forward and inverse NTT timed
 * under every available SIMD path (scalar, then AVX2/AVX-512 where
 * compiled in and CPU-supported, interleaved round by round), emitting
 * one micro_ntt/ntt_dispatch and one micro_ntt/intt_dispatch record per
 * path, plus the forward transform's trajectory metrics
 * micro_ntt/avx2_vs_scalar_speedup and micro_ntt/avx512_vs_scalar_speedup
 * (items_per_sec = speedup ratio; bench/fidelity_tolerance.json
 * range-checks the AVX2 one). Unlike the --isa flag, which pins one
 * path for the whole binary, this sweep measures every path in a
 * single run so the ratios come from the same host, the same tables
 * and the same inputs.
 */
void
dispatchSweep(bench::Reporter &rep)
{
    const u32 n = 1u << 12;
    const u32 q =
        static_cast<u32>(nt::generateNttPrimes(28, 1, 2ULL * n)[0]);
    poly::NttTables tab(n, q);
    auto a = randomPoly(n, q, 0x15a);
    auto b = randomPoly(n, q, 0x15b);

    std::vector<nt::SimdIsa> isas; // scalar first: the ratios' baseline
    for (auto isa : {nt::SimdIsa::Scalar, nt::SimdIsa::Avx2,
                     nt::SimdIsa::Avx512})
        if (nt::simdIsaAvailable(isa))
            isas.push_back(isa);

    const nt::SimdIsa prev = nt::activeSimdIsa();
    constexpr int kIters = 100;
    constexpr int kRounds = 30;
    // Rounds after the first stop once the sweep has run this long. An
    // optimized build finishes all kRounds in well under a second; a
    // Debug or sanitized build spends seconds on one sample, and its
    // ratios are not host-speed figures anyway.
    constexpr double kMaxSeconds = 10;
    // One sample: ns per transform over kIters back-to-back forward
    // (a) or inverse (b) transforms.
    const auto sample = [&](nt::SimdIsa isa, bool inverse) {
        nt::setSimdIsa(isa);
        u32 *x = inverse ? b.data() : a.data();
        WallTimer w;
        for (int i = 0; i < kIters; ++i) {
            if (inverse)
                poly::inverseInPlace(x, tab);
            else
                poly::forwardInPlace(x, tab);
            benchmark::DoNotOptimize(x);
            benchmark::ClobberMemory();
        }
        return w.seconds() * 1e9 / kIters;
    };
    // A warmup sample per path and direction, then best-of-kRounds
    // with the paths interleaved inside each round (scalar, AVX2,
    // AVX-512 back to back, forward then inverse). Best-of keeps the
    // undisturbed per-path speed; the interleaving makes load on a
    // shared host land on every path's samples alike instead of on one
    // path's whole block of rounds.
    const WallTimer sweep;
    for (auto isa : isas)
        for (bool inverse : {false, true})
            (void)sample(isa, inverse);
    std::vector<double> best_ns(isas.size(), 1e30);
    std::vector<double> best_inv_ns(isas.size(), 1e30);
    for (int round = 0; round < kRounds; ++round) {
        for (size_t p = 0; p < isas.size(); ++p) {
            best_ns[p] = std::min(best_ns[p], sample(isas[p], false));
            best_inv_ns[p] =
                std::min(best_inv_ns[p], sample(isas[p], true));
        }
        if (sweep.seconds() > kMaxSeconds)
            break;
    }
    nt::setSimdIsa(prev);

    TablePrinter t("SIMD dispatch sweep: radix-2 NTT, N = 2^12");
    t.header({"ISA", "ns/NTT", "vs scalar", "ns/INTT", "vs scalar"});
    for (size_t p = 0; p < isas.size(); ++p) {
        const char *name = nt::simdIsaName(isas[p]);
        const std::vector<std::pair<std::string, std::string>> params = {
            {"isa", name}, {"n", std::to_string(n)}};
        rep.add("micro_ntt/ntt_dispatch", params, best_ns[p],
                1e9 / best_ns[p]);
        rep.add("micro_ntt/intt_dispatch", params, best_inv_ns[p],
                1e9 / best_inv_ns[p]);
        const double speedup = best_ns[0] / best_ns[p];
        if (p > 0)
            rep.add(std::string("micro_ntt/") + name +
                        "_vs_scalar_speedup",
                    {{"n", std::to_string(n)}}, 0.0, speedup);
        t.row({name, fmtF(best_ns[p], 1), fmtX(speedup, 2),
               fmtF(best_inv_ns[p], 1),
               fmtX(best_inv_ns[0] / best_inv_ns[p], 2)});
    }
    t.print(std::cout);
}

} // namespace

CROSS_BENCHMARK_MAIN_EXTRA("micro_ntt", dispatchSweep);
