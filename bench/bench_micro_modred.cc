/**
 * @file
 * Host-CPU microbenchmarks (google-benchmark) of the actual modular
 * reduction implementations: the functional counterparts of the Fig. 13
 * ablation. These measure this library's real code on the build machine,
 * complementing the simulated TPU numbers.
 */
#include <algorithm>
#include <stdexcept>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/timer.h"
#include "gbench_main.h"
#include "cross/bat.h"
#include "cross/lazy_reduce.h"
#include "cross/sparse_baseline.h"
#include "nt/barrett.h"
#include "nt/modops.h"
#include "nt/modvec.h"
#include "nt/montgomery.h"
#include "nt/primes.h"
#include "nt/shoup.h"
#include "nt/simd_dispatch.h"
#include "poly/ring.h"

namespace {

using namespace cross;

constexpr u32 kQ = 268369921; // 28-bit NTT prime
constexpr size_t kN = 4096;

std::vector<u32>
inputs(u64 seed)
{
    Rng rng(seed);
    std::vector<u32> v(kN);
    for (auto &x : v)
        x = static_cast<u32>(rng.uniform(kQ));
    return v;
}

void
BM_MulMod128(benchmark::State &state)
{
    const auto a = inputs(1), b = inputs(2);
    for (auto _ : state) {
        u64 acc = 0;
        for (size_t i = 0; i < kN; ++i)
            acc += nt::mulMod(a[i], b[i], kQ);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_MulMod128);

void
BM_Montgomery(benchmark::State &state)
{
    nt::Montgomery mont(kQ);
    const auto a = inputs(3), b = inputs(4);
    std::vector<u32> am(kN);
    for (size_t i = 0; i < kN; ++i)
        am[i] = mont.toMont(a[i]);
    for (auto _ : state) {
        u64 acc = 0;
        for (size_t i = 0; i < kN; ++i)
            acc += mont.mulMont(am[i], b[i]);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_Montgomery);

void
BM_MontgomeryPaperAlg1(benchmark::State &state)
{
    nt::Montgomery mont(kQ);
    const auto a = inputs(5), b = inputs(6);
    for (auto _ : state) {
        u64 acc = 0;
        for (size_t i = 0; i < kN; ++i)
            acc += mont.reducePaper(static_cast<u64>(a[i]) * b[i]);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_MontgomeryPaperAlg1);

void
BM_Barrett(benchmark::State &state)
{
    nt::Barrett bar(kQ);
    const auto a = inputs(7), b = inputs(8);
    for (auto _ : state) {
        u64 acc = 0;
        for (size_t i = 0; i < kN; ++i)
            acc += bar.mul(a[i], b[i]);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_Barrett);

void
BM_Shoup(benchmark::State &state)
{
    const auto a = inputs(9), b = inputs(10);
    std::vector<nt::ShoupConst> pre(kN);
    for (size_t i = 0; i < kN; ++i)
        pre[i] = nt::shoupPrecompute(b[i], kQ);
    for (auto _ : state) {
        u64 acc = 0;
        for (size_t i = 0; i < kN; ++i)
            acc += nt::shoupMul(a[i], pre[i], kQ);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_Shoup);

void
BM_BatScalar(benchmark::State &state)
{
    // Pre-known operand compiled to the K x K BAT block (Alg. 2).
    nt::Barrett bar(kQ);
    const auto a = inputs(11), b = inputs(12);
    std::vector<bat::ByteMatrix> blocks(kN);
    const u32 k = bat::chunkCount(kQ);
    for (size_t i = 0; i < kN; ++i)
        blocks[i] = bat::directScalarBat(a[i], kQ, k);
    for (auto _ : state) {
        u64 acc = 0;
        for (size_t i = 0; i < kN; ++i)
            acc += bat::batScalarMul(blocks[i], b[i], bar);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_BatScalar);

void
BM_SparseToeplitzScalar(benchmark::State &state)
{
    nt::Barrett bar(kQ);
    const auto a = inputs(13), b = inputs(14);
    for (auto _ : state) {
        u64 acc = 0;
        for (size_t i = 0; i < kN; ++i)
            acc += bat::sparseScalarMul(a[i], b[i], bar);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_SparseToeplitzScalar);

void
BM_LazyReduce(benchmark::State &state)
{
    bat::LazyReduceTable tab(kQ);
    Rng rng(15);
    std::vector<u64> psums(kN);
    for (auto &x : psums)
        x = rng.next();
    for (auto _ : state) {
        u64 acc = 0;
        for (size_t i = 0; i < kN; ++i)
            acc += tab.reduce(psums[i]);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_LazyReduce);

void
BM_FallbackChunkConv(benchmark::State &state)
{
    const auto a = inputs(16), b = inputs(17);
    for (auto _ : state) {
        u64 acc = 0;
        for (size_t i = 0; i < kN; ++i)
            acc += bat::mulViaChunkConvolution(a[i], b[i]);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(BM_FallbackChunkConv);

/** Digits of the key-switch product ops (Set-B's top-level count). */
constexpr size_t kDigits = 3;

/** Source and target limbs of the bconv_dot op (a Set-B ModUp). */
constexpr size_t kBconvFrom = 3;
constexpr size_t kBconvTo = 8;

/** Pointers to the limbs of @p limbs. */
std::vector<const u32 *>
limbPtrs(const std::vector<std::vector<u32>> &limbs)
{
    std::vector<const u32 *> p;
    for (const auto &limb : limbs)
        p.push_back(limb.data());
    return p;
}

/**
 * The operands of the lazy-sum ops: kDigits digit and key limbs with a
 * degree-kN rotation map, and a kBconvFrom -> kBconvTo conversion's
 * sources, weights and targets.
 */
struct LazySumInputs
{
    std::vector<std::vector<u32>> digits, key0, key1, bconvIn, bconvOut;
    std::vector<const u32 *> digitPtrs, key0Ptrs, key1Ptrs, bconvPtrs;
    std::vector<u32> map, out0, out1, prod0, prod1, gathered;
    std::vector<nt::Montgomery> targets;
    std::vector<std::vector<u32>> weights;
    std::vector<size_t> budgets;
    const nt::Montgomery mont{kQ};

    LazySumInputs()
    {
        for (size_t j = 0; j < kDigits; ++j) {
            digits.push_back(inputs(30 + j));
            key0.push_back(inputs(40 + j));
            key1.push_back(inputs(50 + j));
        }
        digitPtrs = limbPtrs(digits);
        key0Ptrs = limbPtrs(key0);
        key1Ptrs = limbPtrs(key1);
        map = poly::Ring(kN, {kQ}).evalAutoMap(5);
        out0.resize(kN);
        out1.resize(kN);
        prod0.resize(kN);
        prod1.resize(kN);
        gathered.resize(kN);

        const auto primes =
            nt::generateNttPrimes(28, kBconvFrom + kBconvTo, 2 * kN);
        Rng rng(60);
        for (size_t i = 0; i < kBconvFrom; ++i) {
            bconvIn.emplace_back(kN);
            for (auto &x : bconvIn.back())
                x = static_cast<u32>(rng.uniform(primes[i]));
        }
        bconvPtrs = limbPtrs(bconvIn);
        for (size_t j = 0; j < kBconvTo; ++j) {
            const u32 p = static_cast<u32>(primes[kBconvFrom + j]);
            targets.emplace_back(p);
            weights.emplace_back(kBconvFrom);
            for (auto &w : weights.back())
                w = static_cast<u32>(rng.uniform(p));
            budgets.push_back(
                nt::lazySumBudget(p, (primes[0] - 1) * u64{p - 1}));
            bconvOut.emplace_back(kN);
        }
    }

    /** The fused rotation product over all kDigits digits. */
    void
    fused()
    {
        nt::keySwitchProductVec(out0.data(), out1.data(), digitPtrs.data(),
                                key0Ptrs.data(), key1Ptrs.data(), kDigits,
                                map.data(), kN, mont);
    }

    /**
     * The same product as it ran before the fused kernel: zeroed
     * accumulators, then per digit a scalar gather, two mulMontVec and
     * two addModVec through two scratch limbs.
     */
    void
    unfused()
    {
        std::fill(out0.begin(), out0.end(), 0);
        std::fill(out1.begin(), out1.end(), 0);
        for (size_t j = 0; j < kDigits; ++j) {
            for (size_t m = 0; m < kN; ++m)
                gathered[m] = digits[j][map[m]];
            nt::mulMontVec(prod0.data(), gathered.data(), key0[j].data(),
                           kN, mont);
            nt::mulMontVec(prod1.data(), gathered.data(), key1[j].data(),
                           kN, mont);
            nt::addModVec(out0.data(), out0.data(), prod0.data(), kN, kQ);
            nt::addModVec(out1.data(), out1.data(), prod1.data(), kN, kQ);
        }
    }

    void
    bconvDot()
    {
        for (size_t j = 0; j < kBconvTo; ++j)
            nt::bconvDotVec(bconvOut[j].data(), bconvPtrs.data(),
                            weights[j].data(), kBconvFrom, kN, budgets[j],
                            targets[j]);
    }
};

/** Best-of-5 ns per call of @p fn, after a warm-up. */
template <class F>
double
bestNs(F &&fn)
{
    constexpr int kIters = 2000;
    for (int i = 0; i < kIters / 4; ++i)
        fn();
    double best_ns = 1e30;
    for (int round = 0; round < 5; ++round) {
        WallTimer w;
        for (int i = 0; i < kIters; ++i)
            fn();
        best_ns = std::min(best_ns, w.seconds() * 1e9 / kIters);
    }
    return best_ns;
}

/**
 * Post-run dispatch sweep over the element-wise vector kernels that the
 * evaluator actually dispatches at runtime (Shoup, Montgomery, Barrett
 * lanes, and the lazy product sums of the key switch and BConv), timed
 * under every available SIMD path on identical inputs.
 * Emits micro_modred/vec_dispatch records keyed {op, isa} plus
 * micro_modred/vec_speedup records keyed {op, isa} whose items_per_sec
 * is the scalar-time / simd-time ratio for that op, and per path a
 * micro_modred/keyswitch_fused_vs_unfused record: the old unfused
 * sequence's time over the fused kernel's on the same inputs. Per-op
 * ratios vary with the kernel's arithmetic density, so these names
 * stay unbanded in fidelity_tolerance.json; the banded headline ratio
 * lives in bench_micro_ntt's micro_ntt/avx2_vs_scalar_speedup.
 */
void
dispatchSweep(bench::Reporter &rep)
{
    const nt::Barrett bar(kQ);
    const nt::Montgomery mont(kQ);
    const auto a = inputs(21), b = inputs(22);
    const auto c = nt::shoupPrecompute(b[0], kQ);
    std::vector<u32> bm(kN), dst(kN);
    for (size_t i = 0; i < kN; ++i)
        bm[i] = mont.toMont(b[i]);
    LazySumInputs lazy;

    struct Ctx
    {
        const std::vector<u32> &a, &b, &bm;
        std::vector<u32> &dst;
        const nt::ShoupConst &c;
        const nt::Barrett &bar;
        const nt::Montgomery &mont;
        LazySumInputs &lazy;
    } ctx{a, b, bm, dst, c, bar, mont, lazy};
    using OpFn = void (*)(const Ctx &);
    const std::pair<const char *, OpFn> ops[] = {
        {"mul_shoup",
         [](const Ctx &x) {
             nt::mulShoupVec(x.dst.data(), x.a.data(), x.c, kN, kQ);
         }},
        {"mul_mont",
         [](const Ctx &x) {
             nt::mulMontVec(x.dst.data(), x.a.data(), x.bm.data(), kN,
                            x.mont);
         }},
        {"mul_barrett",
         [](const Ctx &x) {
             nt::mulModVec(x.dst.data(), x.a.data(), x.b.data(), kN,
                           x.bar);
         }},
        {"keyswitch_product", [](const Ctx &x) { x.lazy.fused(); }},
        {"bconv_dot", [](const Ctx &x) { x.lazy.bconvDot(); }},
    };

    const nt::SimdIsa prev = nt::activeSimdIsa();
    TablePrinter t("SIMD dispatch sweep: vector modmul kernels, N = 4096");
    t.header({"op", "ISA", "ns/vec", "vs scalar"});
    for (const auto &[op_name, fn] : ops) {
        double scalar_ns = 0.0;
        for (auto isa : {nt::SimdIsa::Scalar, nt::SimdIsa::Avx2,
                         nt::SimdIsa::Avx512}) {
            if (!nt::simdIsaAvailable(isa))
                continue;
            nt::setSimdIsa(isa);
            const double best_ns = bestNs([&] {
                fn(ctx);
                benchmark::DoNotOptimize(dst.data());
                benchmark::ClobberMemory();
            });
            const char *isa_name = nt::simdIsaName(isa);
            rep.add("micro_modred/vec_dispatch",
                    {{"op", op_name},
                     {"isa", isa_name},
                     {"n", std::to_string(kN)}},
                    best_ns, kN * 1e9 / best_ns);
            if (isa == nt::SimdIsa::Scalar) {
                scalar_ns = best_ns;
                t.row({op_name, isa_name, fmtF(best_ns, 1), "1.00"});
            } else {
                const double speedup = scalar_ns / best_ns;
                rep.add("micro_modred/vec_speedup",
                        {{"op", op_name}, {"isa", isa_name}}, 0.0,
                        speedup);
                t.row({op_name, isa_name, fmtF(best_ns, 1),
                       fmtX(speedup, 2)});
            }
        }
    }
    t.print(std::cout);

    TablePrinter f("Key-switch product, d = 3 with a rotation map, N = "
                   "4096: fused kernel vs the unfused sequence");
    f.header({"ISA", "fused ns", "unfused ns", "unfused / fused"});
    for (auto isa : {nt::SimdIsa::Scalar, nt::SimdIsa::Avx2,
                     nt::SimdIsa::Avx512}) {
        if (!nt::simdIsaAvailable(isa))
            continue;
        nt::setSimdIsa(isa);
        lazy.unfused();
        const auto want0 = lazy.out0, want1 = lazy.out1;
        lazy.fused();
        if (lazy.out0 != want0 || lazy.out1 != want1)
            throw std::runtime_error(
                "keyswitch_product: fused and unfused outputs differ");
        const auto timed = [&](void (LazySumInputs::*fn)()) {
            return bestNs([&] {
                (lazy.*fn)();
                benchmark::DoNotOptimize(lazy.out0.data());
                benchmark::DoNotOptimize(lazy.out1.data());
                benchmark::ClobberMemory();
            });
        };
        const double fused_ns = timed(&LazySumInputs::fused);
        const double unfused_ns = timed(&LazySumInputs::unfused);
        const double ratio = unfused_ns / fused_ns;
        rep.add("micro_modred/keyswitch_fused_vs_unfused",
                {{"isa", nt::simdIsaName(isa)},
                 {"d", std::to_string(kDigits)},
                 {"n", std::to_string(kN)}},
                0.0, ratio);
        f.row({nt::simdIsaName(isa), fmtF(fused_ns, 1),
               fmtF(unfused_ns, 1), fmtX(ratio, 2)});
    }
    nt::setSimdIsa(prev);
    f.print(std::cout);
}

} // namespace

CROSS_BENCHMARK_MAIN_EXTRA("micro_modred", dispatchSweep);
