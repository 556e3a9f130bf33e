/**
 * @file
 * Shared pieces of the Set-B benchmark: the metric sink, timing and
 * percentile helpers, the correctness tally, and the CKKS rigs (context,
 * keys, compiled models and encrypted inputs) both the gated workloads
 * and the traced layer ledger run on.
 *
 * Every rig is generated from the run's seed: weights, plaintext inputs
 * and key material all derive from it, so one seed always yields the
 * same inputs. The plain-double oracle functions compute the expected
 * slot values from those weights and inputs directly -- they never call
 * into the library's own sequential reference.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ckks/batch_evaluator.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/graph/compiler.h"
#include "ckks/keys.h"
#include "common/types.h"

namespace setb {

using cross::u32;
using cross::u64;
using Matrix = std::vector<std::vector<double>>;

/** One reported metric, printed in the final JSON line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Ordered metric sink; a name may be recorded only once. */
class Metrics
{
  public:
    void add(const std::string &name, double value, const std::string &unit);
    const std::vector<Metric> &all() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

/** Outputs checked against the oracle: attempted, and how many failed. */
struct Tally
{
    u64 attempted = 0;
    u64 failed = 0;

    void record(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

/** Seconds on the steady clock since an arbitrary epoch. */
double nowSeconds();

double median(std::vector<double> v);

/** Median wall seconds of @p reps calls to @p fn, after one warm-up. */
template <class F>
double
medianSeconds(int reps, F &&fn)
{
    fn();
    std::vector<double> t;
    t.reserve(static_cast<size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        const double t0 = nowSeconds();
        fn();
        t.push_back(nowSeconds() - t0);
    }
    return median(t);
}

/** Peak resident set size of this process (VmHWM), MiB. */
double peakRssMib();

/** Deterministic input generator seeded from the run's seed. */
class InputGen
{
  public:
    explicit InputGen(u64 seed) : state_(seed ^ 0x5e7b5e7bULL) {}
    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);
    u64 next();

  private:
    u64 state_;
};

/** Matrix of @p rows x @p cols uniform entries in [-a, a). */
Matrix randomMatrix(InputGen &g, size_t rows, size_t cols, double a);

/** Absolute tolerance of the CKKS oracle, per output slot. */
constexpr double kCkksTolerance = 1e-2;

/** Encoding scale of inputs and plaintext weights (about one q_i, so
 *  every rescale keeps the ciphertext scale near 2^28). */
constexpr double kScale = static_cast<double>(1u << 28);

/**
 * Context, keys and codec of one CKKS workload at Set-B parameters
 * (CkksParams::paperSet('B'): N = 2^13, 8 limbs, dnum 3).
 */
struct CkksRig
{
    explicit CkksRig(u64 seed);
    CkksRig(const CkksRig &) = delete;
    CkksRig &operator=(const CkksRig &) = delete;

    cross::ckks::CkksContext ctx;
    cross::ckks::CkksEncoder encoder;
    cross::ckks::KeyGenerator keygen;
    cross::ckks::CkksEncryptor encryptor;

    /** Encrypt @p slots (zero-padded) at kScale on the full chain. */
    cross::ckks::Ciphertext encrypt(const std::vector<double> &slots);
    /** Decrypt and decode the real parts of the first @p count slots. */
    std::vector<double> decryptReal(const cross::ckks::Ciphertext &ct,
                                    size_t count);

  private:
    /** cos(pi k / N) for k < 2N, built on the first decrypt. */
    std::vector<double> cosTable_;
};

/** Compile @p g on @p rig with compiler-derived keys, fused schedule. */
std::unique_ptr<cross::ckks::graph::CompiledGraph>
compileModel(CkksRig &rig, const cross::ckks::graph::Graph &g);

/**
 * The two-layer MLP y = W2 (W1 x)^2 on a d-vector: matVec, rescale,
 * square, rescale, a one-branch slotSum that replicates the hidden
 * vector for the second diagonal-method product, matVec, rescale.
 */
struct Mlp
{
    size_t dim = 0;
    Matrix w1, w2;

    static Mlp random(InputGen &g, size_t dim);
    cross::ckks::graph::Graph graph() const;
    /** Slot layout of an input: x replicated twice. */
    std::vector<double> pack(const std::vector<double> &x) const;
    /** Plain-double oracle: the first dim slots of the output. */
    std::vector<double> reference(const std::vector<double> &x) const;
};

/** One dense layer y = (W x + b)^2 (workloads::denseSquareLayerGraph). */
struct DenseLayer
{
    size_t dim = 0;
    Matrix w;
    std::vector<double> bias;

    static DenseLayer random(InputGen &g, size_t dim);
    cross::ckks::graph::Graph graph() const;
    std::vector<double> pack(const std::vector<double> &x) const;
    std::vector<double> reference(const std::vector<double> &x) const;
};

/** A model's encrypted input pool with the oracle's expected outputs. */
struct InputPool
{
    std::vector<cross::ckks::Ciphertext> cts;
    std::vector<std::vector<double>> expected;
};

template <class Model>
InputPool
makeInputs(CkksRig &rig, const Model &m, InputGen &g, size_t count)
{
    InputPool pool;
    for (size_t i = 0; i < count; ++i) {
        std::vector<double> x(m.dim);
        for (double &v : x)
            v = g.uniform(-1.0, 1.0);
        pool.cts.push_back(rig.encrypt(m.pack(x)));
        pool.expected.push_back(m.reference(x));
    }
    return pool;
}

/**
 * Oracle check of one CKKS output: decrypt, decode, and true when every
 * slot of @p expected matches within kCkksTolerance. When @p corrupt is
 * set the ciphertext is perturbed first (the self-test's injected
 * fault), which must make the check fail.
 */
bool checkOutput(CkksRig &rig, cross::ckks::Ciphertext ct,
                 const std::vector<double> &expected, bool corrupt);

} // namespace setb
