#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "common/rng.h"
#include "nt/modops.h"
#include "poly/ntt_ct.h"
#include "workloads/ml_workloads.h"

namespace setb {

using namespace cross;
using namespace cross::ckks;

void
Metrics::add(const std::string &name, double value, const std::string &unit)
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            throw std::logic_error("metric recorded twice: " + name);
    metrics_.push_back({name, value, unit});
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMib()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // reported in kB
    }
    return 0.0;
}

u64
InputGen::next()
{
    return splitMix64(state_);
}

double
InputGen::uniform(double lo, double hi)
{
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
    return lo + (hi - lo) * u;
}

Matrix
randomMatrix(InputGen &g, size_t rows, size_t cols, double a)
{
    Matrix m(rows, std::vector<double>(cols));
    for (auto &row : m)
        for (double &v : row)
            v = g.uniform(-a, a);
    return m;
}

CkksRig::CkksRig(u64 seed)
    : ctx(CkksParams::paperSet('B')), encoder(ctx), keygen(ctx, seed * 2 + 1),
      encryptor(ctx, keygen.publicKey(), seed * 2 + 2)
{
}

Ciphertext
CkksRig::encrypt(const std::vector<double> &slots)
{
    return encryptor.encrypt(encoder.encodeReal(slots, kScale, ctx.qCount()));
}

std::vector<double>
CkksRig::decryptReal(const Ciphertext &ct, size_t count)
{
    // The oracle's own decrypt and decode, on the calling thread only
    // (never the shared pool, which serving dispatchers hold for whole
    // segments): m = c0 + c1 s on the first two limbs (~2^56, ample
    // headroom for the scaled message), an inverse NTT per limb, a
    // 64-bit CRT composition, then the real parts of the first count
    // slots straight from m(zeta^(5^j)) = sum_i m_i zeta^(5^j i) with
    // zeta = exp(i pi / N).
    const poly::Ring &ring = ctx.ring();
    const poly::RnsPoly &sk = keygen.secretKey().s;
    const u64 n = ctx.degree();
    const u64 two_n = 2 * n;
    std::vector<u32> m[2];
    for (size_t l = 0; l < 2; ++l) {
        const u64 q = ring.modulus(l);
        m[l].resize(n);
        for (u64 i = 0; i < n; ++i)
            m[l][i] = static_cast<u32>(
                (ct.c0.limb(l)[i] +
                 static_cast<u64>(ct.c1.limb(l)[i]) * sk.limb(l)[i]) %
                q);
        poly::inverseInPlace(m[l].data(), ring.tables(l));
    }
    if (cosTable_.empty()) {
        cosTable_.resize(two_n);
        for (u64 k = 0; k < two_n; ++k)
            cosTable_[k] = std::cos(M_PI * static_cast<double>(k) /
                                    static_cast<double>(n));
    }
    const u64 q0 = ring.modulus(0);
    const u64 q1 = ring.modulus(1);
    const u64 q0_inv = nt::invMod(q0 % q1, q1);
    const u64 big_q = q0 * q1;
    std::vector<double> coeff(n);
    for (u64 i = 0; i < n; ++i) {
        const u64 r0 = m[0][i];
        const u64 r1 = m[1][i];
        const u64 t = nt::mulMod((r1 + q1 - r0 % q1) % q1, q0_inv, q1);
        const u64 x = r0 + q0 * t;
        coeff[i] = x > big_q / 2 ? -static_cast<double>(big_q - x)
                                 : static_cast<double>(x);
    }
    std::vector<double> out(count);
    u64 rot = 1; // 5^j mod 2N
    for (size_t j = 0; j < count; ++j) {
        double sum = 0.0;
        for (u64 i = 0, k = 0; i < n; ++i, k = (k + rot) % two_n)
            sum += coeff[i] * cosTable_[k];
        out[j] = sum / ct.scale;
        rot = rot * 5 % two_n;
    }
    return out;
}

std::unique_ptr<graph::CompiledGraph>
compileModel(CkksRig &rig, const graph::Graph &g)
{
    graph::CompileOptions opts;
    opts.lowering.baseScale = kScale;
    opts.keygen = &rig.keygen;
    opts.schedule = graph::ScheduleKind::Fused;
    return graph::compileGraph(rig.ctx, g, opts);
}

namespace {

std::vector<double>
replicate2(const std::vector<double> &x)
{
    std::vector<double> packed = x;
    packed.insert(packed.end(), x.begin(), x.end());
    return packed;
}

std::vector<double>
matVec(const Matrix &w, const std::vector<double> &x)
{
    std::vector<double> y(w.size(), 0.0);
    for (size_t i = 0; i < w.size(); ++i)
        for (size_t j = 0; j < x.size(); ++j)
            y[i] += w[i][j] * x[j];
    return y;
}

} // namespace

Mlp
Mlp::random(InputGen &g, size_t dim)
{
    // Entries in [-1/d, 1/d) keep |hidden| and |y| below 1 for inputs
    // in [-1, 1), so the absolute tolerance is meaningful.
    const double a = 1.0 / static_cast<double>(dim);
    Mlp m;
    m.dim = dim;
    m.w1 = randomMatrix(g, dim, dim, a);
    m.w2 = randomMatrix(g, dim, dim, a);
    return m;
}

graph::Graph
Mlp::graph() const
{
    graph::Graph g;
    const auto x = g.input("x");
    const auto h = g.rescale(g.matVec(x, w1, 2, "layer1"), "layer1 rescale");
    const auto sq =
        g.rescale(g.multiply(h, h, "square"), "square rescale");
    // The hidden vector sits in slots [0, d); one right rotation by d
    // lays the second copy the diagonal method of layer 2 needs.
    const auto rep =
        g.slotSum(sq, {-static_cast<i64>(dim)}, "replicate hidden");
    g.markOutput(g.rescale(g.matVec(rep, w2, 2, "layer2"), "layer2 rescale"));
    return g;
}

std::vector<double>
Mlp::pack(const std::vector<double> &x) const
{
    return replicate2(x);
}

std::vector<double>
Mlp::reference(const std::vector<double> &x) const
{
    std::vector<double> h = matVec(w1, x);
    for (double &v : h)
        v *= v;
    return matVec(w2, h);
}

DenseLayer
DenseLayer::random(InputGen &g, size_t dim)
{
    DenseLayer l;
    l.dim = dim;
    l.w = randomMatrix(g, dim, dim, 1.0 / static_cast<double>(dim));
    l.bias.resize(dim);
    for (double &b : l.bias)
        b = g.uniform(-0.1, 0.1);
    return l;
}

graph::Graph
DenseLayer::graph() const
{
    return workloads::denseSquareLayerGraph(w, bias, 2);
}

std::vector<double>
DenseLayer::pack(const std::vector<double> &x) const
{
    return replicate2(x);
}

std::vector<double>
DenseLayer::reference(const std::vector<double> &x) const
{
    std::vector<double> y = matVec(w, x);
    for (size_t i = 0; i < y.size(); ++i)
        y[i] = (y[i] + bias[i]) * (y[i] + bias[i]);
    return y;
}

bool
checkOutput(CkksRig &rig, Ciphertext ct, const std::vector<double> &expected,
            bool corrupt)
{
    if (corrupt) {
        // Shift one evaluation-domain coefficient by q/2 in every limb:
        // the decrypted message is garbage in every slot.
        for (size_t i = 0; i < ct.c0.limbCount(); ++i) {
            const u64 q = ct.c0.limbModulus(i);
            u32 &c = ct.c0.limb(i)[0];
            c = static_cast<u32>((c + q / 2) % q);
        }
    }
    const auto got = rig.decryptReal(ct, expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
        if (!(std::abs(got[i] - expected[i]) <= kCkksTolerance))
            return false;
    return true;
}

} // namespace setb
