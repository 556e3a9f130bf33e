/**
 * @file
 * Quickstart: the smallest end-to-end tour of the library.
 *
 *  1. Build a CKKS context (N = 2^12, 5 limbs).
 *  2. Generate keys, encrypt two real vectors.
 *  3. Run the four backbone HE operators (add, multiply+relin+rescale,
 *     rotate) and decrypt.
 *  4. Show the kernel log the evaluator produced, and what the same
 *     operator costs on a simulated TPUv6e tensor core under CROSS.
 *
 * Build & run:  ./build/examples/quickstart
 */
#include <cstdio>
#include <vector>

#include "ckks/context.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "ckks/keys.h"
#include "ckks/schedule.h"
#include "tpu/sim.h"

int
main()
{
    using namespace cross;
    using namespace cross::ckks;

    // 1. Context ---------------------------------------------------------
    CkksContext ctx(CkksParams::testSet(1 << 12, 5, 2));
    std::printf("context: %s\n", ctx.params().describe().c_str());

    CkksEncoder encoder(ctx);
    KeyGenerator keygen(ctx, /*seed=*/2024);
    CkksEncryptor encryptor(ctx, keygen.publicKey(), 7);
    CkksDecryptor decryptor(ctx, keygen.secretKey());
    KernelLog log;
    CkksEvaluator eval(ctx, &log);

    // 2. Encrypt ---------------------------------------------------------
    const double scale = static_cast<double>(1ULL << 26);
    std::vector<double> xs = {0.5, -0.25, 0.125, 0.75};
    std::vector<double> ys = {0.1, 0.2, -0.3, 0.4};
    const auto ct_x =
        encryptor.encrypt(encoder.encodeReal(xs, scale, ctx.qCount()));
    const auto ct_y =
        encryptor.encrypt(encoder.encodeReal(ys, scale, ctx.qCount()));

    // 3. Compute on ciphertexts ------------------------------------------
    const auto rlk = keygen.relinKey();
    const u32 rot1 = encoder.rotationAutomorphism(1);
    const auto rot_key = keygen.rotationKey(rot1);

    const auto ct_sum = eval.add(ct_x, ct_y);
    // Each key switch takes its key's operands at the operands' level.
    const auto ct_prod = eval.rescale(eval.multiply(
        ct_x, ct_y, eval.precomputeKeySwitch(rlk, ct_x.limbs() - 1)));
    const auto ct_rot = eval.rotate(
        ct_x, rot1, eval.precomputeKeySwitch(rot_key, ct_x.limbs() - 1));

    auto show = [&](const char *name, const Ciphertext &ct,
                    auto expect_fn) {
        const auto slots = encoder.decode(decryptor.decrypt(ct));
        std::printf("%-10s", name);
        for (size_t i = 0; i < 4; ++i)
            std::printf("  % .4f (want % .4f)", slots[i].real(),
                        expect_fn(i));
        std::printf("\n");
    };
    show("x + y", ct_sum, [&](size_t i) { return xs[i] + ys[i]; });
    show("x * y", ct_prod, [&](size_t i) { return xs[i] * ys[i]; });
    show("rot(x,1)", ct_rot,
         [&](size_t i) { return i + 1 < xs.size() ? xs[i + 1] : 0.0; });

    // 4. What did that cost? ---------------------------------------------
    std::printf("\nkernels executed on the CPU backend: %zu\n",
                log.calls().size());

    lowering::Config cfg; // CROSS defaults: BAT + MAT + Montgomery
    HeOpCostModel model(tpu::tpuV6e(), cfg, ctx.params());
    std::printf("simulated TPUv6e (one tensor core, CROSS compilation):\n");
    for (const HeOp op :
         {HeOp::Add, HeOp::Mult, HeOp::Rescale, HeOp::Rotate}) {
        std::printf("  %-8s %8.1f us\n", heOpName(op),
                    model.opLatencyUs(op, ctx.qCount() - 1));
    }
    std::printf("\nNext steps: examples/ntt_playground shows the BAT/MAT "
                "transforms;\nbench/ regenerates every table and figure "
                "of the paper.\n");
    return 0;
}
