/**
 * @file
 * Pins the nn compute-backend contracts (src/nn/backend.h):
 *
 *  1. Bit-identity: on finite inputs the vector backend produces
 *     bit-for-bit the scalar reference's results — raw kernels across
 *     odd/tiny/large shapes and zero-heavy inputs, full
 *     forward+backward autograd graphs (values AND gradients), and a
 *     complete minibatch-training run, and the autograd-free
 *     InferenceSession forward (uncached, cache-hit and batched calls).
 *  2. Cache-key exclusion: because backends are interchangeable bit for
 *     bit, backend choice is NOT part of model-cache keys — parameters
 *     stored under one backend must hit and load bitwise under the
 *     other.
 *  3. Finite-input contract: the GEMM zero-skip (`a == 0.0f`, also true
 *     for -0.0f) suppresses the skipped element's IEEE contribution
 *     (notably 0 * inf = NaN). Both backends share the predicate, so
 *     they agree with each other even on hazardous inputs; the hazard
 *     exists only relative to an unskipped evaluation.
 *  4. Selection: setBackendByName / the LLMULATOR_NN_BACKEND contract
 *     ("auto"/empty resolve to vector, unknown names are rejected).
 *  5. The repo exp (nn/expf.h) is within 1 ulp of the correctly rounded
 *     e^x over the normal-result range and flushes subnormal results
 *     to +0, the attention column softmax and GELU agree across backends
 *     bit for bit (masked keys, all-masked columns, extreme inputs), and
 *     the GELU backward matches finite differences of its forward.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "eval/model_cache.h"
#include "harness/trainer.h"
#include "model/cost_model.h"
#include "model/fast_encoder.h"
#include "nn/backend.h"
#include "nn/kernels.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workloads/workloads.h"

#include <unistd.h>

namespace {

using namespace llmulator;
using nn::Tensor;
using nn::TensorPtr;

/** Restore the active backend on scope exit (tests share the global). */
class BackendGuard
{
  public:
    BackendGuard() : saved_(&nn::backend()) {}
    ~BackendGuard() { nn::setBackend(*saved_); }

  private:
    const nn::Backend* saved_;
};

std::vector<float>
randVec(size_t n, util::Rng& rng, double scale = 1.0)
{
    std::vector<float> v(n);
    for (auto& x : v)
        x = static_cast<float>(rng.normal(0.0, scale));
    return v;
}

/** Random data where roughly `zero_permille`/1000 entries are ±0. */
std::vector<float>
zeroHeavyVec(size_t n, util::Rng& rng, int zero_permille)
{
    std::vector<float> v(n);
    for (size_t i = 0; i < n; ++i) {
        if (rng.uniform(0.0, 1000.0) < zero_permille)
            v[i] = (i % 3 == 0) ? -0.f : 0.f;
        else
            v[i] = static_cast<float>(rng.normal(0.0, 1.0));
    }
    return v;
}

bool
bitEqual(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

struct GemmShape
{
    int m, k, n;
};

/**
 * The sweep: tiny, odd/prime, non-multiple-of-block, and the
 * [64,256]x[256,256] class the pooled cost-model GEMMs hit, plus the
 * real encoder shapes (attention scores at headDim 12, FFN at 48->128).
 */
const GemmShape kShapes[] = {
    {1, 1, 1},   {1, 1, 8},     {1, 7, 3},     {3, 1, 1},
    {2, 3, 4},   {4, 8, 8},     {5, 7, 9},     {13, 1, 17},
    {7, 13, 11}, {17, 31, 29},  {33, 64, 15},  {31, 12, 192},
    {192, 48, 128}, {100, 48, 48}, {64, 256, 256},
};

void
runGemmCompare(const GemmShape& s, const std::vector<float>& a,
               const std::vector<float>& b, const std::vector<float>& dc,
               const std::vector<float>& cinit)
{
    const nn::Backend& sc = nn::scalarBackend();
    const nn::Backend& ve = nn::vectorBackend();

    std::vector<float> c1 = cinit, c2 = cinit;
    sc.gemmAccum(a.data(), b.data(), c1.data(), s.m, s.k, s.n);
    ve.gemmAccum(a.data(), b.data(), c2.data(), s.m, s.k, s.n);
    EXPECT_TRUE(bitEqual(c1, c2))
        << "gemmAccum " << s.m << "x" << s.k << "x" << s.n;

    std::vector<float> da1(size_t(s.m) * s.k, 0.25f);
    std::vector<float> da2 = da1;
    sc.gemmAccumBt(dc.data(), b.data(), da1.data(), s.m, s.k, s.n);
    ve.gemmAccumBt(dc.data(), b.data(), da2.data(), s.m, s.k, s.n);
    EXPECT_TRUE(bitEqual(da1, da2))
        << "gemmAccumBt " << s.m << "x" << s.k << "x" << s.n;

    std::vector<float> db1(size_t(s.k) * s.n, -0.5f);
    std::vector<float> db2 = db1;
    sc.gemmAccumAt(a.data(), dc.data(), db1.data(), s.m, s.k, s.n);
    ve.gemmAccumAt(a.data(), dc.data(), db2.data(), s.m, s.k, s.n);
    EXPECT_TRUE(bitEqual(db1, db2))
        << "gemmAccumAt " << s.m << "x" << s.k << "x" << s.n;
}

TEST(NnBackend, GemmBitIdentityShapeSweepDense)
{
    util::Rng rng(101);
    for (const auto& s : kShapes) {
        auto a = randVec(size_t(s.m) * s.k, rng);
        auto b = randVec(size_t(s.k) * s.n, rng);
        auto dc = randVec(size_t(s.m) * s.n, rng);
        auto c = randVec(size_t(s.m) * s.n, rng, 0.1);
        runGemmCompare(s, a, b, dc, c);
    }
}

TEST(NnBackend, GemmBitIdentityZeroHeavy)
{
    // Zero-heavy multipliers exercise the zero-skip on every path,
    // including -0.0f entries (skipped: -0.0f == 0.0f).
    util::Rng rng(202);
    for (const auto& s : kShapes) {
        auto a = zeroHeavyVec(size_t(s.m) * s.k, rng, 700);
        auto b = zeroHeavyVec(size_t(s.k) * s.n, rng, 300);
        auto dc = zeroHeavyVec(size_t(s.m) * s.n, rng, 700);
        std::vector<float> c(size_t(s.m) * s.n, 0.f);
        runGemmCompare(s, a, b, dc, c);
    }
}

TEST(NnBackend, RowWiseKernelsBitIdentity)
{
    util::Rng rng(303);
    const nn::Backend& sc = nn::scalarBackend();
    const nn::Backend& ve = nn::vectorBackend();
    const int dims[][2] = {{1, 1},  {1, 9},  {3, 1},   {5, 8},
                           {7, 13}, {16, 48}, {33, 127}, {64, 256}};
    for (const auto& d : dims) {
        int m = d[0], n = d[1];
        size_t sz = size_t(m) * n;
        auto x = randVec(sz, rng, 2.0);
        auto y = randVec(sz, rng);

        std::vector<float> o1(sz), o2(sz);
        sc.softmaxRows(x.data(), o1.data(), m, n);
        ve.softmaxRows(x.data(), o2.data(), m, n);
        EXPECT_TRUE(bitEqual(o1, o2)) << "softmaxRows " << m << "x" << n;

        auto gamma = randVec(n, rng);
        auto beta = randVec(n, rng);
        std::vector<float> xh1(sz), xh2(sz), is1(m), is2(m);
        sc.layerNormRows(x.data(), gamma.data(), beta.data(), 1e-5f,
                         o1.data(), xh1.data(), is1.data(), m, n);
        ve.layerNormRows(x.data(), gamma.data(), beta.data(), 1e-5f,
                         o2.data(), xh2.data(), is2.data(), m, n);
        EXPECT_TRUE(bitEqual(o1, o2)) << "layerNormRows " << m << "x" << n;
        EXPECT_TRUE(bitEqual(xh1, xh2)) << "layerNorm xhat " << m << "x" << n;
        EXPECT_TRUE(bitEqual(is1, is2)) << "layerNorm invstd " << m;

        sc.geluForward(x.data(), o1.data(), sz);
        ve.geluForward(x.data(), o2.data(), sz);
        EXPECT_TRUE(bitEqual(o1, o2)) << "gelu " << sz;

        sc.addElem(x.data(), y.data(), o1.data(), sz);
        ve.addElem(x.data(), y.data(), o2.data(), sz);
        EXPECT_TRUE(bitEqual(o1, o2)) << "addElem " << sz;

        sc.subElem(x.data(), y.data(), o1.data(), sz);
        ve.subElem(x.data(), y.data(), o2.data(), sz);
        EXPECT_TRUE(bitEqual(o1, o2)) << "subElem " << sz;

        sc.mulElem(x.data(), y.data(), o1.data(), sz);
        ve.mulElem(x.data(), y.data(), o2.data(), sz);
        EXPECT_TRUE(bitEqual(o1, o2)) << "mulElem " << sz;

        std::vector<float> acc1 = y, acc2 = y;
        sc.axpy(0.37f, x.data(), acc1.data(), sz);
        ve.axpy(0.37f, x.data(), acc2.data(), sz);
        EXPECT_TRUE(bitEqual(acc1, acc2)) << "axpy " << sz;

        sc.scaleElem(-1.7f, x.data(), o1.data(), sz);
        ve.scaleElem(-1.7f, x.data(), o2.data(), sz);
        EXPECT_TRUE(bitEqual(o1, o2)) << "scaleElem " << sz;
    }
}

/**
 * Distance in ulps between two non-NaN floats: the count of floats
 * between them, with -0 and +0 one point (0 for equal infinities).
 */
int64_t
ulpDistance(float a, float b)
{
    auto ordered = [](float f) {
        int32_t i;
        std::memcpy(&i, &f, sizeof i);
        return i < 0 ? int64_t(INT32_MIN) - i : int64_t(i);
    };
    return std::llabs(ordered(a) - ordered(b));
}

/** The correctly rounded e^x, via double precision. */
float
expRef(float x)
{
    return static_cast<float>(std::exp(static_cast<double>(x)));
}

TEST(NnBackend, RepoExpWithinOneUlpOfCorrectlyRounded)
{
    // A dense stride over every float bit pattern in the normal-result
    // range [ln FLT_MIN, 88.8] (results past ln FLT_MAX are +inf).
    const float lnMin = -87.3365f;
    int64_t worst = 0;
    float worstAt = 0.f;
    long checked = 0;
    for (uint64_t b = 0; b < (uint64_t(1) << 32); b += 4099) {
        const uint32_t bits = static_cast<uint32_t>(b);
        float x;
        std::memcpy(&x, &bits, sizeof x);
        if (!(x >= lnMin && x <= 88.8f))
            continue;
        const int64_t d = ulpDistance(nn::kernels::expf(x), expRef(x));
        if (d > worst) {
            worst = d;
            worstAt = x;
        }
        ++checked;
    }
    EXPECT_GT(checked, 100000);
    EXPECT_LE(worst, 1) << "at x = " << worstAt;

    // Edges: signed zeros give exactly 1; the ends of the normal range
    // stay within 1 ulp; past ln FLT_MAX (88.72) the result is +inf.
    EXPECT_EQ(nn::kernels::expf(0.f), 1.f);
    EXPECT_EQ(nn::kernels::expf(-0.f), 1.f);
    for (float x : {lnMin, -87.33f, -87.3f, -87.f, 88.7f, 88.72f, 88.73f,
                    88.8f, 100.f, 1e30f})
        EXPECT_LE(ulpDistance(nn::kernels::expf(x), expRef(x)), 1)
            << "x = " << x << " got " << nn::kernels::expf(x);
    EXPECT_TRUE(std::isfinite(nn::kernels::expf(88.72f)));
    EXPECT_EQ(nn::kernels::expf(88.73f),
              std::numeric_limits<float>::infinity());
    EXPECT_EQ(nn::kernels::expf(std::numeric_limits<float>::infinity()),
              std::numeric_limits<float>::infinity());

    // Below ln FLT_MIN (-87.3365) the true result is subnormal; the repo
    // exp flushes it to exactly +0 (an absolute error under FLT_MIN).
    for (float x : {-87.34f, -87.5f, -90.f, -103.9f, -104.f, -150.f,
                    -1e30f, -std::numeric_limits<float>::infinity()}) {
        EXPECT_EQ(nn::kernels::expf(x), 0.f) << "x = " << x;
        EXPECT_FALSE(std::signbit(nn::kernels::expf(x))) << "x = " << x;
        EXPECT_LT(expRef(x), std::numeric_limits<float>::min());
    }
}

TEST(NnBackend, AttnSoftmaxColsBitIdentityAndMasking)
{
    util::Rng rng(404);
    const nn::Backend& sc = nn::scalarBackend();
    const nn::Backend& ve = nn::vectorBackend();
    const float scale = 0.2886751f; // 1/sqrt(12), the Small head dim
    for (int n : {1, 5, 37, 130}) {
        // Keys: a run of Class I rows, a run of data rows, plain rows.
        std::vector<uint8_t> kClassI(n, 0), kData(n, 0);
        for (int j = 0; j < n; ++j) {
            kClassI[j] = j % 5 == 1;
            kData[j] = j % 5 == 3 || j % 5 == 4;
        }
        for (int m = 1; m <= 16; ++m) {
            // Query 0 is Class I (it loses the data keys); query 1 is data
            // (it loses the Class I keys); the rest are random.
            std::vector<uint8_t> qClassI(m, 0), qData(m, 0);
            for (int t = 0; t < m; ++t) {
                qClassI[t] = t == 0 || (t > 1 && rng.uniform(0, 1) < 0.3);
                qData[t] = t == 1 || (t > 1 && !qClassI[t] &&
                                      rng.uniform(0, 1) < 0.3);
            }
            auto st = randVec(size_t(n) * m, rng, 8.0);
            std::vector<float> s1 = st, s2 = st;
            sc.attnSoftmaxCols(s1.data(), n, m, scale, kClassI.data(),
                               kData.data(), qClassI.data(), qData.data());
            ve.attnSoftmaxCols(s2.data(), n, m, scale, kClassI.data(),
                               kData.data(), qClassI.data(), qData.data());
            EXPECT_TRUE(bitEqual(s1, s2)) << "n=" << n << " m=" << m;

            for (int t = 0; t < m; ++t) {
                float sum = 0.f;
                bool anyOpen = false;
                for (int j = 0; j < n; ++j) {
                    const float w = s1[size_t(j) * m + t];
                    const bool masked = (qClassI[t] && kData[j]) ||
                                        (qData[t] && kClassI[j]);
                    anyOpen |= !masked;
                    EXPECT_TRUE(w == 0.f || w >= 1e-9f);
                    if (masked) {
                        EXPECT_EQ(w, 0.f) << "masked key " << j;
                    }
                    sum += w;
                }
                if (anyOpen) {
                    EXPECT_NEAR(sum, 1.f, 1e-4f) << "column " << t;
                }
            }
        }
    }

    // An all-masked column (a Class I query against data-only keys)
    // keeps e^0 on every key: uniform weights, equal on both backends.
    const int n = 7, m = 3;
    std::vector<uint8_t> kClassI(n, 0), kData(n, 1);
    std::vector<uint8_t> qClassI = {1, 0, 1}, qData = {0, 1, 0};
    auto st = randVec(size_t(n) * m, rng, 4.0);
    std::vector<float> s1 = st, s2 = st;
    sc.attnSoftmaxCols(s1.data(), n, m, scale, kClassI.data(), kData.data(),
                       qClassI.data(), qData.data());
    ve.attnSoftmaxCols(s2.data(), n, m, scale, kClassI.data(), kData.data(),
                       qClassI.data(), qData.data());
    EXPECT_TRUE(bitEqual(s1, s2));
    for (int j = 0; j < n; ++j) {
        EXPECT_EQ(s1[size_t(j) * m + 0], 1.f / n);
        EXPECT_EQ(s1[size_t(j) * m + 2], 1.f / n);
    }
}

TEST(NnBackend, GeluForwardBitIdentityIncludingExtremes)
{
    util::Rng rng(505);
    std::vector<float> x = randVec(1000, rng, 3.0);
    for (float e : {0.f, -0.f, 1e-30f, -1e-30f, 4.5f, -4.5f, 9.f, -9.f,
                    20.f, -20.f, 100.f, -100.f, 1e10f, -1e10f, 1e20f,
                    -1e20f, 3e38f, -3e38f})
        x.push_back(e);
    for (size_t sz : {size_t(1), size_t(7), size_t(8), size_t(9),
                      x.size()}) {
        std::vector<float> y1(sz), y2(sz);
        nn::scalarBackend().geluForward(x.data(), y1.data(), sz);
        nn::vectorBackend().geluForward(x.data(), y2.data(), sz);
        EXPECT_TRUE(bitEqual(y1, y2)) << "size " << sz;
    }
    std::vector<float> y(x.size());
    nn::vectorBackend().geluForward(x.data(), y.data(), x.size());
    for (size_t i = 0; i < x.size(); ++i) {
        ASSERT_TRUE(std::isfinite(y[i])) << "x = " << x[i];
        // The exact tanh form, in double, within float noise.
        const double v = x[i];
        const double u = 0.7978845608028654 * (v + 0.044715 * v * v * v);
        const double ref = 0.5 * v * (1.0 + std::tanh(u));
        if (std::isfinite(ref)) {
            EXPECT_NEAR(y[i], ref, 1e-6 * std::max(1.0, std::fabs(ref)))
                << "x = " << x[i];
        }
    }
}

TEST(NnBackend, GeluBackwardMatchesFiniteDifferences)
{
    // The tape's GELU gradient (kernels::geluBackward) against a central
    // difference of the forward kernel, over the range where GELU bends
    // and out into both saturated tails.
    BackendGuard guard;
    for (const nn::Backend* be : {&nn::scalarBackend(),
                                  &nn::vectorBackend()}) {
        nn::setBackend(*be);
        std::vector<float> xs;
        for (float v = -8.f; v <= 8.f; v += 0.0625f)
            xs.push_back(v + 0.01f);
        for (float v : {-60.f, -25.f, 25.f, 60.f})
            xs.push_back(v);
        auto x = Tensor::fromData(1, int(xs.size()), xs, true);
        nn::sumAll(nn::gelu(x))->backward();
        const double h = 1e-2;
        for (size_t i = 0; i < xs.size(); ++i) {
            ASSERT_TRUE(std::isfinite(x->grad[i])) << "x = " << xs[i];
            float up = 0.f, down = 0.f;
            const float xp = float(xs[i] + h), xm = float(xs[i] - h);
            be->geluForward(&xp, &up, 1);
            be->geluForward(&xm, &down, 1);
            const double numeric = (double(up) - double(down)) / (xp - xm);
            EXPECT_NEAR(x->grad[i], numeric,
                        2e-3 * std::max(1.0, std::fabs(numeric)))
                << be->name << " x = " << xs[i];
        }

        // Far tails: the slope saturates to exactly 0 and 1.
        auto tails = Tensor::fromData(1, 2, {-1e6f, 1e6f}, true);
        nn::sumAll(nn::gelu(tails))->backward();
        EXPECT_EQ(tails->grad[0], 0.f) << be->name;
        EXPECT_EQ(tails->grad[1], 1.f) << be->name;
    }
}

/**
 * Build a 2-layer encoder + pooled regression graph summed over three
 * sequential forwards (one masked), run forward and backward, and
 * return the loss bits
 * plus every parameter gradient. Everything (init, data) is seeded, so
 * the only degree of freedom between calls is the active backend.
 */
struct GraphResult
{
    float loss;
    std::vector<std::vector<float>> grads;
};

GraphResult
runEncoderGraph(const nn::Backend& be)
{
    BackendGuard guard;
    nn::setBackend(be);

    util::Rng rng(7777);
    nn::EncoderConfig cfg;
    cfg.vocab = 23;
    cfg.dim = 16;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.ffn = 32;
    cfg.maxSeq = 12;
    nn::TransformerEncoder enc(cfg, rng);

    std::vector<std::vector<int>> seqs = {
        {1, 2, 3, 4, 5, 6, 7},
        {8, 9, 10},
        {11, 12, 13, 14, 15, 16, 17, 18, 19, 20},
    };
    // The last sequence carries an additive mask, so -1e9 scores (and
    // their exactly-zero softmax weights) stay on the compared path.
    const int n = static_cast<int>(seqs[2].size());
    auto mask = nn::Tensor::zeros(n, n);
    for (int i = 0; i < n; i += 3)
        for (int j = n / 2; j < n; ++j)
            mask->at(i, j) = -1e9f;
    std::vector<TensorPtr> masks = {nullptr, nullptr, mask};
    const std::vector<float> targets = {0.5f, -1.0f, 2.0f};
    // One scalar head on top so softmax/gelu/layernorm/GEMM all sit on
    // the gradient path.
    auto head = nn::Tensor::fromData(
        cfg.dim, 1, randVec(cfg.dim, rng, 0.3), true);
    TensorPtr loss;
    for (size_t i = 0; i < seqs.size(); ++i) {
        TensorPtr pooled =
            nn::TransformerEncoder::pooled(enc.forward(seqs[i], masks[i]));
        TensorPtr l = nn::mseLoss(nn::matmul(pooled, head), {targets[i]});
        loss = loss ? nn::add(loss, l) : l;
    }

    auto params = enc.parameters();
    params.push_back(head);
    for (auto& p : params)
        p->zeroGrad();
    loss->backward();

    GraphResult r;
    r.loss = loss->value[0];
    for (auto& p : params)
        r.grads.push_back(p->grad);
    return r;
}

TEST(NnBackend, ForwardBackwardGraphBitIdentity)
{
    GraphResult s = runEncoderGraph(nn::scalarBackend());
    GraphResult v = runEncoderGraph(nn::vectorBackend());
    EXPECT_EQ(0, std::memcmp(&s.loss, &v.loss, sizeof(float)));
    ASSERT_EQ(s.grads.size(), v.grads.size());
    for (size_t i = 0; i < s.grads.size(); ++i)
        EXPECT_TRUE(bitEqual(s.grads[i], v.grads[i]))
            << "parameter gradient " << i;
}

/** Tiny seeded MLP regression task for trainMinibatch. */
struct TrainOutcome
{
    std::vector<double> epochLoss;
    std::vector<std::vector<float>> params;
};

TrainOutcome
runTraining(const nn::Backend& be)
{
    BackendGuard guard;
    nn::setBackend(be);

    util::Rng rng(4242);
    nn::Mlp mlp({6, 12, 1}, rng);
    const size_t kSamples = 24;
    std::vector<std::vector<float>> xs;
    std::vector<float> ys;
    for (size_t i = 0; i < kSamples; ++i) {
        auto x = randVec(6, rng);
        float y = 0.f;
        for (float v : x)
            y += v * v;
        xs.push_back(std::move(x));
        ys.push_back(y);
    }

    harness::TrainReplica rep;
    rep.params = mlp.parameters();
    rep.sampleLoss = [&](size_t idx) {
        auto in = Tensor::fromData(1, 6, xs[idx]);
        return nn::mseLoss(mlp.forward(in), {ys[idx]});
    };

    harness::TrainerConfig tcfg;
    tcfg.epochs = 3;
    tcfg.batchSize = 8;
    tcfg.seed = 11;
    harness::TrainStats stats =
        harness::trainMinibatch(mlp.parameters(), {rep}, kSamples, tcfg);

    TrainOutcome out;
    out.epochLoss = stats.epochLoss;
    for (const auto& p : mlp.parameters())
        out.params.push_back(p->value);
    return out;
}

TEST(NnBackend, TrainingTrajectoryBitIdentity)
{
    TrainOutcome s = runTraining(nn::scalarBackend());
    TrainOutcome v = runTraining(nn::vectorBackend());
    ASSERT_EQ(s.epochLoss.size(), v.epochLoss.size());
    for (size_t e = 0; e < s.epochLoss.size(); ++e)
        EXPECT_EQ(0, std::memcmp(&s.epochLoss[e], &v.epochLoss[e],
                                 sizeof(double)))
            << "epoch " << e;
    ASSERT_EQ(s.params.size(), v.params.size());
    for (size_t i = 0; i < s.params.size(); ++i)
        EXPECT_TRUE(bitEqual(s.params[i], v.params[i]))
            << "trained parameter " << i;
}

/**
 * InferenceSession pooled rows under one backend: a cache miss (a full
 * forward that primes the prefix cache), a data-only change served as
 * a cache hit, and a mixed batch.
 */
std::vector<std::vector<float>>
runSession(const nn::Backend& be)
{
    BackendGuard guard;
    nn::setBackend(be);

    model::CostModel m(model::configForScale(model::ModelScale::Small));
    // seidel-2d's canonical data and first variant share the static
    // prefix, so the second call below is a cache hit.
    workloads::Workload w;
    for (const auto& cand : workloads::polybench())
        if (cand.name == "seidel-2d")
            w = cand;
    auto canon = m.encode(w.graph, &w.canonicalData);
    auto variant = m.encode(w.graph, &w.variants.at(0));
    auto stat = m.encode(w.graph, nullptr);

    model::InferenceSession session(m);
    std::vector<std::vector<float>> out;
    out.push_back(session.pooled(canon, /*use_cache=*/true)->value);
    out.push_back(session.pooled(variant, /*use_cache=*/true)->value);
    EXPECT_EQ(session.stats().cachedForwards, 1);
    EXPECT_GT(session.stats().rowsReused, 0);
    out.push_back(
        session.forwardPooledBatch({&canon, &variant, &stat})->value);
    return out;
}

TEST(NnBackend, InferenceSessionBitIdentity)
{
    auto s = runSession(nn::scalarBackend());
    auto v = runSession(nn::vectorBackend());
    ASSERT_EQ(s.size(), v.size());
    const char* what[] = {"uncached pooled", "cache-hit pooled",
                          "batched pooled"};
    for (size_t i = 0; i < s.size(); ++i)
        EXPECT_TRUE(bitEqual(s[i], v[i])) << what[i];
}

TEST(NnBackend, ModelCacheKeysExcludeBackend)
{
    // Parameters stored while one backend is active must hit — and load
    // bitwise — under the other: backend choice is not a cache-key
    // component, because backends are bit-identical by contract.
    BackendGuard guard;
    std::string dir =
        util::format("/tmp/llm_backend_cache_%ld", long(::getpid()));
    ::setenv("LLMULATOR_CACHE_DIR", dir.c_str(), 1);

    util::Rng rng(99);
    auto stored = Tensor::fromData(4, 5, randVec(20, rng), true);
    nn::setBackend(nn::scalarBackend());
    eval::storeCached("backend_contract_key", {stored});

    nn::setBackend(nn::vectorBackend());
    auto loaded = Tensor::zeros(4, 5, true);
    EXPECT_TRUE(eval::loadCached("backend_contract_key", {loaded}));
    EXPECT_TRUE(bitEqual(stored->value, loaded->value));

    std::remove(eval::cachePath("backend_contract_key").c_str());
    ::rmdir(dir.c_str());
    ::unsetenv("LLMULATOR_CACHE_DIR");
}

TEST(NnBackend, ZeroSkipFiniteInputContract)
{
    // a = [0, -0, 1]: the zero entries are skipped by predicate
    // `a == 0.0f` in BOTH backends, so a non-finite B row sitting under
    // a zero multiplier is suppressed rather than poisoning C with
    // 0*inf = NaN. This is exactly the documented divergence from
    // unskipped IEEE arithmetic — and why the kernel contract requires
    // finite inputs.
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<float> a = {0.f, -0.f, 1.f};              // [1,3]
    std::vector<float> b = {inf, -inf,                    // row 0 (skipped)
                            std::nanf(""), 7.f,           // row 1 (skipped)
                            2.f, 3.f};                    // row 2
    std::vector<float> c1 = {1.f, 1.f}, c2 = c1;
    nn::scalarBackend().gemmAccum(a.data(), b.data(), c1.data(), 1, 3, 2);
    nn::vectorBackend().gemmAccum(a.data(), b.data(), c2.data(), 1, 3, 2);
    EXPECT_TRUE(bitEqual(c1, c2));
    EXPECT_FLOAT_EQ(c1[0], 3.f); // 1 + 1*2: skipped rows contribute nothing
    EXPECT_FLOAT_EQ(c1[1], 4.f); // 1 + 1*3
    // The unskipped IEEE result would be NaN in both columns — the
    // skip is semantics, not an optimization, hence the contract.
    float naive0 = 1.f + 0.f * inf;
    EXPECT_TRUE(std::isnan(naive0));

    // Same contract on the A^T*dC kernel, whose skip is on A as well.
    // Column p=0 of A is [0, -0]: both i contributions are skipped, so
    // out row 0 stays exactly zero even though dc holds an inf that an
    // unskipped 0*inf would have turned into NaN.
    std::vector<float> at = {0.f, 1.f, -0.f, 0.5f}; // [2,2]
    std::vector<float> dc = {inf, 1.f, 2.f, 4.f};   // [2,2]
    std::vector<float> o1 = {0.f, 0.f, 0.f, 0.f}, o2 = o1;
    nn::scalarBackend().gemmAccumAt(at.data(), dc.data(), o1.data(), 2, 2, 2);
    nn::vectorBackend().gemmAccumAt(at.data(), dc.data(), o2.data(), 2, 2, 2);
    EXPECT_TRUE(bitEqual(o1, o2));
    EXPECT_FLOAT_EQ(o1[0], 0.f);
    EXPECT_FLOAT_EQ(o1[1], 0.f);
    EXPECT_TRUE(std::isinf(o1[2])); // genuine inf * nonzero passes through
    EXPECT_FLOAT_EQ(o1[3], 3.f);    // 1*1 + 0.5*4
}

TEST(NnBackend, SelectionByName)
{
    BackendGuard guard;
    EXPECT_TRUE(nn::setBackendByName("scalar"));
    EXPECT_STREQ("scalar", nn::backend().name);
    EXPECT_TRUE(nn::setBackendByName("vector"));
    EXPECT_STREQ("vector", nn::backend().name);
    // auto and "" (unset env) both resolve to the vector backend.
    EXPECT_TRUE(nn::setBackendByName("auto"));
    EXPECT_STREQ("vector", nn::backend().name);
    EXPECT_TRUE(nn::setBackendByName(""));
    EXPECT_STREQ("vector", nn::backend().name);
    // Unknown names are rejected and leave the active backend alone.
    nn::setBackendByName("scalar");
    EXPECT_FALSE(nn::setBackendByName("blas"));
    EXPECT_STREQ("scalar", nn::backend().name);
}

} // namespace
