/**
 * @file
 * CostModel + calibration + acceleration tests: segment encoding, the
 * separation mask, SFT trainability, DPO convergence toward profiled
 * truth, and cache consistency of the fast inference path, whose pooled
 * rows are also pinned bit for bit against a plain per-row reference.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "calib/dpo.h"
#include "dfir/builder.h"
#include "model/cost_model.h"
#include "model/fast_encoder.h"
#include "nn/kernels.h"
#include "nn/optim.h"
#include "nn/ops.h"
#include "obs/trace.h"
#include "sim/profiler.h"
#include "workloads/workloads.h"

namespace {

using namespace llmulator;
using namespace llmulator::dfir;
using model::CostModel;
using model::CostModelConfig;
using model::Metric;

Operator
makeScale(long n)
{
    Operator op;
    op.name = "scaleop";
    op.tensors = {tensor("X", {c(n)}), tensor("Y", {c(n)})};
    op.body = {forLoop("i", c(0), c(n),
                       {assign("Y", {v("i")},
                               bmul(a("X", {v("i")}), c(3)))})};
    return op;
}

Operator
makeThreshold()
{
    Operator op;
    op.name = "thresh";
    op.tensors = {tensor("X", {p("N")}), tensor("Y", {p("N")})};
    op.scalarParams = {"N"};
    op.body = {forLoop(
        "i", c(0), p("N"),
        {ifStmt(bgt(a("X", {v("i")}), c(0)),
                {assign("Y", {v("i")},
                        bmul(bmul(a("X", {v("i")}), a("X", {v("i")})),
                             c(2)))},
                {assign("Y", {v("i")}, c(0))})})};
    return op;
}

DataflowGraph
makeGraph(std::vector<Operator> ops)
{
    DataflowGraph g;
    g.name = "test";
    for (const auto& op : ops)
        g.calls.push_back({op.name});
    g.ops = std::move(ops);
    return g;
}

CostModelConfig
tinyConfig()
{
    auto cfg = model::configForScale(model::ModelScale::Tiny);
    cfg.enc.maxSeq = 320;
    cfg.head.width = 6;
    return cfg;
}

TEST(CostModel, EncodeProducesSegmentsInOrder)
{
    CostModel m(tinyConfig());
    auto g = makeGraph({makeScale(16), makeThreshold()});
    RuntimeData data;
    data.scalars["N"] = 32;
    auto ep = m.encode(g, &data);
    ASSERT_GE(ep.ranges.size(), 4u);
    EXPECT_EQ(ep.ranges.front().kind, model::SegmentKind::Graph);
    EXPECT_TRUE(ep.hasData);
    // Class labels recorded: scaleop is Class I, thresh is Class II.
    bool saw_class_i = false, saw_class_ii = false;
    for (const auto& r : ep.ranges) {
        if (r.kind != model::SegmentKind::Op)
            continue;
        if (r.name == "scaleop")
            saw_class_i = r.classI;
        if (r.name == "thresh")
            saw_class_ii = !r.classI;
    }
    EXPECT_TRUE(saw_class_i);
    EXPECT_TRUE(saw_class_ii);
    // Ranges tile the sequence without overlap.
    int cursor = 0;
    for (const auto& r : ep.ranges) {
        EXPECT_EQ(r.begin, cursor);
        cursor = r.end;
    }
    EXPECT_EQ(cursor, ep.length());
}

TEST(CostModel, SeparationMaskBlocksClassIDataPairs)
{
    CostModel m(tinyConfig());
    auto g = makeGraph({makeScale(8), makeThreshold()});
    RuntimeData data;
    data.scalars["N"] = 16;
    auto ep = m.encode(g, &data);
    auto mask = model::buildSeparationMask(ep);
    ASSERT_NE(mask, nullptr);
    // Locate ranges.
    model::TokenRange class_i, data_r;
    for (const auto& r : ep.ranges) {
        if (r.kind == model::SegmentKind::Op && r.classI)
            class_i = r;
        if (r.kind == model::SegmentKind::Data)
            data_r = r;
    }
    ASSERT_GT(class_i.end, class_i.begin);
    ASSERT_GT(data_r.end, data_r.begin);
    EXPECT_LT(mask->at(class_i.begin, data_r.begin), -1e8f);
    EXPECT_LT(mask->at(data_r.begin, class_i.begin), -1e8f);
    // Graph tokens stay connected to data.
    EXPECT_FLOAT_EQ(mask->at(0, data_r.begin), 0.f);
}

TEST(CostModel, NoMaskWithoutData)
{
    CostModel m(tinyConfig());
    auto g = makeGraph({makeScale(8)});
    auto ep = m.encode(g, nullptr);
    EXPECT_EQ(model::buildSeparationMask(ep), nullptr);
}

TEST(CostModel, SftLearnsToSeparateTwoPrograms)
{
    // Overfit two programs with very different cycle counts; the model must
    // reproduce both after a short SFT run.
    auto cfg = tinyConfig();
    CostModel m(cfg);
    nn::AdamWConfig ocfg;
    ocfg.lr = 3e-3f;
    nn::AdamW opt(m.parameters(), ocfg);

    auto g_small = makeGraph({makeScale(8)});
    auto g_large = makeGraph({makeScale(64)});
    long y_small = sim::profileStatic(g_small).cycles;
    long y_large = sim::profileStatic(g_large).cycles;
    ASSERT_NE(y_small, y_large);

    auto ep_small = m.encode(g_small);
    auto ep_large = m.encode(g_large);
    for (int step = 0; step < 150; ++step) {
        opt.zeroGrad();
        auto loss = nn::add(
            m.lossForMetric(ep_small, Metric::Cycles, y_small),
            m.lossForMetric(ep_large, Metric::Cycles, y_large));
        loss->backward();
        opt.step();
    }
    EXPECT_EQ(m.predict(ep_small, Metric::Cycles).value, y_small);
    EXPECT_EQ(m.predict(ep_large, Metric::Cycles).value, y_large);
}

TEST(CostModel, CloneIsIndependent)
{
    CostModel m(tinyConfig());
    auto copy = m.clone();
    auto g = makeGraph({makeScale(8)});
    auto ep = m.encode(g);
    auto before = copy->predict(ep, Metric::Power);
    // Perturb the original; the clone must not move.
    for (auto& p : m.parameters())
        for (auto& v : p->value)
            v += 0.05f;
    auto copy_after = copy->predict(ep, Metric::Power);
    EXPECT_EQ(copy_after.value, before.value);
    EXPECT_DOUBLE_EQ(copy_after.logProb, before.logProb);
    // The perturbed original's output distribution has moved.
    EXPECT_NE(m.predict(ep, Metric::Power).logProb, before.logProb);
}

TEST(Calibration, DpoMovesPredictionTowardProfiledTruth)
{
    auto cfg = tinyConfig();
    CostModel m(cfg);
    auto g = makeGraph({makeThreshold()});
    RuntimeData data;
    data.scalars["N"] = 24;
    long truth = sim::profile(g, data).cycles;
    auto ep = m.encode(g, &data);

    // The paper calibrates the SFT-pretrained static model, not a random
    // initialization: warm up toward a deliberately *biased* label (the
    // static model's systematic misprediction) so DPO has something to fix.
    {
        nn::AdamWConfig ocfg;
        ocfg.lr = 3e-3f;
        nn::AdamW opt(m.parameters(), ocfg);
        long biased = truth + truth / 2;
        for (int step = 0; step < 80; ++step) {
            opt.zeroGrad();
            auto loss = m.lossForMetric(ep, Metric::Cycles, biased);
            loss->backward();
            opt.step();
        }
    }
    double static_err = std::fabs(
        double(m.predict(ep, Metric::Cycles).value) - double(truth)) /
        double(truth);
    EXPECT_GT(static_err, 0.25); // the bias is real before calibration

    calib::DpoConfig dcfg;
    dcfg.lr = 3e-3f;
    dcfg.minibatch = 4;
    calib::DpoCalibrator calib(m, dcfg);

    double first_err = -1, last_err = -1;
    for (int iter = 0; iter < 30; ++iter) {
        double err = calib.observe(ep, truth);
        if (iter == 0)
            first_err = err;
        last_err = err;
    }
    // Error decreases across calibration iterations (Section 1: converges
    // after several iterations).
    EXPECT_LT(last_err, first_err);
    EXPECT_LT(last_err, 0.25);
}

TEST(Calibration, ReplayBufferSlidingWindow)
{
    calib::ReplayBuffer buf(3);
    for (int i = 0; i < 5; ++i) {
        calib::PreferenceTriplet t;
        t.yw = {i};
        buf.push(std::move(t));
    }
    EXPECT_EQ(buf.size(), 3u);
    util::Rng rng(1);
    auto sample = buf.sample(rng, 8);
    ASSERT_EQ(sample.size(), 8u);
    for (const auto* t : sample)
        EXPECT_GE(t->yw[0], 2); // only the 3 most recent survive
}

TEST(FastEncoder, MatchesAutogradForwardWithoutCache)
{
    auto cfg = tinyConfig();
    cfg.controlFlowMask = true;
    CostModel m(cfg);
    auto g = makeGraph({makeScale(8), makeThreshold()});
    RuntimeData data;
    data.scalars["N"] = 16;
    auto ep = m.encode(g, &data);

    auto slow = m.predict(ep, Metric::Cycles, 3);
    model::InferenceSession session(m);
    auto fast = session.predict(ep, Metric::Cycles, false, 3);
    EXPECT_EQ(fast.value, slow.value);
    EXPECT_NEAR(fast.confidence(), slow.confidence(), 1e-4);
}

TEST(FastEncoder, CacheHitReusesRowsAndKeepsPrediction)
{
    auto cfg = tinyConfig();
    CostModel m(cfg);
    auto g = makeGraph({makeScale(8), makeThreshold()});
    RuntimeData d1, d2;
    d1.scalars["N"] = 16;
    d2.scalars["N"] = 48; // data-only change, same static prefix

    model::InferenceSession session(m);
    auto ep1 = m.encode(g, &d1);
    auto ep2 = m.encode(g, &d2);
    auto full = session.predict(ep1, Metric::Cycles, true);
    long reused_before = session.stats().rowsReused;
    auto cached = session.predict(ep2, Metric::Cycles, true);
    EXPECT_EQ(session.stats().cachedForwards, 1);
    EXPECT_GT(session.stats().rowsReused, reused_before);
    (void)full;
    (void)cached;

    // Cached prediction must agree with an uncached prediction on the same
    // input up to the documented Class-I approximation; with a freshly
    // initialized model the digit outputs are diffuse, so only check the
    // mechanism here (exactness is covered by the masked-row test below).
    model::InferenceSession fresh(m);
    auto exact = fresh.predict(ep2, Metric::Cycles, false);
    EXPECT_EQ(exact.digits.size(), cached.digits.size());
}

TEST(FastEncoder, CacheHitOnSameEncodingReproducesUncachedRow)
{
    CostModel m(tinyConfig());
    auto g = makeGraph({makeScale(8), makeThreshold()});
    RuntimeData data;
    data.scalars["N"] = 16;
    auto ep = m.encode(g, &data);

    model::InferenceSession fresh(m);
    auto exact = fresh.pooled(ep, false);

    // Nothing changed between the two calls, so the rows the hit serves
    // from the cache must reproduce the uncached forward exactly.
    model::InferenceSession session(m);
    session.pooled(ep, true); // miss: primes the cache
    auto cached = session.pooled(ep, true);
    EXPECT_EQ(session.stats().cachedForwards, 1);
    EXPECT_GT(session.stats().rowsReused, 0);
    EXPECT_EQ(cached->value, exact->value);
}

TEST(FastEncoder, UncachedCallLeavesPrefixCacheCold)
{
    CostModel m(tinyConfig());
    auto g = makeGraph({makeScale(8), makeThreshold()});
    RuntimeData d1, d2;
    d1.scalars["N"] = 16;
    d2.scalars["N"] = 48; // data-only change, same static prefix
    auto ep1 = m.encode(g, &d1);
    auto ep2 = m.encode(g, &d2);

    // An uncached call neither consults nor primes the cache, so the
    // cached call after it misses and runs a full forward.
    model::InferenceSession session(m);
    session.pooled(ep1, false);
    session.pooled(ep2, true);
    EXPECT_EQ(session.stats().cachedForwards, 0);
    EXPECT_EQ(session.stats().fullForwards, 2);
    EXPECT_EQ(session.stats().rowsReused, 0);
}

/** Counts of the attention events a reference forward went through. */
struct ReferenceTally
{
    long maskedPairs = 0;    //!< (query, key) pairs the separation mask cut
    long droppedWeights = 0; //!< open keys whose weight fell below 1e-9
};

/**
 * The session's encoder forward written as plain per-row loops over the
 * encoder's public weights, in the float order served values follow:
 * bias-first linear layers (ascending-k sums that skip zero inputs),
 * LayerNorm and GELU (x / (1 + exp(-2u))) as the scalar backend computes
 * them, every exp through the repo exp (nn::kernels::expf), and per-row,
 * per-head attention with the -1e30 separation mask and weights below
 * 1e-9 left out of the context. Returns the mean-pooled row [dim].
 */
std::vector<float>
referencePooled(const CostModel& m, const model::EncodedProgram& ep,
                ReferenceTally& tally)
{
    const nn::TransformerEncoder& enc = m.encoder();
    const int d = enc.cfg.dim;
    const int hd = d / enc.cfg.heads;
    const int n = std::min(ep.length(), enc.cfg.maxSeq);
    std::vector<uint8_t> dataRow(n, 0), classIRow(n, 0);
    for (const auto& r : ep.ranges)
        for (int i = r.begin; i < r.end && i < n; ++i) {
            dataRow[i] |= r.kind == model::SegmentKind::Data;
            classIRow[i] |= r.kind == model::SegmentKind::Op && r.classI;
        }

    auto linear = [](const nn::Linear& lin, const float* x, float* y) {
        const int in = lin.weight->rows, out = lin.weight->cols;
        const float* w = lin.weight->value.data();
        for (int o = 0; o < out; ++o)
            y[o] = lin.bias->value[o];
        for (int p = 0; p < in; ++p) {
            if (x[p] == 0.f)
                continue;
            for (int o = 0; o < out; ++o)
                y[o] += x[p] * w[size_t(p) * out + o];
        }
    };
    auto layerNorm = [d](const nn::LayerNorm& ln, const float* x, float* y) {
        float mean = 0.f;
        for (int j = 0; j < d; ++j)
            mean += x[j];
        mean /= d;
        float var = 0.f;
        for (int j = 0; j < d; ++j) {
            float dv = x[j] - mean;
            var += dv * dv;
        }
        var /= d;
        float is = 1.f / std::sqrt(var + 1e-5f);
        for (int j = 0; j < d; ++j)
            y[j] = ln.gamma->value[j] * ((x[j] - mean) * is) +
                   ln.beta->value[j];
    };

    std::vector<float> h(size_t(n) * d);
    for (int i = 0; i < n; ++i)
        for (int j = 0; j < d; ++j)
            h[size_t(i) * d + j] =
                enc.tok->table->value[size_t(ep.tokens[i]) * d + j] +
                enc.pos->value[size_t(i % enc.cfg.maxSeq) * d + j];

    const float inv_sqrt = 1.f / std::sqrt(static_cast<float>(hd));
    std::vector<float> a(d), q(size_t(n) * d), k(size_t(n) * d),
        v(size_t(n) * d), ctx(d), proj(d), mid(enc.cfg.ffn), scores(n);
    for (const auto& blk : enc.blocks) {
        for (int i = 0; i < n; ++i) {
            layerNorm(*blk->ln1, &h[size_t(i) * d], a.data());
            linear(*blk->attn->wq, a.data(), &q[size_t(i) * d]);
            linear(*blk->attn->wk, a.data(), &k[size_t(i) * d]);
            linear(*blk->attn->wv, a.data(), &v[size_t(i) * d]);
        }
        // Every row's attention reads this layer's q/k/v only, so the
        // residual updates below may run row by row.
        for (int i = 0; i < n; ++i) {
            for (int hh = 0; hh < enc.cfg.heads; ++hh) {
                const float* qh = &q[size_t(i) * d + hh * hd];
                float mx = -1e30f;
                for (int j = 0; j < n; ++j) {
                    if ((classIRow[i] && dataRow[j]) ||
                        (dataRow[i] && classIRow[j])) {
                        scores[j] = -1e30f;
                        ++tally.maskedPairs;
                        continue;
                    }
                    const float* kh = &k[size_t(j) * d + hh * hd];
                    float s = 0.f;
                    for (int x = 0; x < hd; ++x)
                        s += qh[x] * kh[x];
                    s *= inv_sqrt;
                    scores[j] = s;
                    mx = std::max(mx, s);
                }
                float sum = 0.f;
                for (int j = 0; j < n; ++j) {
                    scores[j] = nn::kernels::expf(scores[j] - mx);
                    sum += scores[j];
                }
                float invs = 1.f / sum;
                float* out = &ctx[hh * hd];
                std::fill(out, out + hd, 0.f);
                for (int j = 0; j < n; ++j) {
                    float w = scores[j] * invs;
                    if (w < 1e-9f) {
                        tally.droppedWeights += scores[j] > 0.f;
                        continue;
                    }
                    const float* vh = &v[size_t(j) * d + hh * hd];
                    for (int x = 0; x < hd; ++x)
                        out[x] += w * vh[x];
                }
            }
            float* row = &h[size_t(i) * d];
            linear(*blk->attn->wo, ctx.data(), proj.data());
            for (int j = 0; j < d; ++j)
                row[j] += proj[j];
            layerNorm(*blk->ln2, row, a.data());
            linear(*blk->ff1, a.data(), mid.data());
            for (float& x : mid) {
                float u = nn::kernels::kGeluC *
                          (x + nn::kernels::kGeluA * x * x * x);
                x = x / (nn::kernels::expf(u * -2.f) + 1.f);
            }
            linear(*blk->ff2, mid.data(), proj.data());
            for (int j = 0; j < d; ++j)
                row[j] += proj[j];
        }
    }

    std::vector<float> pooled(d, 0.f);
    for (int i = 0; i < n; ++i) {
        layerNorm(*enc.lnFinal, &h[size_t(i) * d], a.data());
        for (int j = 0; j < d; ++j)
            pooled[j] += a[j];
    }
    for (float& x : pooled)
        x /= n;
    return pooled;
}

bool
bitEqual(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(FastEncoder, SessionMatchesPlainReferenceForwardBitForBit)
{
    for (auto scale : {model::ModelScale::Tiny, model::ModelScale::Small}) {
        auto cfg = model::configForScale(scale);
        cfg.enc.maxSeq = 320;
        CostModel m(cfg);
        // Sharpen the attention of the seeded model so some weights fall
        // below the 1e-9 cut, as they do in a trained one.
        for (const auto& blk : m.encoder().blocks)
            for (float& w : blk->attn->wq->weight->value)
                w *= 12.f;

        // Runtime-data encodings (a data segment next to Class I
        // operators, so the separation mask cuts pairs) plus one static.
        std::vector<model::EncodedProgram> eps;
        const auto modern = workloads::modern();
        for (const auto& w : modern) {
            eps.push_back(m.encode(w.graph, &w.canonicalData));
            if (!w.variants.empty())
                eps.push_back(m.encode(w.graph, &w.variants.front()));
        }
        eps.push_back(m.encode(modern.front().graph));

        ReferenceTally tally;
        std::vector<std::vector<float>> ref;
        for (const auto& ep : eps)
            ref.push_back(referencePooled(m, ep, tally));
        EXPECT_GT(tally.maskedPairs, 0);
        EXPECT_GT(tally.droppedWeights, 0);

        model::InferenceSession session(m);
        for (size_t i = 0; i < eps.size(); ++i) {
            EXPECT_TRUE(bitEqual(session.pooled(eps[i], false)->value,
                                 ref[i]))
                << "uncached, encoding " << i;
            // An uncached call leaves the cache as it was, so drop the
            // previous encoding's prefix: this call misses and primes.
            session.invalidate();
            session.pooled(eps[i], true);
            const long hits = session.stats().cachedForwards;
            EXPECT_TRUE(bitEqual(session.pooled(eps[i], true)->value,
                                 ref[i]))
                << "cache hit, encoding " << i;
            EXPECT_EQ(session.stats().cachedForwards, hits + 1);
        }
        for (size_t i = 0; i < eps.size(); i += 8) {
            std::vector<const model::EncodedProgram*> batch;
            for (size_t j = i; j < eps.size() && j < i + 8; ++j)
                batch.push_back(&eps[j]);
            auto rows = session.forwardPooledBatch(batch);
            for (size_t j = 0; j < batch.size(); ++j) {
                std::vector<float> row(
                    rows->value.begin() + j * cfg.enc.dim,
                    rows->value.begin() + (j + 1) * cfg.enc.dim);
                EXPECT_TRUE(bitEqual(row, ref[i + j]))
                    << "batched, encoding " << i + j;
            }
        }
    }
}

TEST(FastEncoder, TracedForwardRecordsEachStageOncePerLayer)
{
    // With tracing on, a forward records one span per stage per layer
    // (tile and head times summed) and no other span, and its values
    // stay bit-identical to an untraced forward.
    auto cfg = tinyConfig();
    CostModel m(cfg);
    const auto modern = workloads::modern();
    const auto ep = m.encode(modern[3].graph, &modern[3].canonicalData);
    model::InferenceSession session(m);

    const bool wasOn = obs::traceEnabled();
    obs::setTraceEnabled(false);
    const std::vector<float> plain = session.pooled(ep, false)->value;
    obs::setTraceEnabled(true);
    obs::clearSpans();
    const std::vector<float> traced = session.pooled(ep, false)->value;
    std::map<std::string, int> counts;
    for (const obs::SpanEvent& e : obs::collectSpans())
        ++counts[e.name];
    obs::setTraceEnabled(wasOn);

    EXPECT_TRUE(bitEqual(plain, traced));
    const int layers = cfg.enc.layers;
    for (const char* stage : {"qkv", "scores", "softmax", "context",
                              "out_ln2", "ffn_up", "gelu", "ffn_down"})
        EXPECT_EQ(counts[std::string("model.forward.") + stage], layers)
            << stage;
    EXPECT_EQ(counts.size(), 8u);
}

TEST(FastEncoder, StaticPrefixChangeInvalidatesCache)
{
    auto cfg = tinyConfig();
    CostModel m(cfg);
    auto g1 = makeGraph({makeScale(8)});
    auto g2 = makeGraph({makeScale(16)}); // different static program
    model::InferenceSession session(m);
    session.predict(m.encode(g1), Metric::Cycles, true);
    session.predict(m.encode(g2), Metric::Cycles, true);
    EXPECT_EQ(session.stats().cachedForwards, 0);
    EXPECT_EQ(session.stats().fullForwards, 2);
}

} // namespace
