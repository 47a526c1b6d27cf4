/**
 * @file
 * CostModel + calibration + acceleration tests: segment encoding, the
 * separation mask, SFT trainability, DPO convergence toward profiled
 * truth, and cache consistency of the fast inference path.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "calib/dpo.h"
#include "dfir/builder.h"
#include "model/cost_model.h"
#include "model/fast_encoder.h"
#include "nn/optim.h"
#include "nn/ops.h"
#include "sim/profiler.h"

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
