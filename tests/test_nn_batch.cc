/**
 * @file
 * Batch-first forward tests: PaddedBatch packing/mask composition, the
 * bit-identity contract (forwardBatch over B rows == B sequential
 * forwards, at the nn layer and through CostModel / InferenceSession /
 * DigitHead), no-leak guarantees for padding rows, and the batched-loss
 * per-sample values.
 *
 * Every equality here is EXPECT_EQ on float values (or whole vectors),
 * not near-comparison: bit-identity is the API contract that keeps
 * serving results byte-stable and model-cache artifacts interchangeable
 * between the batched and sequential paths.
 */

#include <gtest/gtest.h>

#include <set>

#include "dfir/builder.h"
#include "model/cost_model.h"
#include "model/fast_encoder.h"
#include "nn/batch.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace llmulator;
using namespace llmulator::dfir;

namespace {

/** Rows [start, start+len) of a stacked tensor as a plain vector. */
std::vector<float>
rowSpan(const nn::TensorPtr& t, int start, int len)
{
    return std::vector<float>(
        t->value.begin() + size_t(start) * t->cols,
        t->value.begin() + size_t(start + len) * t->cols);
}

nn::EncoderConfig
tinyEncoderConfig()
{
    nn::EncoderConfig cfg;
    cfg.vocab = 13;
    cfg.dim = 16;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.ffn = 24;
    cfg.maxSeq = 32;
    return cfg;
}

/** Deterministic token sequence of the given length. */
std::vector<int>
makeSeq(int len, int salt, int vocab)
{
    std::vector<int> ids(len);
    for (int i = 0; i < len; ++i)
        ids[i] = (salt + 3 * i) % vocab;
    return ids;
}

/** Additive mask blocking (i, j) pairs where i%3==0 and j>=len/2. */
nn::TensorPtr
makeControlMask(int len)
{
    auto mask = nn::Tensor::zeros(len, len);
    for (int i = 0; i < len; i += 3)
        for (int j = len / 2; j < len; ++j) {
            mask->at(i, j) = nn::kMaskNegInf;
            mask->at(j, i) = nn::kMaskNegInf;
        }
    return mask;
}

DataflowGraph
makeGraph(const std::string& name, long bias)
{
    Operator op;
    op.name = "scale";
    op.scalarParams = {"N"};
    op.tensors = {tensor("X", {p("N")}), tensor("Y", {p("N")})};
    op.body = {forLoop("i", c(0), p("N"),
                       {assign("Y", {v("i")},
                               badd(a("X", {v("i")}), c(bias)))})};
    DataflowGraph g;
    g.name = name;
    g.ops = {op};
    g.calls = {{"scale"}};
    return g;
}

/** makeGraph's operator repeated under `copies` distinct names. */
DataflowGraph
makeChainGraph(const std::string& name, int copies)
{
    DataflowGraph g = makeGraph(name, 1);
    const Operator base = g.ops[0];
    g.ops.clear();
    g.calls.clear();
    for (int i = 0; i < copies; ++i) {
        Operator op = base;
        op.name = "scale" + std::to_string(i);
        g.ops.push_back(op);
        g.calls.push_back({op.name});
    }
    return g;
}

RuntimeData
makeData(long n)
{
    RuntimeData d;
    d.scalars["N"] = n;
    return d;
}

model::CostModelConfig
tinyModelConfig()
{
    auto cfg = model::configForScale(model::ModelScale::Tiny);
    cfg.enc.maxSeq = 128;
    return cfg;
}

} // namespace

TEST(PaddedBatch, PackPadsTokensAndComposesMasks)
{
    std::vector<std::vector<int>> seqs = {makeSeq(5, 1, 13),
                                          makeSeq(9, 2, 13)};
    nn::TensorPtr ctl = makeControlMask(5);
    auto pb = nn::PaddedBatch::pack(seqs, {ctl, nullptr}, 32, /*pad_id=*/0);

    EXPECT_EQ(pb.batch, 2);
    EXPECT_EQ(pb.maxSeq, 9);
    EXPECT_EQ(pb.lengths, (std::vector<int>{5, 9}));
    ASSERT_EQ(pb.tokens.size(), 18u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(pb.tokens[i], seqs[0][i]);
    for (int i = 5; i < 9; ++i)
        EXPECT_EQ(pb.tokens[i], 0) << "padding slot " << i;

    // Row 0 (padded): control mask in the top-left, padding columns
    // blocked for every query row, nothing else touched.
    ASSERT_NE(pb.rowMasks[0], nullptr);
    const auto& m = *pb.rowMasks[0];
    ASSERT_EQ(m.rows, 9);
    for (int i = 0; i < 5; ++i)
        for (int j = 0; j < 5; ++j)
            EXPECT_EQ(m.at(i, j), ctl->at(i, j));
    for (int i = 0; i < 9; ++i)
        for (int j = 5; j < 9; ++j)
            EXPECT_EQ(m.at(i, j), nn::kMaskNegInf);

    // Row 1 (full length, no control mask): no mask at all, matching
    // the single-sequence graph exactly.
    EXPECT_EQ(pb.rowMasks[1], nullptr);

    // A full-length row WITH a control mask reuses the caller's tensor.
    nn::TensorPtr ctl9 = makeControlMask(9);
    auto pb2 = nn::PaddedBatch::pack({seqs[1]}, {ctl9}, 32);
    EXPECT_EQ(pb2.rowMasks[0].get(), ctl9.get());
}

TEST(PaddedBatch, PackTruncatesToCap)
{
    auto pb = nn::PaddedBatch::pack({makeSeq(20, 0, 13)}, {}, 8);
    EXPECT_EQ(pb.maxSeq, 8);
    EXPECT_EQ(pb.lengths, std::vector<int>{8});
    EXPECT_EQ(pb.tokens.size(), 8u);
}

TEST(EncoderBatch, MixedLengthBatchBitIdenticalToSequential)
{
    nn::EncoderConfig cfg = tinyEncoderConfig();
    util::Rng rng(11);
    nn::TransformerEncoder enc(cfg, rng);

    std::vector<std::vector<int>> seqs = {
        makeSeq(7, 1, cfg.vocab), makeSeq(12, 5, cfg.vocab),
        makeSeq(3, 9, cfg.vocab), makeSeq(12, 2, cfg.vocab)};
    std::vector<nn::TensorPtr> masks = {makeControlMask(7), nullptr,
                                        nullptr, makeControlMask(12)};

    auto pb = nn::PaddedBatch::pack(seqs, masks, cfg.maxSeq);
    nn::TensorPtr hidden = enc.forwardBatch(pb);
    nn::TensorPtr pooled = nn::TransformerEncoder::pooledBatch(hidden, pb);
    ASSERT_EQ(hidden->rows, pb.rows());
    ASSERT_EQ(pooled->rows, pb.batch);

    for (size_t b = 0; b < seqs.size(); ++b) {
        nn::TensorPtr ref = enc.forward(seqs[b], masks[b]);
        nn::TensorPtr refPooled = nn::TransformerEncoder::pooled(ref);
        int len = static_cast<int>(seqs[b].size());
        EXPECT_EQ(rowSpan(hidden, int(b) * pb.maxSeq, len),
                  rowSpan(ref, 0, len))
            << "hidden rows diverged for sequence " << b;
        EXPECT_EQ(rowSpan(pooled, int(b), 1), rowSpan(refPooled, 0, 1))
            << "pooled row diverged for sequence " << b;
    }
}

TEST(EncoderBatch, PaddingNeverLeaksIntoRealRows)
{
    nn::EncoderConfig cfg = tinyEncoderConfig();
    util::Rng rng(23);
    nn::TransformerEncoder enc(cfg, rng);

    std::vector<int> shortSeq = makeSeq(4, 3, cfg.vocab);
    std::vector<int> longSeq = makeSeq(15, 6, cfg.vocab);

    // The short row's pooled output must not depend on (a) which
    // neighbours it was batched with, or (b) the token id used to pad.
    auto pbA = nn::PaddedBatch::pack({shortSeq, longSeq}, {}, cfg.maxSeq,
                                     /*pad_id=*/0);
    auto pbB = nn::PaddedBatch::pack({shortSeq, makeSeq(11, 1, cfg.vocab)},
                                     {}, cfg.maxSeq, /*pad_id=*/7);
    nn::TensorPtr pooledA =
        nn::TransformerEncoder::pooledBatch(enc.forwardBatch(pbA), pbA);
    nn::TensorPtr pooledB =
        nn::TransformerEncoder::pooledBatch(enc.forwardBatch(pbB), pbB);
    EXPECT_EQ(rowSpan(pooledA, 0, 1), rowSpan(pooledB, 0, 1));

    // And the padded attention weights on padding keys are exactly zero:
    // a real query row attending to a padding column would shift the
    // softmax sum and break equality with the unbatched forward.
    nn::TensorPtr ref = nn::TransformerEncoder::pooled(
        enc.forward(shortSeq, nullptr));
    EXPECT_EQ(rowSpan(pooledA, 0, 1), rowSpan(ref, 0, 1));
}

TEST(EncoderBatch, GradientsFlowThroughBatchedGraph)
{
    nn::EncoderConfig cfg = tinyEncoderConfig();
    cfg.layers = 1;
    util::Rng rng(5);
    nn::TransformerEncoder enc(cfg, rng);

    auto pb = nn::PaddedBatch::pack(
        {makeSeq(4, 1, cfg.vocab), makeSeq(6, 2, cfg.vocab)}, {},
        cfg.maxSeq);
    nn::TensorPtr pooled =
        nn::TransformerEncoder::pooledBatch(enc.forwardBatch(pb), pb);
    nn::TensorPtr loss = nn::sumAll(pooled);
    loss->backward();

    // Every parameter participates in a batched forward.
    for (const auto& p : enc.parameters()) {
        ASSERT_FALSE(p->grad.empty());
        float asum = 0.f;
        for (float g : p->grad)
            asum += std::abs(g);
        EXPECT_GT(asum, 0.f);
    }
}

TEST(CostModelBatch, PooledForwardBatchMatchesSequential)
{
    model::CostModel m(tinyModelConfig());
    DataflowGraph g1 = makeGraph("a", 1), g2 = makeGraph("b", 2);
    RuntimeData d1 = makeData(16), d2 = makeData(24);

    // Mixed static/dynamic encodings of different lengths; the dynamic
    // ones exercise the Section-5.2 control-flow mask composition.
    auto epA = m.encode(g1, nullptr);
    auto epB = m.encode(g1, &d1);
    auto epC = m.encode(g2, &d2);
    std::vector<const model::EncodedProgram*> eps = {&epA, &epB, &epC};

    nn::TensorPtr batch = m.pooledForwardBatch(eps);
    ASSERT_EQ(batch->rows, 3);
    for (size_t i = 0; i < eps.size(); ++i) {
        nn::TensorPtr ref = m.pooledForward(*eps[i]);
        EXPECT_EQ(rowSpan(batch, int(i), 1), rowSpan(ref, 0, 1))
            << "pooled row " << i;
    }
}

TEST(CostModelBatch, LossBatchPerSampleValuesMatchLossOnSample)
{
    model::CostModel m(tinyModelConfig());
    struct Sample
    {
        DataflowGraph g;
        RuntimeData d;
        bool hasData;
        model::Targets t;
    };
    std::vector<Sample> raw;
    for (long i = 0; i < 3; ++i) {
        Sample s{makeGraph("g" + std::to_string(i), i), makeData(10 + i),
                 i != 1, {}};
        s.t.power = 120 + i;
        s.t.area = 900 + 10 * i;
        s.t.flipFlops = 40 + i;
        s.t.cycles = 7000 + 100 * i;
        raw.push_back(std::move(s));
    }

    std::vector<model::EncodedProgram> stats, dyns(raw.size());
    for (auto& s : raw)
        stats.push_back(m.encode(s.g, nullptr));
    for (size_t i = 0; i < raw.size(); ++i)
        if (raw[i].hasData)
            dyns[i] = m.encode(raw[i].g, &raw[i].d);

    std::vector<model::CostModel::BatchLossSample> samples;
    for (size_t i = 0; i < raw.size(); ++i)
        samples.push_back({&stats[i], raw[i].hasData ? &dyns[i] : nullptr,
                           &raw[i].t});

    model::CostModel::BatchLoss bl = m.lossBatch(samples);
    ASSERT_EQ(bl.perSample.size(), raw.size());
    double totalRef = 0;
    for (size_t i = 0; i < raw.size(); ++i) {
        nn::TensorPtr ref = m.lossOnSample(
            stats[i], raw[i].hasData ? &dyns[i] : nullptr, raw[i].t);
        EXPECT_EQ(bl.perSample[i]->value[0], ref->value[0])
            << "per-sample loss " << i;
        totalRef += double(ref->value[0]);
    }
    EXPECT_NEAR(double(bl.total->value[0]), totalRef, 1e-4);

    // The combined graph must reach every parameter.
    bl.total->backward();
    for (const auto& p : m.parameters())
        ASSERT_FALSE(p->grad.empty());
}

TEST(InferenceSessionBatch, ForwardPooledBatchMatchesSequential)
{
    model::CostModel m(tinyModelConfig());
    DataflowGraph g1 = makeGraph("x", 3), g2 = makeGraph("y", 4);
    RuntimeData d = makeData(20);
    // Mixed lengths stack the sequences at unaligned row offsets, so the
    // forward's row tiles straddle sequence boundaries. The long chain is
    // encoded by a model with a wider position table, so it reaches the
    // session longer than maxSeq and is truncated there.
    auto wideCfg = tinyModelConfig();
    wideCfg.enc.maxSeq = 2 * m.config().enc.maxSeq;
    model::CostModel wide(wideCfg);
    std::vector<model::EncodedProgram> encs = {
        m.encode(g1, nullptr),
        m.encode(g2, &d),
        m.encode(g2, nullptr),
        wide.encode(makeChainGraph("long", 20), &d),
        m.encode(makeChainGraph("two", 2), nullptr),
        m.encode(makeChainGraph("three", 3), &d),
    };
    const int maxSeq = m.config().enc.maxSeq;
    ASSERT_GT(encs[3].length(), maxSeq);
    std::vector<const model::EncodedProgram*> eps;
    std::set<int> lengths;
    for (const auto& ep : encs) {
        eps.push_back(&ep);
        lengths.insert(std::min(ep.length(), maxSeq));
    }
    EXPECT_GE(lengths.size(), 4u) << "lengths must be mixed";

    model::InferenceSession batchSession(m);
    nn::TensorPtr batch = batchSession.forwardPooledBatch(eps);
    const int B = static_cast<int>(eps.size());
    ASSERT_EQ(batch->rows, B);
    EXPECT_EQ(batchSession.stats().fullForwards, B);

    model::InferenceSession seq(m);
    for (int i = 0; i < B; ++i) {
        nn::TensorPtr ref = seq.pooled(*eps[i], /*use_cache=*/false);
        EXPECT_EQ(rowSpan(batch, i, 1), rowSpan(ref, 0, 1))
            << "fast-path pooled row " << i;
    }
    EXPECT_EQ(batchSession.stats().rowsComputed, seq.stats().rowsComputed);
}

TEST(DigitHeadBatch, DecodeBatchMatchesSequentialDecode)
{
    model::CostModel m(tinyModelConfig());
    DataflowGraph g1 = makeGraph("p", 1), g2 = makeGraph("q", 5);
    auto epA = m.encode(g1, nullptr);
    auto epB = m.encode(g2, nullptr);

    model::InferenceSession session(m);
    nn::TensorPtr pooled = session.forwardPooledBatch({&epA, &epB});

    for (int mi = 0; mi < model::kNumMetrics; ++mi) {
        const model::DigitHead& head =
            m.head(static_cast<model::Metric>(mi));
        auto preds = head.decodeBatch(pooled, /*beam_width=*/3);
        ASSERT_EQ(preds.size(), 2u);
        for (int r = 0; r < 2; ++r) {
            auto row = nn::Tensor::fromData(1, pooled->cols,
                                            rowSpan(pooled, r, 1));
            model::NumericPrediction ref = head.decode(row, 3);
            EXPECT_EQ(preds[r].value, ref.value);
            EXPECT_EQ(preds[r].digits, ref.digits);
            EXPECT_EQ(preds[r].digitProbs, ref.digitProbs);
            EXPECT_EQ(preds[r].logProb, ref.logProb);
        }
    }
}

// Telemetry is speed-only: with the metrics and trace gates forced on,
// the batched forward produces bit-identical outputs to a telemetry-off
// run, while the GEMM call/FLOP counters actually count.
TEST(EncoderBatch, TelemetryEnabledKeepsForwardBitIdentical)
{
    nn::EncoderConfig cfg = tinyEncoderConfig();
    std::vector<std::vector<int>> seqs = {makeSeq(7, 1, cfg.vocab),
                                          makeSeq(12, 5, cfg.vocab)};
    auto pb = nn::PaddedBatch::pack(seqs, {}, cfg.maxSeq);

    obs::setMetricsEnabled(false);
    obs::setTraceEnabled(false);
    util::Rng rngOff(11);
    nn::TransformerEncoder encOff(cfg, rngOff);
    nn::TensorPtr off = nn::TransformerEncoder::pooledBatch(
        encOff.forwardBatch(pb), pb);

    obs::registry().reset();
    obs::setMetricsEnabled(true);
    obs::setTraceEnabled(true);
    util::Rng rngOn(11);
    nn::TransformerEncoder encOn(cfg, rngOn);
    nn::TensorPtr on = nn::TransformerEncoder::pooledBatch(
        encOn.forwardBatch(pb), pb);
    obs::setMetricsEnabled(false);
    obs::setTraceEnabled(false);
    obs::clearSpans();

    EXPECT_EQ(on->value, off->value); // whole tensor, bit for bit

    // The instrumented run counted its GEMMs (per kernel per backend,
    // nn.gemm_accum.<backend>.{calls,flops}).
    uint64_t calls = 0;
    for (const auto& row : obs::registry().rows("nn.gemm_accum."))
        if (row.metric == "count" &&
            row.name.find(".calls") != std::string::npos)
            calls += uint64_t(row.value);
    EXPECT_GT(calls, 0u);
}
