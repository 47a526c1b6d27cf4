/**
 * @file
 * Forward-path tests. The serve batch (InferenceSession::
 * forwardPooledBatch + DigitHead::decodeBatch) must match B sequential
 * session forwards; the tape encoder's single-sequence forward must
 * truncate to maxSeq exactly and stay bit-identical with telemetry on.
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
            mask->at(i, j) = -1e9f;
            mask->at(j, i) = -1e9f;
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

TEST(EncoderForward, TruncatesToMaxSeq)
{
    nn::EncoderConfig cfg = tinyEncoderConfig();
    util::Rng rng(11);
    nn::TransformerEncoder enc(cfg, rng);

    // Ids past maxSeq are dropped before embedding: the forward of a long
    // sequence is bit for bit the forward of its first maxSeq ids, with
    // or without a control mask.
    std::vector<int> longSeq = makeSeq(cfg.maxSeq + 9, 4, cfg.vocab);
    std::vector<int> prefix(longSeq.begin(), longSeq.begin() + cfg.maxSeq);
    nn::TensorPtr mask = makeControlMask(cfg.maxSeq);
    for (const nn::TensorPtr& m : {nn::TensorPtr(), mask}) {
        nn::TensorPtr got = enc.forward(longSeq, m);
        nn::TensorPtr ref = enc.forward(prefix, m);
        ASSERT_EQ(got->rows, cfg.maxSeq);
        EXPECT_EQ(got->value, ref->value);
    }

    // The mask is checked against the truncated length.
    EXPECT_DEATH(enc.forward(longSeq, makeControlMask(cfg.maxSeq + 9)),
                 "mask shape");
    EXPECT_DEATH(enc.forward({}), "empty sequence");
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
// encoder forwards produce bit-identical outputs to a telemetry-off
// run, while the GEMM call/FLOP counters actually count.
TEST(EncoderBatch, TelemetryEnabledKeepsForwardBitIdentical)
{
    nn::EncoderConfig cfg = tinyEncoderConfig();
    std::vector<std::vector<int>> seqs = {makeSeq(7, 1, cfg.vocab),
                                          makeSeq(12, 5, cfg.vocab)};
    auto pooledAll = [&](const nn::TransformerEncoder& enc) {
        std::vector<float> out;
        for (const auto& ids : seqs) {
            nn::TensorPtr p =
                nn::TransformerEncoder::pooled(enc.forward(ids));
            out.insert(out.end(), p->value.begin(), p->value.end());
        }
        return out;
    };

    obs::setMetricsEnabled(false);
    obs::setTraceEnabled(false);
    util::Rng rngOff(11);
    nn::TransformerEncoder encOff(cfg, rngOff);
    std::vector<float> off = pooledAll(encOff);

    obs::registry().reset();
    obs::setMetricsEnabled(true);
    obs::setTraceEnabled(true);
    util::Rng rngOn(11);
    nn::TransformerEncoder encOn(cfg, rngOn);
    std::vector<float> on = pooledAll(encOn);
    obs::setMetricsEnabled(false);
    obs::setTraceEnabled(false);
    obs::clearSpans();

    EXPECT_EQ(on, off); // every pooled value, bit for bit

    // The instrumented run counted its GEMMs (per kernel per backend,
    // nn.gemm_accum.<backend>.{calls,flops}).
    uint64_t calls = 0;
    for (const auto& row : obs::registry().rows("nn.gemm_accum."))
        if (row.metric == "count" &&
            row.name.find(".calls") != std::string::npos)
            calls += uint64_t(row.value);
    EXPECT_GT(calls, 0u);
}
