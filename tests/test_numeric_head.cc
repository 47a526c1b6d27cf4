/**
 * @file
 * Output numerical modeling tests (paper Section 4.2): digit codecs in
 * multiple bases, teacher forcing, beam-search decoding, confidence
 * reporting, and trainability of the digit head in isolation.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "model/numeric_head.h"
#include "nn/optim.h"
#include "nn/ops.h"

namespace {

using namespace llmulator;
using namespace llmulator::model;

TEST(Digits, RoundTripDecimal)
{
    for (long v : {0L, 7L, 655L, 99999999L}) {
        auto d = toDigits(v, 10, 8);
        ASSERT_EQ(d.size(), 8u);
        EXPECT_EQ(fromDigits(d, 10), v);
    }
}

TEST(Digits, RoundTripBinaryAndHex)
{
    // Section 4.2's base trade-off: N=128 is [1,2,8] in decimal (3 digits),
    // 7 digits in binary.
    auto bin = toDigits(128, 2, 8);
    EXPECT_EQ(fromDigits(bin, 2), 128);
    auto hex = toDigits(0xABCD, 16, 6);
    EXPECT_EQ(fromDigits(hex, 16), 0xABCD);
}

TEST(Digits, ClampsOutOfRangeValues)
{
    // width 4 decimal holds at most 9999.
    auto d = toDigits(123456, 10, 4);
    EXPECT_EQ(fromDigits(d, 10), 9999);
    auto neg = toDigits(-5, 10, 4);
    EXPECT_EQ(fromDigits(neg, 10), 0);
}

TEST(Digits, MsbFirstOrdering)
{
    auto d = toDigits(655, 10, 4);
    EXPECT_EQ(d, (std::vector<int>{0, 6, 5, 5}));
}

TEST(DigitHead, TeacherForcedLogitsShape)
{
    util::Rng rng(1);
    NumericHeadConfig cfg;
    cfg.width = 6;
    DigitHead head(16, cfg, rng);
    auto pooled = nn::Tensor::zeros(1, 16);
    auto logits = head.teacherForcedLogits(pooled, toDigits(1234, 10, 6));
    EXPECT_EQ(logits->rows, 6);
    EXPECT_EQ(logits->cols, 10);
}

TEST(DigitHead, DecodeReportsPerDigitConfidence)
{
    util::Rng rng(2);
    NumericHeadConfig cfg;
    cfg.width = 5;
    DigitHead head(8, cfg, rng);
    auto pooled = nn::Tensor::zeros(1, 8);
    auto pred = head.decode(pooled, 3);
    ASSERT_EQ(pred.digits.size(), 5u);
    ASSERT_EQ(pred.digitProbs.size(), 5u);
    for (double p : pred.digitProbs) {
        EXPECT_GT(p, 0.0);
        EXPECT_LE(p, 1.0);
    }
    EXPECT_DOUBLE_EQ(pred.confidence(), pred.digitProbs.back());
    EXPECT_LE(pred.minConfidence(), pred.confidence() + 1e-12);
}

TEST(DigitHead, LearnsConditionalMapping)
{
    // Two distinguishable pooled vectors map to two different values; the
    // head must learn both (classification per digit, Equation 1).
    util::Rng rng(3);
    NumericHeadConfig cfg;
    cfg.width = 4;
    cfg.hidden = 48;
    DigitHead head(8, cfg, rng);
    nn::AdamWConfig ocfg;
    ocfg.lr = 5e-3f;
    nn::AdamW opt(head.parameters(), ocfg);

    auto pooled_a = nn::Tensor::fromData(
        1, 8, {1.f, 0.f, 1.f, 0.f, 1.f, 0.f, 1.f, 0.f});
    auto pooled_b = nn::Tensor::fromData(
        1, 8, {0.f, 1.f, 0.f, 1.f, 0.f, 1.f, 0.f, 1.f});

    for (int step = 0; step < 400; ++step) {
        opt.zeroGrad();
        auto loss = nn::add(head.loss(pooled_a, 655),
                            head.loss(pooled_b, 4120));
        loss->backward();
        opt.step();
    }
    EXPECT_EQ(head.decode(pooled_a, 3).value, 655);
    EXPECT_EQ(head.decode(pooled_b, 3).value, 4120);
    // Confident after overfitting.
    EXPECT_GT(head.decode(pooled_a, 3).minConfidence(), 0.8);
}

TEST(DigitHead, BeamSearchNotWorseThanGreedy)
{
    util::Rng rng(4);
    NumericHeadConfig cfg;
    cfg.width = 6;
    DigitHead head(8, cfg, rng);
    auto pooled = nn::Tensor::fromData(
        1, 8, {0.3f, -0.2f, 0.8f, 0.1f, -0.5f, 0.9f, 0.0f, 0.4f});
    auto greedy = head.decode(pooled, 1);
    auto beam = head.decode(pooled, 4);
    EXPECT_GE(beam.logProb, greedy.logProb - 1e-6);
}

TEST(DigitHead, DecodeRejectsNonPositiveBeamWidth)
{
    util::Rng rng(6);
    NumericHeadConfig cfg;
    cfg.width = 4;
    DigitHead head(8, cfg, rng);
    auto pooled = nn::Tensor::zeros(2, 8);
    EXPECT_DEATH(head.decodeBatch(pooled, 0), "beam width 0");
    EXPECT_DEATH(head.decodeBatch(pooled, -1), "beam width -1");
}

TEST(DigitHead, BinaryBaseNeedsMoreSteps)
{
    // Spatial/temporal trade-off: same value, base 2 yields longer digit
    // strings than base 10 (Section 4.2 worked example).
    util::Rng rng(5);
    NumericHeadConfig dec, bin;
    dec.base = 10;
    dec.width = 3;
    bin.base = 2;
    bin.width = 7;
    DigitHead dh(8, dec, rng), bh(8, bin, rng);
    auto pooled = nn::Tensor::zeros(1, 8);
    EXPECT_EQ(dh.decode(pooled, 2).digits.size(), 3u);
    EXPECT_EQ(bh.decode(pooled, 2).digits.size(), 7u);
}

} // namespace
