#include "model/numeric_head.h"

#include <algorithm>
#include <cmath>

#include "nn/ops.h"
#include "util/common.h"

namespace llmulator {
namespace model {

std::vector<int>
toDigits(long value, int base, int width)
{
    LLM_CHECK(base >= 2 && width >= 1, "bad digit config");
    long max_value = 1;
    for (int i = 0; i < width; ++i) {
        if (max_value > (1L << 60) / base)
            break;
        max_value *= base;
    }
    long v = std::clamp<long>(value, 0, max_value - 1);
    std::vector<int> digits(width, 0);
    for (int j = width - 1; j >= 0; --j) {
        digits[j] = static_cast<int>(v % base);
        v /= base;
    }
    return digits;
}

long
fromDigits(const std::vector<int>& digits, int base)
{
    long v = 0;
    for (int d : digits)
        v = v * base + d;
    return v;
}

double
NumericPrediction::minConfidence() const
{
    double m = 1.0;
    for (double p : digitProbs)
        m = std::min(m, p);
    return digitProbs.empty() ? 0.0 : m;
}

DigitHead::DigitHead(int encoder_dim, const NumericHeadConfig& cfg_,
                     util::Rng& rng)
    : cfg(cfg_), encoderDim_(encoder_dim)
{
    prevEmb_ = std::make_unique<nn::Embedding>(cfg.base + 1, cfg.digitEmbed,
                                               rng);
    posEmb_ = std::make_unique<nn::Embedding>(cfg.width, cfg.digitEmbed, rng);
    head_ = std::make_unique<nn::Mlp>(
        std::vector<int>{encoder_dim + 2 * cfg.digitEmbed, cfg.hidden,
                         cfg.base},
        rng);
}

nn::TensorPtr
DigitHead::logitsForPrevIds(const nn::TensorPtr& pooled,
                            const std::vector<int>& prev_ids) const
{
    int w = static_cast<int>(prev_ids.size());
    // Broadcast pooled [1,d] to [w,d] via ones[w,1] x pooled (keeps grad).
    auto ones = nn::Tensor::fromData(w, 1, std::vector<float>(w, 1.f));
    nn::TensorPtr rep = nn::matmul(ones, pooled);
    std::vector<int> pos_ids(w);
    for (int j = 0; j < w; ++j)
        pos_ids[j] = j % cfg.width;
    nn::TensorPtr pos = posEmb_->forward(pos_ids);
    nn::TensorPtr prev = prevEmb_->forward(prev_ids);
    return head_->forward(
        nn::concatCols(nn::concatCols(rep, pos), prev));
}

nn::TensorPtr
DigitHead::teacherForcedLogits(const nn::TensorPtr& pooled,
                               const std::vector<int>& digits) const
{
    LLM_CHECK(static_cast<int>(digits.size()) == cfg.width,
              "digit count " << digits.size() << " != width " << cfg.width);
    std::vector<int> prev_ids(cfg.width);
    prev_ids[0] = cfg.base; // start token
    for (int j = 1; j < cfg.width; ++j)
        prev_ids[j] = digits[j - 1];
    return logitsForPrevIds(pooled, prev_ids);
}

nn::TensorPtr
DigitHead::loss(const nn::TensorPtr& pooled, long target_value) const
{
    std::vector<int> digits = toDigits(target_value, cfg.base, cfg.width);
    nn::TensorPtr logits = teacherForcedLogits(pooled, digits);
    // MSB-weighted cross-entropy: a wrong high-order digit costs base^k
    // more relative error than a wrong low-order digit, so the loss
    // emphasizes magnitude-determining positions (geometric decay).
    std::vector<float> weights(cfg.width);
    float w = 1.f;
    for (int j = cfg.width - 1; j >= 0; --j) {
        weights[j] = w;
        w = std::min(w * 1.8f, 24.f);
    }
    return nn::crossEntropyLogits(logits, digits, weights);
}

NumericPrediction
DigitHead::decode(const nn::TensorPtr& pooled, int beam_width) const
{
    LLM_CHECK(pooled->rows == 1 && pooled->cols == encoderDim_,
              "decode expects one pooled row of width "
                  << encoderDim_ << " (got " << pooled->rows << "x"
                  << pooled->cols << ")");
    LLM_CHECK(beam_width >= 1, "decode beam width " << beam_width);

    struct Beam
    {
        std::vector<int> digits;
        std::vector<double> probs;
        double logp = 0;
    };
    std::vector<Beam> beams{Beam{}};

    for (int j = 0; j < cfg.width; ++j) {
        // Every live beam shares one MLP forward: one input row per beam.
        const int w = static_cast<int>(beams.size());
        std::vector<int> prev_ids;
        for (const auto& b : beams)
            prev_ids.push_back(b.digits.empty() ? cfg.base : b.digits.back());
        auto ones = nn::Tensor::fromData(w, 1, std::vector<float>(w, 1.f));
        nn::TensorPtr rep = nn::matmul(ones, pooled);
        nn::TensorPtr pos = posEmb_->forward(std::vector<int>(w, j));
        nn::TensorPtr prev = prevEmb_->forward(prev_ids);
        nn::TensorPtr logits = head_->forward(
            nn::concatCols(nn::concatCols(rep, pos), prev));

        std::vector<Beam> next;
        for (int bi = 0; bi < w; ++bi) {
            // Softmax over the row (plain math, no autograd needed).
            float mx = logits->at(bi, 0);
            for (int d = 1; d < cfg.base; ++d)
                mx = std::max(mx, logits->at(bi, d));
            double sum = 0;
            std::vector<double> probs(cfg.base);
            for (int d = 0; d < cfg.base; ++d) {
                probs[d] = std::exp(double(logits->at(bi, d)) - mx);
                sum += probs[d];
            }
            for (int d = 0; d < cfg.base; ++d) {
                probs[d] /= sum;
                Beam nb = beams[bi];
                nb.digits.push_back(d);
                nb.probs.push_back(probs[d]);
                nb.logp += std::log(std::max(probs[d], 1e-12));
                next.push_back(std::move(nb));
            }
        }
        std::sort(next.begin(), next.end(),
                  [](const Beam& a, const Beam& b) { return a.logp > b.logp; });
        if (static_cast<int>(next.size()) > beam_width)
            next.resize(beam_width);
        beams = std::move(next);
    }

    const Beam& best = beams.front();
    NumericPrediction p;
    p.digits = best.digits;
    p.digitProbs = best.probs;
    p.logProb = best.logp;
    p.value = fromDigits(best.digits, cfg.base);
    return p;
}

std::vector<nn::TensorPtr>
DigitHead::parameters() const
{
    std::vector<nn::TensorPtr> out = prevEmb_->parameters();
    for (const auto& p : posEmb_->parameters())
        out.push_back(p);
    for (const auto& p : head_->parameters())
        out.push_back(p);
    return out;
}

} // namespace model
} // namespace llmulator
