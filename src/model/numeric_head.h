#ifndef LLMULATOR_MODEL_NUMERIC_HEAD_H
#define LLMULATOR_MODEL_NUMERIC_HEAD_H

/**
 * @file
 * Output numerical modeling (paper Section 4.2).
 *
 * A performance value is decomposed into a fixed-width digit string in a
 * configurable base D, predicted MSB-first as independent D-way
 * classifications conditioned on (encoder summary, digit position, previous
 * digit). Inference uses beam search over digit sequences; each emitted
 * digit carries its softmax probability as an explicit confidence
 * indicator, which is the interpretability hook evaluated in Table 6.
 *
 * The base trade-off the paper analyzes (Section 4.2: decimal vs binary)
 * maps to NumericHeadConfig::base — Table-10-style sweeps can vary it.
 */

#include <cstdint>
#include <vector>

#include "nn/layers.h"

namespace llmulator {
namespace model {

/** Digit-head hyper-parameters. */
struct NumericHeadConfig
{
    int base = 10;      //!< D: per-digit class count
    int width = 8;      //!< L: number of digit positions (MSB first)
    int digitEmbed = 16;//!< embedding width for position/previous digit
    int hidden = 64;    //!< classifier MLP hidden width
};

/** Encode value into MSB-first digits (clamped to base^width - 1). */
std::vector<int> toDigits(long value, int base, int width);

/** Decode MSB-first digits back to a value. */
long fromDigits(const std::vector<int>& digits, int base);

/** Result of a numeric decode. */
struct NumericPrediction
{
    long value = 0;
    std::vector<int> digits;          //!< MSB-first chosen digits
    std::vector<double> digitProbs;   //!< per-digit chosen-class probability
    double logProb = 0;               //!< beam joint log-probability

    /**
     * Paper Section 7.1: "we use the final logit as the confidence value
     * for the predicted result".
     */
    double confidence() const
    {
        return digitProbs.empty() ? 0.0 : digitProbs.back();
    }

    /** Most conservative digit confidence. */
    double minConfidence() const;
};

/**
 * Digit-wise categorical output head. The per-step conditioning is
 * first-order (position + previous digit), which keeps beam search exact
 * per transition while retaining the MSB->LSB error-control behaviour the
 * paper describes (a wrong high-order digit can be rectified by the beam).
 */
class DigitHead : public nn::Module
{
  public:
    DigitHead(int encoder_dim, const NumericHeadConfig& cfg, util::Rng& rng);

    /**
     * Teacher-forced logits for a known digit string: returns [width, base]
     * where row j is the distribution for digit j given the true digit
     * j-1. Used for both the cross-entropy SFT loss and the DPO policy
     * log-probabilities.
     */
    nn::TensorPtr teacherForcedLogits(const nn::TensorPtr& pooled,
                                      const std::vector<int>& digits) const;

    /** Cross-entropy loss (Equation 1 summed over digit positions). */
    nn::TensorPtr loss(const nn::TensorPtr& pooled, long target_value) const;

    /**
     * Beam-search decode of one pooled row [1, encoder_dim] with
     * per-digit confidences; at every digit position the live beams
     * share one MLP forward. beam_width must be >= 1.
     */
    NumericPrediction decode(const nn::TensorPtr& pooled,
                             int beam_width = 3) const;

    std::vector<nn::TensorPtr> parameters() const override;

    NumericHeadConfig cfg;

  private:
    int encoderDim_;
    std::unique_ptr<nn::Embedding> prevEmb_; //!< base+1 entries (start tok)
    std::unique_ptr<nn::Embedding> posEmb_;  //!< width entries
    std::unique_ptr<nn::Mlp> head_;

    /** Stack width rows of [pooled ; pos_j ; prev_j] and run the MLP. */
    nn::TensorPtr logitsForPrevIds(const nn::TensorPtr& pooled,
                                   const std::vector<int>& prev_ids) const;
};

} // namespace model
} // namespace llmulator

#endif // LLMULATOR_MODEL_NUMERIC_HEAD_H
