#ifndef LLMULATOR_MODEL_FAST_ENCODER_H
#define LLMULATOR_MODEL_FAST_ENCODER_H

/**
 * @file
 * Dynamic prediction acceleration (paper Section 5.3).
 *
 * InferenceSession is an autograd-free forward path over the trained
 * encoder with a progressive operator cache: when consecutive predictions
 * share the static program prefix {G, Op, Params} and differ only in the
 * runtime data segment, the session reuses the cached per-layer K/V rows
 * and final block outputs of *static-reusable* rows (Class I operators
 * and the hardware-parameter segment, which the separation mask of
 * Section 5.2 decouples from data) and recomputes only the dynamic rows
 * (graph function, Class II operators, data).
 *
 * Every call runs one transformer forward over one encoding. Its
 * row-wise stages (LN, Q/K/V, output projection, FFN) run in fixed-size
 * row tiles through the active nn::Backend kernels (nn::gemmAccum,
 * layerNormRows, geluForward). Attention runs per head in query tiles:
 * two nn::gemmAccum products per tile (transposed scores K_h Q_h^T and
 * context V_h^T P^T) around a column-wise masked softmax. Each score and
 * context element keeps the plain ascending-key sum of a per-row loop,
 * so served values are bit-identical under every backend.
 *
 * As in the paper (Figure 6 and its corner-region discussion), reuse of a
 * cached row's block output ignores multi-hop influence of the changed
 * data through intermediate rows — that is precisely the approximation
 * LLMulator makes to win the Table 5 / Table 9 latency reductions; the
 * accompanying accuracy cost is measured, not assumed, by the benches.
 */

#include <cstdint>
#include <vector>

#include "model/cost_model.h"

namespace llmulator {
namespace model {

/** Pre-encoded training views of one sample (see encodeForTraining). */
struct TrainingEncoding
{
    EncodedProgram stat;   //!< static {G, Op, Params} view
    EncodedProgram dyn;    //!< dynamic (+ runtime data) view, if hasDyn
    bool hasDyn = false;
};

/**
 * Encode one sample for training, producing the static encoding and —
 * when runtime data is present — the dynamic encoding from a single
 * segment render + tokenization pass (the two views share every segment
 * except the data tail, so tokenizing them separately does ~2x the
 * work). The result is bitwise identical to two CostModel::encode()
 * calls; the minibatch trainer pre-encodes the whole corpus through
 * this once, then reuses the encodings across every epoch and worker.
 */
TrainingEncoding encodeForTraining(const CostModel& m,
                                   const dfir::DataflowGraph& g,
                                   const dfir::RuntimeData* data,
                                   const std::string& reasoning = "");

/** Latency/accuracy statistics of a session (for the runtime tables). */
struct SessionStats
{
    long fullForwards = 0;   //!< forwards computed without cache reuse
    long cachedForwards = 0; //!< forwards that reused the static prefix
    long rowsComputed = 0;   //!< transformer rows actually evaluated
    long rowsReused = 0;     //!< transformer rows served from cache
};

/**
 * Cached, autograd-free inference over a trained CostModel. pooled(),
 * predict() and forwardPooledBatch() are thin callers of one private
 * single-sequence forward. That forward's attention is two gemmAccum
 * products per (head, query tile), not a per-row loop.
 */
class InferenceSession
{
  public:
    explicit InferenceSession(const CostModel& model);

    /**
     * Predict one metric. With use_cache=true, a hit on the static-prefix
     * key activates partial recomputation; any miss falls back to a full
     * forward and re-primes the cache. With use_cache=false the call is
     * stateless: it neither consults nor primes the cache.
     */
    NumericPrediction predict(const EncodedProgram& ep, Metric m,
                              bool use_cache, int beam_width = 3);

    /**
     * Pooled encoder output as a [1, dim] tensor, ready for
     * DigitHead::decode. This is the forward half of predict(),
     * exposed so callers querying several metrics for one encoding —
     * the prediction server — can share a single forward across the
     * per-metric decodes. use_cache as in predict().
     */
    nn::TensorPtr pooled(const EncodedProgram& ep, bool use_cache);

    /**
     * Pooled rows [B, dim] of B encodings: row i is
     * pooled(*eps[i], use_cache=false), so the prefix cache is neither
     * consulted nor primed. A convenience for benchmarks that time
     * several forwards at once.
     */
    nn::TensorPtr
    forwardPooledBatch(const std::vector<const EncodedProgram*>& eps);

    /** Drop the cached prefix (e.g. after a weight update). */
    void invalidate() { cacheValid_ = false; }

    const SessionStats& stats() const { return stats_; }

  private:
    const CostModel& model_;
    SessionStats stats_;

    // ---- cache of the last static prefix (set by a priming forward) ----
    bool cacheValid_ = false;
    uint64_t cacheKey_ = 0;
    int cacheLen_ = 0; //!< rows covered by the cache (static prefix)
    struct LayerCache
    {
        std::vector<float> k, v; //!< projected keys/values [len, dim]
    };
    std::vector<LayerCache> cacheLayers_;
    std::vector<float> cacheOut_;        //!< last block outputs [len, dim]
    std::vector<uint8_t> cacheReusable_; //!< per-row reuse eligibility

    /** Rows + reusability + static length + key for a program. */
    struct Layout
    {
        int n = 0;
        int staticLen = 0;
        uint64_t staticKey = 0;
        std::vector<uint8_t> reusable; //!< ClassI-op / Params rows
        std::vector<uint8_t> dataRow;  //!< rows inside the data segment
        std::vector<uint8_t> classIRow;//!< rows inside Class I operators
    };
    Layout computeLayout(const EncodedProgram& ep) const;

    /**
     * The transformer forward over one encoding with layout lay,
     * returning its pooled row [dim]. With 'partial', rows flagged
     * reusable are served from the cache; with 'prime', this forward's
     * K/V and outputs become the cache.
     */
    std::vector<float> forward(const EncodedProgram& ep, const Layout& lay,
                               bool partial, bool prime);
};

} // namespace model
} // namespace llmulator

#endif // LLMULATOR_MODEL_FAST_ENCODER_H
