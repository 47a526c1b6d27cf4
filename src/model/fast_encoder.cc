#include "model/fast_encoder.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "nn/backend.h"
#include "nn/ops.h"
#include "util/common.h"
#include "util/string_util.h"

namespace llmulator {
namespace model {

TrainingEncoding
encodeForTraining(const CostModel& m, const dfir::DataflowGraph& g,
                  const dfir::RuntimeData* data,
                  const std::string& reasoning)
{
    TrainingEncoding enc;
    if (data == nullptr) {
        enc.stat = m.encode(g, nullptr, reasoning);
        return enc;
    }
    auto segments = renderSegments(g, data, reasoning);
    EncodedPair pair =
        encodeSegmentsPair(m.tok(), segments, m.config().enc.maxSeq);
    enc.stat = std::move(pair.stat);
    enc.dyn = std::move(pair.dyn);
    enc.hasDyn = true;
    return enc;
}

namespace {

/**
 * Rows per tile of the row-wise stages (LN, projections, FFN). Speed
 * only: every row runs the same float ops at any tile size.
 */
constexpr int kTileRows = 16;

/** Epsilon of the encoder's LayerNorm modules (nn::layerNormRows). */
constexpr float kLnEps = 1e-5f;

/**
 * y[m, out] = x[m, in] * W + b as one row-tile GEMM. The bias is written
 * first, so every element sums bias, then the ascending-k products
 * (skipping zero x). Linear::forward adds the bias last instead; served
 * values keep the bias-first order.
 */
void
linearRows(const float* x, const nn::Linear& lin, float* y, int m)
{
    const nn::Tensor& w = *lin.weight;
    const float* bias = lin.bias->value.data();
    for (int r = 0; r < m; ++r)
        std::copy(bias, bias + w.cols, y + size_t(r) * w.cols);
    nn::gemmAccum(x, w.value.data(), y, m, w.rows, w.cols);
}

/** Calls fn(first row, row count) for each tile of rows [begin, end). */
template <typename Fn>
void
forTiles(int begin, int end, const Fn& fn)
{
    for (int r = begin; r < end; r += kTileRows)
        fn(r, std::min(kTileRows, end - r));
}

} // namespace

InferenceSession::InferenceSession(const CostModel& model) : model_(model) {}

InferenceSession::Layout
InferenceSession::computeLayout(const EncodedProgram& ep) const
{
    Layout lay;
    lay.n = std::min(ep.length(), model_.config().enc.maxSeq);
    lay.reusable.assign(lay.n, 0);
    lay.dataRow.assign(lay.n, 0);
    lay.classIRow.assign(lay.n, 0);
    lay.staticLen = lay.n;
    for (const auto& r : ep.ranges) {
        if (r.kind == SegmentKind::Data) {
            lay.staticLen = std::min(lay.staticLen, r.begin);
            for (int i = r.begin; i < r.end && i < lay.n; ++i)
                lay.dataRow[i] = 1;
        }
    }
    for (const auto& r : ep.ranges) {
        bool reusable = (r.kind == SegmentKind::Op && r.classI) ||
                        r.kind == SegmentKind::Params;
        for (int i = r.begin; i < r.end && i < lay.n; ++i) {
            if (i < lay.staticLen && reusable)
                lay.reusable[i] = 1;
            if (r.kind == SegmentKind::Op && r.classI)
                lay.classIRow[i] = 1;
        }
    }
    uint64_t key = 0x12345;
    for (int i = 0; i < lay.staticLen; ++i)
        key = util::hashCombine(key, static_cast<uint64_t>(ep.tokens[i]));
    lay.staticKey = key;
    return lay;
}

bool
InferenceSession::blocked(const Layout& lay, int i, int j)
{
    return (lay.classIRow[i] && lay.dataRow[j]) ||
           (lay.dataRow[i] && lay.classIRow[j]);
}

std::vector<float>
InferenceSession::forward(const std::vector<const EncodedProgram*>& eps,
                          const std::vector<Layout>& lays, bool partial,
                          bool prime)
{
    const nn::TransformerEncoder& enc = model_.encoder();
    const nn::Backend& be = nn::backend();
    const int B = static_cast<int>(eps.size());
    const int d = enc.cfg.dim;
    const int heads = enc.cfg.heads;
    const int hd = d / heads;
    const int ffn = enc.cfg.ffn;
    const int layers = static_cast<int>(enc.blocks.size());
    LLM_CHECK(B == 1 || !(partial || prime),
              "the prefix cache holds a single sequence");

    // Ragged stacking: sequence b owns rows [off[b], off[b+1]) of every
    // stacked buffer. No padding; attention never crosses a boundary.
    std::vector<int> off(B + 1, 0);
    int maxN = 0;
    for (int b = 0; b < B; ++b) {
        off[b + 1] = off[b] + lays[b].n;
        maxN = std::max(maxN, lays[b].n);
    }
    const int total = off[B];
    auto seqOf = [&off](int r) {
        return static_cast<int>(
                   std::upper_bound(off.begin(), off.end(), r) -
                   off.begin()) - 1;
    };

    // A row is computed unless partial mode serves it from the cache;
    // the stages run over maximal runs of computed rows.
    std::vector<uint8_t> reuse(total, 0);
    if (partial) {
        for (int r = 0; r < total && r < cacheLen_; ++r)
            reuse[r] = lays[0].reusable[r] && cacheReusable_[r];
    }
    auto pullReused = [&](const std::vector<float>& cached,
                          std::vector<float>& dst) {
        for (int r = 0; r < total; ++r)
            if (reuse[r])
                std::copy_n(cached.begin() + size_t(r) * d, d,
                            dst.begin() + size_t(r) * d);
    };
    std::vector<std::pair<int, int>> runs;
    for (int r = 0; r < total; ++r) {
        if (reuse[r])
            continue;
        if (!runs.empty() && runs.back().second == r)
            ++runs.back().second;
        else
            runs.emplace_back(r, r + 1);
    }

    // ---- Embedding + positions ----
    std::vector<float> h(size_t(total) * d);
    const float* table = enc.tok->table->value.data();
    const float* pos = enc.pos->value.data();
    for (int b = 0; b < B; ++b) {
        for (int i = 0; i < lays[b].n; ++i) {
            const int r = off[b] + i;
            if (reuse[r]) {
                ++stats_.rowsReused;
                continue;
            }
            const float* te = table + size_t(eps[b]->tokens[i]) * d;
            const float* pe = pos + size_t(i % enc.cfg.maxSeq) * d;
            float* row = h.data() + size_t(r) * d;
            for (int j = 0; j < d; ++j)
                row[j] = te[j] + pe[j];
            ++stats_.rowsComputed;
        }
    }

    // Full-size q/k/v (attention reads every row of a sequence) plus
    // tile scratch: LN/projection outputs, attention context, the
    // discarded LN xhat/invstd, and FFN hidden rows.
    std::vector<float> q(size_t(total) * d), k(size_t(total) * d),
        v(size_t(total) * d);
    std::vector<float> a(size_t(kTileRows) * d), ctx(size_t(kTileRows) * d),
        xhat(size_t(kTileRows) * d), invstd(kTileRows),
        mid(size_t(kTileRows) * ffn), scores(maxN);
    auto layerNorm = [&](const nn::LayerNorm& ln, const float* x, float* y,
                         int m) {
        be.layerNormRows(x, ln.gamma->value.data(), ln.beta->value.data(),
                         kLnEps, y, xhat.data(), invstd.data(), m, d);
    };
    const float inv_sqrt = 1.f / std::sqrt(static_cast<float>(hd));
    if (prime)
        cacheLayers_.resize(layers);

    for (int l = 0; l < layers; ++l) {
        const nn::TransformerBlock& blk = *enc.blocks[l];

        // LN1 + Q/K/V projections of the computed rows; reused rows pull
        // their K/V from the cache, and a priming forward stores its own.
        for (const auto& run : runs) {
            forTiles(run.first, run.second, [&](int r0, int m) {
                const size_t o = size_t(r0) * d;
                layerNorm(*blk.ln1, h.data() + o, a.data(), m);
                linearRows(a.data(), *blk.attn->wq, q.data() + o, m);
                linearRows(a.data(), *blk.attn->wk, k.data() + o, m);
                linearRows(a.data(), *blk.attn->wv, v.data() + o, m);
            });
        }
        if (partial) {
            pullReused(cacheLayers_[l].k, k);
            pullReused(cacheLayers_[l].v, v);
        }
        if (prime)
            cacheLayers_[l] = {k, v};

        // Attention (per row, within its sequence), then output
        // projection, LN2 and FFN per tile, each with its residual.
        for (const auto& run : runs) {
            forTiles(run.first, run.second, [&](int r0, int m) {
                for (int t = 0; t < m; ++t) {
                    const int r = r0 + t;
                    const int b = seqOf(r);
                    const Layout& lay = lays[b];
                    const int i = r - off[b];
                    const float* kb = k.data() + size_t(off[b]) * d;
                    const float* vb = v.data() + size_t(off[b]) * d;
                    for (int hh = 0; hh < heads; ++hh) {
                        const float* qh = q.data() + size_t(r) * d + hh * hd;
                        float mx = -1e30f;
                        for (int jj = 0; jj < lay.n; ++jj) {
                            if (blocked(lay, i, jj)) {
                                scores[jj] = -1e30f;
                                continue;
                            }
                            const float* kh = kb + size_t(jj) * d + hh * hd;
                            float s = 0.f;
                            for (int x = 0; x < hd; ++x)
                                s += qh[x] * kh[x];
                            s *= inv_sqrt;
                            scores[jj] = s;
                            mx = std::max(mx, s);
                        }
                        float sum = 0.f;
                        for (int jj = 0; jj < lay.n; ++jj) {
                            scores[jj] = std::exp(scores[jj] - mx);
                            sum += scores[jj];
                        }
                        float invs = 1.f / sum;
                        float* out = ctx.data() + size_t(t) * d + hh * hd;
                        for (int x = 0; x < hd; ++x)
                            out[x] = 0.f;
                        for (int jj = 0; jj < lay.n; ++jj) {
                            float w = scores[jj] * invs;
                            if (w < 1e-9f)
                                continue;
                            const float* vh = vb + size_t(jj) * d + hh * hd;
                            for (int x = 0; x < hd; ++x)
                                out[x] += w * vh[x];
                        }
                    }
                }
                float* hrows = h.data() + size_t(r0) * d;
                const size_t md = size_t(m) * d;
                linearRows(ctx.data(), *blk.attn->wo, a.data(), m);
                for (size_t x = 0; x < md; ++x)
                    hrows[x] += a[x];
                layerNorm(*blk.ln2, hrows, a.data(), m);
                linearRows(a.data(), *blk.ff1, mid.data(), m);
                be.geluForward(mid.data(), mid.data(), size_t(m) * ffn);
                linearRows(mid.data(), *blk.ff2, a.data(), m);
                for (size_t x = 0; x < md; ++x)
                    hrows[x] += a[x];
            });
        }
    }

    // Reused rows take their cached last-block output. A cached row's
    // K/V and output ignore the changed data's multi-hop influence — the
    // Section 5.3 approximation.
    if (partial) {
        pullReused(cacheOut_, h);
        ++stats_.cachedForwards;
    } else {
        stats_.fullForwards += B;
    }
    if (prime) {
        cacheOut_ = h;
        cacheValid_ = true;
        cacheKey_ = lays[0].staticKey;
        cacheLen_ = lays[0].n;
        cacheReusable_ = lays[0].reusable;
    }

    // Final LN + per-sequence mean pool.
    std::vector<float> pooled(size_t(B) * d, 0.f);
    forTiles(0, total, [&](int r0, int m) {
        layerNorm(*enc.lnFinal, h.data() + size_t(r0) * d, a.data(), m);
        for (int t = 0; t < m; ++t) {
            float* prow = pooled.data() + size_t(seqOf(r0 + t)) * d;
            const float* lrow = a.data() + size_t(t) * d;
            for (int j = 0; j < d; ++j)
                prow[j] += lrow[j];
        }
    });
    for (int b = 0; b < B; ++b)
        for (int j = 0; j < d; ++j)
            pooled[size_t(b) * d + j] /= lays[b].n;
    return pooled;
}

nn::TensorPtr
InferenceSession::forwardPooledBatch(
    const std::vector<const EncodedProgram*>& eps)
{
    LLM_CHECK(!eps.empty(), "forwardPooledBatch with no encodings");
    std::vector<Layout> lays;
    lays.reserve(eps.size());
    for (const EncodedProgram* ep : eps)
        lays.push_back(computeLayout(*ep));
    return nn::Tensor::fromData(static_cast<int>(eps.size()),
                                model_.encoder().cfg.dim,
                                forward(eps, lays, false, false));
}

nn::TensorPtr
InferenceSession::pooled(const EncodedProgram& ep, bool use_cache)
{
    std::vector<Layout> lays{computeLayout(ep)};
    const Layout& lay = lays[0];
    bool partial = use_cache && cacheValid_ && cacheKey_ == lay.staticKey &&
                   cacheLen_ >= lay.staticLen;
    return nn::Tensor::fromData(1, model_.encoder().cfg.dim,
                                forward({&ep}, lays, partial, !partial));
}

NumericPrediction
InferenceSession::predict(const EncodedProgram& ep, Metric m, bool use_cache,
                          int beam_width)
{
    return model_.head(m).decode(pooled(ep, use_cache), beam_width);
}

} // namespace model
} // namespace llmulator
