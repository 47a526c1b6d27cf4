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

/** Attention score of a masked key, and the running max's start. */
constexpr float kMasked = -1e30f;

/** Attention weights below this are dropped from the context sum. */
constexpr float kMinWeight = 1e-9f;

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
    // tile scratch: LN/projection outputs, the discarded LN xhat/invstd,
    // and FFN hidden rows.
    std::vector<float> q(size_t(total) * d), k(size_t(total) * d),
        v(size_t(total) * d);
    std::vector<float> a(size_t(kTileRows) * d), xhat(size_t(kTileRows) * d),
        invstd(kTileRows), mid(size_t(kTileRows) * ffn);
    // Attention scratch: one sequence's head panels K_h [n, hd] and
    // V_h^T [hd, n], and one query tile's Q_h^T [hd, m], S^T [n, m]
    // (scores, then weights) and context^T [hd, m].
    std::vector<float> kh(size_t(maxN) * hd), vt(size_t(hd) * maxN),
        qt(size_t(hd) * kTileRows), st(size_t(maxN) * kTileRows),
        ct(size_t(hd) * kTileRows);
    auto layerNorm = [&](const nn::LayerNorm& ln, const float* x, float* y,
                         int m) {
        be.layerNormRows(x, ln.gamma->value.data(), ln.beta->value.data(),
                         kLnEps, y, xhat.data(), invstd.data(), m, d);
    };
    const float inv_sqrt = 1.f / std::sqrt(static_cast<float>(hd));

    // One head's attention for query rows [r0, r0 + m) of sequence b,
    // whose panels are in kh/vt. Both products are transposed so their
    // output rows are m wide: S^T = K_h Q_h^T, then a softmax down each
    // column, then ctx^T = V_h^T P^T. gemmAccum starts every element at
    // +0 and adds the ascending-k terms, skipping zero multipliers, so
    // each score and context element is the plain `s = 0; s += q * k`
    // and `out = 0; out += w * v` chain (a skipped or zeroed term adds
    // ±0 to an accumulator that is never -0). Each row's context then
    // overwrites its own q slice, which no later head reads.
    auto attendTile = [&](int b, int hh, int r0, int m) {
        const Layout& lay = lays[b];
        const int n = lay.n;
        const int i0 = r0 - off[b];
        for (int t = 0; t < m; ++t) {
            const float* qrow = q.data() + size_t(r0 + t) * d + hh * hd;
            for (int x = 0; x < hd; ++x)
                qt[size_t(x) * m + t] = qrow[x];
        }
        std::fill_n(st.begin(), size_t(n) * m, 0.f);
        nn::gemmAccum(kh.data(), qt.data(), st.data(), n, hd, m);

        // Scale, separation mask (mirrors buildSeparationMask: a Class I
        // row and a data row never attend to each other) and column max.
        float mx[kTileRows], sum[kTileRows];
        uint8_t qClassI[kTileRows], qData[kTileRows];
        for (int t = 0; t < m; ++t) {
            mx[t] = kMasked;
            sum[t] = 0.f;
            qClassI[t] = lay.classIRow[i0 + t];
            qData[t] = lay.dataRow[i0 + t];
        }
        for (int j = 0; j < n; ++j) {
            float* srow = st.data() + size_t(j) * m;
            const uint8_t kData = lay.dataRow[j], kClassI = lay.classIRow[j];
            for (int t = 0; t < m; ++t) {
                if ((qClassI[t] && kData) || (qData[t] && kClassI)) {
                    srow[t] = kMasked;
                    continue;
                }
                srow[t] *= inv_sqrt;
                mx[t] = std::max(mx[t], srow[t]);
            }
        }
        // exp(kMasked - mx) is exactly +0 once mx is above kMasked, so
        // those terms skip the exp; an all-masked column (mx == kMasked)
        // keeps exp(0) on every key.
        for (int j = 0; j < n; ++j) {
            float* srow = st.data() + size_t(j) * m;
            for (int t = 0; t < m; ++t) {
                float& p = srow[t];
                p = (p == kMasked && mx[t] > kMasked) ? 0.f
                                                      : std::exp(p - mx[t]);
                sum[t] += p;
            }
        }
        for (int t = 0; t < m; ++t)
            sum[t] = 1.f / sum[t];
        for (int j = 0; j < n; ++j) {
            float* srow = st.data() + size_t(j) * m;
            for (int t = 0; t < m; ++t) {
                const float w = srow[t] * sum[t];
                srow[t] = w < kMinWeight ? 0.f : w;
            }
        }

        std::fill_n(ct.begin(), size_t(hd) * m, 0.f);
        nn::gemmAccum(vt.data(), st.data(), ct.data(), hd, n, m);
        for (int t = 0; t < m; ++t) {
            float* out = q.data() + size_t(r0 + t) * d + hh * hd;
            for (int x = 0; x < hd; ++x)
                out[x] = ct[size_t(x) * m + t];
        }
    };

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

        // Attention over every sequence's keys, in query tiles that stay
        // inside one sequence and one computed run.
        for (int b = 0; b < B; ++b) {
            const int n = lays[b].n;
            for (int hh = 0; hh < heads; ++hh) {
                for (int j = 0; j < n; ++j) {
                    const size_t src = size_t(off[b] + j) * d + hh * hd;
                    std::copy_n(k.begin() + src, hd,
                                kh.begin() + size_t(j) * hd);
                    for (int x = 0; x < hd; ++x)
                        vt[size_t(x) * n + j] = v[src + x];
                }
                for (const auto& run : runs)
                    forTiles(std::max(run.first, off[b]),
                             std::min(run.second, off[b + 1]),
                             [&](int r0, int m) { attendTile(b, hh, r0, m); });
            }
        }

        // Output projection, LN2 and FFN per tile, each with its residual.
        for (const auto& run : runs) {
            forTiles(run.first, run.second, [&](int r0, int m) {
                float* hrows = h.data() + size_t(r0) * d;
                const size_t md = size_t(m) * d;
                linearRows(q.data() + size_t(r0) * d, *blk.attn->wo,
                           a.data(), m);
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
