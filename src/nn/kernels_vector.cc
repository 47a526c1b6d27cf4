/**
 * @file
 * The "vector" backend: register-blocked, cache-tiled, SIMD-friendly
 * kernels that are bit-identical to the scalar reference on finite
 * inputs (backend.h has the contracts).
 *
 * The one rule every kernel obeys: the per-output-element float
 * operation sequence is exactly the scalar kernel's — reductions visit
 * terms in the same (ascending) order and keep the same zero-skip
 * predicate. All speed comes from restructuring ACROSS independent
 * output elements:
 *
 *  - gemmAccum:   a 4x16 register tile of C accumulators held across
 *                 the whole k loop, so each B row panel is loaded once
 *                 per 4 output rows and C is never re-read per k step
 *                 (~2-3x the scalar GFLOP/s on the model shapes).
 *  - gemmAccumBt: B is transposed once into a per-thread scratch
 *                 panel, turning the serial latency-bound dot-product
 *                 chain into a broadcast-multiply over 16 independent
 *                 p-columns — each output's chain still strictly
 *                 j-ascending, local-sum-then-accumulate like the
 *                 reference (~5-10x; the scalar kernel is one
 *                 add-latency-bound chain per element).
 *  - gemmAccumAt: a 4x16 register tile of out accumulated across the i
 *                 loop (i stays outermost, as the element-wise
 *                 accumulation order requires; ~2x).
 *
 * The row-wise primitives (softmax, layer norm) are reduction-shaped:
 * their sums must stay ascending to preserve bit-identity, so only
 * their independent elementwise stages differ from scalar. softmaxRows
 * runs its exps eight keys at a time and its max in eight running
 * lanes; layer norm's scale-shift is a plain dense loop the
 * auto-vectorizer handles.
 *
 * The transcendental kernels call the repo exp (nn/expf.h), one
 * branch-free template the scalar kernels instantiate for a float and
 * these kernels for v8f/v16f lanes, so every lane runs the scalar
 * sequence:
 *
 *  - softmaxRows:     exp over 8-key groups, sum still j-ascending.
 *  - attnSoftmaxCols: the attention softmax down S^T's columns, 16 (then
 *                     8) query columns per lane group; each column's
 *                     max, sum and normalize chains stay j-ascending.
 *  - geluForward:     8 elements per step through geluLanes.
 *
 * On x86-64/glibc the hot kernels are compiled via target_clones into
 * default/AVX2/AVX-512 variants with runtime dispatch, so a generic
 * build still uses wide vectors where the CPU has them. FP contraction
 * is pinned off for this file and kernels_scalar.cc (see kernels.h and
 * src/nn/CMakeLists.txt), so clone selection can never change results.
 */

#include "nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "nn/expf.h"

// ThreadSanitizer segfaults at startup when glibc resolves the ifunc
// dispatchers target_clones emits (the resolver runs before the TSan
// runtime is initialized), so clones are disabled under TSan — the
// kernels then compile once for the baseline ISA, still bit-identical,
// just narrower vectors.
#if defined(__SANITIZE_THREAD__)
#define LLM_NO_KERNEL_CLONES
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LLM_NO_KERNEL_CLONES
#endif
#endif

#if !defined(LLM_NO_KERNEL_CLONES) && defined(__x86_64__) && \
    defined(__gnu_linux__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define LLM_KERNEL_CLONES \
    __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#endif
#ifndef LLM_KERNEL_CLONES
#define LLM_KERNEL_CLONES
#endif

// The v8f helpers pass vectors by value; they are always_inline'd into
// the (possibly AVX-cloned) kernels, so the generic-ABI warning about
// by-value vector parameters is noise.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

namespace llmulator {
namespace nn {
namespace kernels {
namespace vec {

namespace {

constexpr int kMR = 4;  //!< row block (A/C of gemmAccum, dC of Bt/At)
constexpr int kNR = 16; //!< column block held in registers (2 x v8f)

/**
 * 8-wide float vector (GCC/Clang vector extension). Lowered to two SSE
 * registers on baseline x86-64, one ymm under the AVX2/AVX-512 target
 * clones, NEON pairs on aarch64 — all element-wise IEEE mul/add, so
 * bit-identity is architecture-independent. Explicit vector variables
 * (rather than float arrays) are what keeps the accumulator tiles in
 * registers across the reduction loops; the auto-vectorizer left array
 * tiles in stack slots, re-loading and re-storing them every step,
 * which was SLOWER than the scalar reference.
 */
typedef float v8f __attribute__((vector_size(32)));

/**
 * 16-wide float vector: one zmm under the AVX-512 clone, two ymm under
 * AVX2. The attention column softmax runs a whole 16-query tile as one
 * lane group, so its latency-bound max and sum chains (one add per key)
 * cover twice the columns per step.
 */
typedef float v16f __attribute__((vector_size(64)));

__attribute__((always_inline)) inline v8f
load8(const float* p)
{
    v8f v;
    std::memcpy(&v, p, sizeof(v)); // unaligned-safe; folds to one move
    return v;
}

__attribute__((always_inline)) inline void
store8(float* p, v8f v)
{
    std::memcpy(p, &v, sizeof(v));
}

__attribute__((always_inline)) inline v8f
bcast8(float x)
{
#if defined(__has_builtin) && __has_builtin(__builtin_shufflevector)
    // GCC lowers the brace-initializer splat inside the GEMM loops to a
    // 5-uop insert chain (4x vinsertps + vinsertf128), which serializes
    // on the shuffle port and erases the whole micro-kernel win; the
    // explicit shuffle reliably selects the single-uop vbroadcastss.
    v8f s = {x};
    return __builtin_shufflevector(s, s, 0, 0, 0, 0, 0, 0, 0, 0);
#else
    return v8f{x, x, x, x, x, x, x, x};
#endif
}

/** Scalar-identical ikj kernel over rows [i0,i1), columns [j0,n). */
__attribute__((always_inline)) inline void
gemmAccumEdge(const float* a, const float* b, float* c, int i0, int i1,
              int j0, int k, int n)
{
    for (int i = i0; i < i1; ++i) {
        const float* arow = a + size_t(i) * k;
        float* crow = c + size_t(i) * n;
        for (int p = 0; p < k; ++p) {
            float av = arow[p];
            if (av == 0.f)
                continue;
            const float* brow = b + size_t(p) * n;
            for (int j = j0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

/**
 * Scalar-identical A^T*dC accumulation over out rows [p0,p1), columns
 * [j0,n). i stays outermost so each out element sees ascending i.
 */
__attribute__((always_inline)) inline void
gemmAccumAtEdge(const float* a, const float* dc, float* out, int m,
                int p0, int p1, int j0, int k, int n)
{
    for (int i = 0; i < m; ++i) {
        const float* arow = a + size_t(i) * k;
        const float* drow = dc + size_t(i) * n;
        for (int p = p0; p < p1; ++p) {
            float av = arow[p];
            if (av == 0.f)
                continue;
            float* orow = out + size_t(p) * n;
            for (int j = j0; j < n; ++j)
                orow[j] += av * drow[j];
        }
    }
}

} // namespace

LLM_KERNEL_CLONES void
gemmAccum(const float* a, const float* b, float* c, int m, int k, int n)
{
    int i = 0;
    for (; i + kMR <= m; i += kMR) {
        const float* a0 = a + size_t(i) * k;
        const float* a1 = a0 + k;
        const float* a2 = a1 + k;
        const float* a3 = a2 + k;
        float* c0 = c + size_t(i) * n;
        float* c1 = c0 + n;
        float* c2 = c1 + n;
        float* c3 = c2 + n;
        int j = 0;
        for (; j + kNR <= n; j += kNR) {
            // 4x16 accumulator tile (8 vector registers) lives in
            // registers across the whole k loop; each element's chain
            // is p-ascending with the scalar zero-skip, i.e.
            // bit-identical to the reference. Each B row panel is
            // loaded once and feeds four C rows.
            v8f acc00 = load8(c0 + j), acc01 = load8(c0 + j + 8);
            v8f acc10 = load8(c1 + j), acc11 = load8(c1 + j + 8);
            v8f acc20 = load8(c2 + j), acc21 = load8(c2 + j + 8);
            v8f acc30 = load8(c3 + j), acc31 = load8(c3 + j + 8);
            for (int p = 0; p < k; ++p) {
                const float* bp = b + size_t(p) * n + j;
                v8f b0 = load8(bp), b1 = load8(bp + 8);
                float av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
                if (av0 != 0.f) {
                    v8f av = bcast8(av0);
                    acc00 += av * b0;
                    acc01 += av * b1;
                }
                if (av1 != 0.f) {
                    v8f av = bcast8(av1);
                    acc10 += av * b0;
                    acc11 += av * b1;
                }
                if (av2 != 0.f) {
                    v8f av = bcast8(av2);
                    acc20 += av * b0;
                    acc21 += av * b1;
                }
                if (av3 != 0.f) {
                    v8f av = bcast8(av3);
                    acc30 += av * b0;
                    acc31 += av * b1;
                }
            }
            store8(c0 + j, acc00);
            store8(c0 + j + 8, acc01);
            store8(c1 + j, acc10);
            store8(c1 + j + 8, acc11);
            store8(c2 + j, acc20);
            store8(c2 + j + 8, acc21);
            store8(c3 + j, acc30);
            store8(c3 + j + 8, acc31);
        }
        if (j < n)
            gemmAccumEdge(a, b, c, i, i + kMR, j, k, n);
    }
    if (i < m)
        scalar::gemmAccum(a + size_t(i) * k, b, c + size_t(i) * n, m - i,
                          k, n);
}

namespace {

/**
 * Per-thread scratch for gemmAccumBt's transposed-B panel. Thread-local
 * because trainer workers run concurrent backward passes; grows
 * monotonically and is reused across calls.
 */
thread_local std::vector<float> g_bt_scratch;

} // namespace

LLM_KERNEL_CLONES void
gemmAccumBt(const float* dc, const float* b, float* out, int m, int k, int n)
{
    // The scalar kernel is one serial j-ascending add-chain per output
    // element — pure FPU-latency-bound. Transposing B once into an
    // [n,k] panel turns the inner step into `acc[p..] += dC[i,j] *
    // bT[j][p..]`: a broadcast-multiply across kNR INDEPENDENT p
    // chains, each still strictly j-ascending. The local accumulators
    // start at zero and are added into `out` once at the end, exactly
    // like the reference's `s = 0; ...; out += s`, so results stay
    // bit-identical. Small m can't amortize the O(k*n) transpose, and
    // k below one vector width leaves nothing to vectorize across; the
    // reference loop is fast enough there.
    if (m < kMR || k < 8) {
        scalar::gemmAccumBt(dc, b, out, m, k, n);
        return;
    }

    if (g_bt_scratch.size() < size_t(n) * k)
        g_bt_scratch.resize(size_t(n) * k);
    float* bt = g_bt_scratch.data();
    for (int p = 0; p < k; ++p)
        for (int j = 0; j < n; ++j)
            bt[size_t(j) * k + p] = b[size_t(p) * n + j];

    int i = 0;
    for (; i + kMR <= m; i += kMR) {
        const float* d0 = dc + size_t(i) * n;
        const float* d1 = d0 + n;
        const float* d2 = d1 + n;
        const float* d3 = d2 + n;
        float* o0 = out + size_t(i) * k;
        float* o1 = o0 + k;
        float* o2 = o1 + k;
        float* o3 = o2 + k;
        int p = 0;
        for (; p + kNR <= k; p += kNR) {
            v8f acc00 = {}, acc01 = {}, acc10 = {}, acc11 = {};
            v8f acc20 = {}, acc21 = {}, acc30 = {}, acc31 = {};
            for (int j = 0; j < n; ++j) {
                const float* btj = bt + size_t(j) * k + p;
                v8f b0 = load8(btj), b1 = load8(btj + 8);
                v8f dv0 = bcast8(d0[j]), dv1 = bcast8(d1[j]);
                v8f dv2 = bcast8(d2[j]), dv3 = bcast8(d3[j]);
                acc00 += dv0 * b0;
                acc01 += dv0 * b1;
                acc10 += dv1 * b0;
                acc11 += dv1 * b1;
                acc20 += dv2 * b0;
                acc21 += dv2 * b1;
                acc30 += dv3 * b0;
                acc31 += dv3 * b1;
            }
            store8(o0 + p, load8(o0 + p) + acc00);
            store8(o0 + p + 8, load8(o0 + p + 8) + acc01);
            store8(o1 + p, load8(o1 + p) + acc10);
            store8(o1 + p + 8, load8(o1 + p + 8) + acc11);
            store8(o2 + p, load8(o2 + p) + acc20);
            store8(o2 + p + 8, load8(o2 + p + 8) + acc21);
            store8(o3 + p, load8(o3 + p) + acc30);
            store8(o3 + p + 8, load8(o3 + p + 8) + acc31);
        }
        // One 8-wide p panel catches shapes like the attention-score
        // backward (k = headDim = 12) that never reach a 16 panel.
        for (; p + 8 <= k; p += 8) {
            v8f acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {};
            for (int j = 0; j < n; ++j) {
                v8f b0 = load8(bt + size_t(j) * k + p);
                acc0 += bcast8(d0[j]) * b0;
                acc1 += bcast8(d1[j]) * b0;
                acc2 += bcast8(d2[j]) * b0;
                acc3 += bcast8(d3[j]) * b0;
            }
            store8(o0 + p, load8(o0 + p) + acc0);
            store8(o1 + p, load8(o1 + p) + acc1);
            store8(o2 + p, load8(o2 + p) + acc2);
            store8(o3 + p, load8(o3 + p) + acc3);
        }
        for (; p < k; ++p) {
            const float* brow = b + size_t(p) * n;
            const float* dr[kMR] = {d0, d1, d2, d3};
            float* orow[kMR] = {o0, o1, o2, o3};
            for (int r = 0; r < kMR; ++r) {
                float sv = 0.f;
                for (int j = 0; j < n; ++j)
                    sv += dr[r][j] * brow[j];
                orow[r][p] += sv;
            }
        }
    }
    if (i < m)
        scalar::gemmAccumBt(dc + size_t(i) * n, b, out + size_t(i) * k,
                            m - i, k, n);
}

LLM_KERNEL_CLONES void
gemmAccumAt(const float* a, const float* dc, float* out, int m, int k, int n)
{
    int p = 0;
    for (; p + kMR <= k; p += kMR) {
        int j = 0;
        for (; j + kNR <= n; j += kNR) {
            // 4x16 out tile in registers across the i loop; per element
            // the accumulation stays i-ascending with the scalar
            // zero-skip on A[i,p], and (like the reference) the chain
            // starts from the existing out value.
            v8f acc00 = load8(out + size_t(p) * n + j);
            v8f acc01 = load8(out + size_t(p) * n + j + 8);
            v8f acc10 = load8(out + size_t(p + 1) * n + j);
            v8f acc11 = load8(out + size_t(p + 1) * n + j + 8);
            v8f acc20 = load8(out + size_t(p + 2) * n + j);
            v8f acc21 = load8(out + size_t(p + 2) * n + j + 8);
            v8f acc30 = load8(out + size_t(p + 3) * n + j);
            v8f acc31 = load8(out + size_t(p + 3) * n + j + 8);
            for (int i = 0; i < m; ++i) {
                const float* ai = a + size_t(i) * k + p;
                const float* di = dc + size_t(i) * n + j;
                v8f d0 = load8(di), d1 = load8(di + 8);
                float av0 = ai[0], av1 = ai[1], av2 = ai[2], av3 = ai[3];
                if (av0 != 0.f) {
                    v8f av = bcast8(av0);
                    acc00 += av * d0;
                    acc01 += av * d1;
                }
                if (av1 != 0.f) {
                    v8f av = bcast8(av1);
                    acc10 += av * d0;
                    acc11 += av * d1;
                }
                if (av2 != 0.f) {
                    v8f av = bcast8(av2);
                    acc20 += av * d0;
                    acc21 += av * d1;
                }
                if (av3 != 0.f) {
                    v8f av = bcast8(av3);
                    acc30 += av * d0;
                    acc31 += av * d1;
                }
            }
            store8(out + size_t(p) * n + j, acc00);
            store8(out + size_t(p) * n + j + 8, acc01);
            store8(out + size_t(p + 1) * n + j, acc10);
            store8(out + size_t(p + 1) * n + j + 8, acc11);
            store8(out + size_t(p + 2) * n + j, acc20);
            store8(out + size_t(p + 2) * n + j + 8, acc21);
            store8(out + size_t(p + 3) * n + j, acc30);
            store8(out + size_t(p + 3) * n + j + 8, acc31);
        }
        if (j < n)
            gemmAccumAtEdge(a, dc, out, m, p, p + kMR, j, k, n);
    }
    if (p < k)
        gemmAccumAtEdge(a, dc, out, m, p, k, 0, k, n);
}

LLM_KERNEL_CLONES void
softmaxRows(const float* x, float* y, int m, int n)
{
    // exp runs eight keys at a time through the shared expLanes (lane for
    // lane the scalar kernel's call); the exp-sum stays a j-ascending
    // scalar chain for bit-identity. max() is exact under any evaluation
    // order on the finite inputs the contract admits.
    for (int i = 0; i < m; ++i) {
        const float* __restrict in = x + size_t(i) * n;
        float* __restrict out = y + size_t(i) * n;
        int j = 0;
        float mx = in[0];
        if (n >= 8) {
            // Eight running maxima, folded at the end.
            v8f m8 = load8(in);
            for (j = 8; j + 8 <= n; j += 8) {
                v8f v = load8(in + j);
                m8 = v > m8 ? v : m8;
            }
            for (int l = 0; l < 8; ++l)
                mx = std::max(mx, m8[l]);
        }
        for (; j < n; ++j)
            mx = std::max(mx, in[j]);
        for (j = 0; j + 8 <= n; j += 8)
            store8(out + j, expLanes(load8(in + j) - mx));
        for (; j < n; ++j)
            out[j] = expLanes(in[j] - mx);
        float sum = 0.f;
        for (j = 0; j < n; ++j)
            sum += out[j];
        float inv = 1.f / sum;
        for (j = 0; j < n; ++j)
            out[j] *= inv;
    }
}

namespace {

/** attnSoftmaxLanes over the lane group of query columns [t, t + lanes). */
template <typename F>
__attribute__((always_inline)) inline void
attnSoftmaxGroup(float* st, int n, int m, int t, float scale,
                 const uint8_t* keyClassI, const uint8_t* keyData,
                 const uint8_t* queryClassI, const uint8_t* queryData)
{
    F qc, qd;
    for (int l = 0; l < int(sizeof(F) / sizeof(float)); ++l) {
        qc[l] = queryClassI[t + l] ? 1.f : 0.f;
        qd[l] = queryData[t + l] ? 1.f : 0.f;
    }
    attnSoftmaxLanes(st + t, n, m, scale, keyClassI, keyData, qc, qd);
}

} // namespace

LLM_KERNEL_CLONES void
attnSoftmaxCols(float* st, int n, int m, float scale,
                const uint8_t* keyClassI, const uint8_t* keyData,
                const uint8_t* queryClassI, const uint8_t* queryData)
{
    // Sixteen (then eight) query columns per pass; each column's max,
    // exp-sum and normalize chains run over j in the scalar kernel's
    // order, so vectorizing across columns keeps every lane
    // bit-identical. Columns past the last full group take the scalar
    // lane body.
    int t = 0;
    for (; t + 16 <= m; t += 16)
        attnSoftmaxGroup<v16f>(st, n, m, t, scale, keyClassI, keyData,
                               queryClassI, queryData);
    for (; t + 8 <= m; t += 8)
        attnSoftmaxGroup<v8f>(st, n, m, t, scale, keyClassI, keyData,
                              queryClassI, queryData);
    for (; t < m; ++t)
        attnSoftmaxLanes(st + t, n, m, scale, keyClassI, keyData,
                         queryClassI[t] ? 1.f : 0.f,
                         queryData[t] ? 1.f : 0.f);
}

LLM_KERNEL_CLONES void
layerNormRows(const float* x, const float* gamma, const float* beta,
              float eps, float* y, float* xhat, float* invstd, int m, int n)
{
    // Mean/variance sums stay j-ascending (reduction order is pinned);
    // the scale-shift stage is independent per element and vectorizes.
    for (int i = 0; i < m; ++i) {
        const float* __restrict row = x + size_t(i) * n;
        float mean = 0.f;
        for (int j = 0; j < n; ++j)
            mean += row[j];
        mean /= n;
        float var = 0.f;
        for (int j = 0; j < n; ++j) {
            float d = row[j] - mean;
            var += d * d;
        }
        var /= n;
        float is = 1.f / std::sqrt(var + eps);
        invstd[i] = is;
        float* __restrict xh = xhat + size_t(i) * n;
        float* __restrict out = y + size_t(i) * n;
        for (int j = 0; j < n; ++j) {
            float h = (row[j] - mean) * is;
            xh[j] = h;
            out[j] = gamma[j] * h + beta[j];
        }
    }
}

LLM_KERNEL_CLONES void
geluForward(const float* x, float* y, std::size_t n)
{
    // Eight elements per step through the shared geluLanes; the tail
    // runs the same body on single floats.
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        store8(y + i, geluLanes(load8(x + i)));
    for (; i < n; ++i)
        y[i] = geluLanes(x[i]);
}

LLM_KERNEL_CLONES void
addElem(const float* a, const float* b, float* y, std::size_t n)
{
    const float* __restrict ap = a;
    const float* __restrict bp = b;
    float* __restrict yp = y;
    for (std::size_t i = 0; i < n; ++i)
        yp[i] = ap[i] + bp[i];
}

LLM_KERNEL_CLONES void
subElem(const float* a, const float* b, float* y, std::size_t n)
{
    const float* __restrict ap = a;
    const float* __restrict bp = b;
    float* __restrict yp = y;
    for (std::size_t i = 0; i < n; ++i)
        yp[i] = ap[i] - bp[i];
}

LLM_KERNEL_CLONES void
mulElem(const float* a, const float* b, float* y, std::size_t n)
{
    const float* __restrict ap = a;
    const float* __restrict bp = b;
    float* __restrict yp = y;
    for (std::size_t i = 0; i < n; ++i)
        yp[i] = ap[i] * bp[i];
}

LLM_KERNEL_CLONES void
axpy(float alpha, const float* x, float* y, std::size_t n)
{
    const float* __restrict xp = x;
    float* __restrict yp = y;
    for (std::size_t i = 0; i < n; ++i)
        yp[i] += alpha * xp[i];
}

LLM_KERNEL_CLONES void
scaleElem(float alpha, const float* x, float* y, std::size_t n)
{
    const float* __restrict xp = x;
    float* __restrict yp = y;
    for (std::size_t i = 0; i < n; ++i)
        yp[i] = xp[i] * alpha;
}

} // namespace vec
} // namespace kernels
} // namespace nn
} // namespace llmulator
