#ifndef LLMULATOR_NN_KERNELS_H
#define LLMULATOR_NN_KERNELS_H

/**
 * @file
 * Internal declarations of the raw kernel implementations behind the
 * two registered nn::Backend tables (backend.h has the public API and
 * the bit-identity / finite-input contracts). One namespace per
 * backend; kernels_scalar.cc and kernels_vector.cc define them.
 *
 * Both translation units are compiled with -ffp-contract=off (see
 * src/nn/CMakeLists.txt): a fused multiply-add rounds once where
 * mul+add rounds twice, so letting the compiler contract one backend
 * but not the other — or one target clone but not another — would
 * silently break the bitwise contract. With contraction pinned off,
 * every per-element operation sequence is plain IEEE mul/add in both
 * backends on every architecture. The same holds for the repo exp and
 * the kernel bodies built on it (nn/expf.h), which only these two TUs
 * include.
 */

#include <cstddef>
#include <cstdint>

namespace llmulator {
namespace nn {
namespace kernels {

/** GELU tanh-approximation constants, shared by forward and backward. */
inline constexpr float kGeluC = 0.7978845608028654f; // sqrt(2/pi)
inline constexpr float kGeluA = 0.044715f;

/** Attention score of a masked (query, key) pair; the column max's start. */
inline constexpr float kAttnMasked = -1e30f;

/** Attention weights below this are dropped (set to +0). */
inline constexpr float kAttnMinWeight = 1e-9f;

/**
 * The repo exp (expf.h) compiled in a -ffp-contract=off TU, for callers
 * outside the kernel TUs (tests, tools). At most 1 ulp from the
 * correctly rounded e^x.
 */
float expf(float x);

/**
 * GELU backward, dx[i] += dy[i] * gelu'(x[i]), with the derivative of
 * the forward's form v * s, s = 1 / (1 + e^(-2u)):
 * gelu'(v) = s + v * (2 * s * (1 - s) * du/dv). Backend-independent
 * (both backends' tapes call it), so it is bit-identical across them.
 */
void geluBackward(const float* x, const float* dy, float* dx,
                  std::size_t n);

namespace scalar {

void gemmAccum(const float* a, const float* b, float* c, int m, int k,
               int n);
void gemmAccumBt(const float* dc, const float* b, float* out, int m,
                 int k, int n);
void gemmAccumAt(const float* a, const float* dc, float* out, int m,
                 int k, int n);
void softmaxRows(const float* x, float* y, int m, int n);
void layerNormRows(const float* x, const float* gamma, const float* beta,
                   float eps, float* y, float* xhat, float* invstd,
                   int m, int n);
void attnSoftmaxCols(float* st, int n, int m, float scale,
                     const uint8_t* keyClassI, const uint8_t* keyData,
                     const uint8_t* queryClassI, const uint8_t* queryData);
void geluForward(const float* x, float* y, std::size_t n);
void addElem(const float* a, const float* b, float* y, std::size_t n);
void subElem(const float* a, const float* b, float* y, std::size_t n);
void mulElem(const float* a, const float* b, float* y, std::size_t n);
void axpy(float alpha, const float* x, float* y, std::size_t n);
void scaleElem(float alpha, const float* x, float* y, std::size_t n);

} // namespace scalar

namespace vec {

void gemmAccum(const float* a, const float* b, float* c, int m, int k,
               int n);
void gemmAccumBt(const float* dc, const float* b, float* out, int m,
                 int k, int n);
void gemmAccumAt(const float* a, const float* dc, float* out, int m,
                 int k, int n);
void softmaxRows(const float* x, float* y, int m, int n);
void layerNormRows(const float* x, const float* gamma, const float* beta,
                   float eps, float* y, float* xhat, float* invstd,
                   int m, int n);
void attnSoftmaxCols(float* st, int n, int m, float scale,
                     const uint8_t* keyClassI, const uint8_t* keyData,
                     const uint8_t* queryClassI, const uint8_t* queryData);
void geluForward(const float* x, float* y, std::size_t n);
void addElem(const float* a, const float* b, float* y, std::size_t n);
void subElem(const float* a, const float* b, float* y, std::size_t n);
void mulElem(const float* a, const float* b, float* y, std::size_t n);
void axpy(float alpha, const float* x, float* y, std::size_t n);
void scaleElem(float alpha, const float* x, float* y, std::size_t n);

} // namespace vec

} // namespace kernels
} // namespace nn
} // namespace llmulator

#endif // LLMULATOR_NN_KERNELS_H
