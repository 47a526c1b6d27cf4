#ifndef LLMULATOR_NN_EXPF_H
#define LLMULATOR_NN_EXPF_H

/**
 * @file
 * The repo's own single-precision exp, and the kernel bodies written
 * through it: GELU and the attention column softmax.
 *
 * Every transcendental of the nn forward (softmax rows, the attention
 * column softmax, GELU) and of the GELU backward goes through
 * expLanes(). It is one branch-free template instantiated for a plain
 * float and for the 8-lane v8f vector of kernels_vector.cc, so the
 * scalar and vector backends run the same IEEE operation sequence lane
 * for lane and stay bit-identical (backend.h, contract (c)) while the
 * vector backend evaluates eight exps per instruction stream.
 *
 * Include this header ONLY from the kernel translation units that are
 * compiled with -ffp-contract=off (see src/nn/CMakeLists.txt): with
 * contraction allowed a compiler may fuse the polynomial's mul+add
 * pairs differently per TU or per target clone, and the bits would
 * diverge. Other code calls the compiled kernels::expf (kernels.h).
 *
 * ## Algorithm
 *
 *  1. Clamp x to [-87.3365, 88.8]; lanes below -87.3365 (~ln FLT_MIN)
 *     return +0 at the end, and above 88.72 every result overflows to
 *     +inf. Subnormal results are flushed on purpose: producing one (or
 *     underflowing to zero through one) takes a microcode assist of
 *     ~100 cycles per element on x86, and a softmax over masked or
 *     sharply peaked scores produces them by the thousand. The flushed
 *     values are below 1.2e-38, far under the attention's 1e-9 drop.
 *  2. n = round(x * log2(e)) by the magic-number trick: adding 1.5 * 2^23
 *     rounds to an integer (ties to even) and leaves n in the low
 *     mantissa bits.
 *  3. Cody–Waite reduction r = (x - n * C1) - n * C2, with C1 = ln 2
 *     truncated to 9 significant bits (n * C1 is exact for |n| < 2^15)
 *     and C2 = ln 2 - C1, so |r| <= ~ln(2)/2.
 *  4. e^r ~= 1 + r + r^2 * q(r), q a fixed degree-4 polynomial (the whole
 *     approximation is degree 6; coefficients from a Chebyshev fit of
 *     (e^r - 1 - r) / r^2 on |r| <= 0.35, relative error ~1.1e-8).
 *  5. Scale by 2^n through the exponent bits, in two halves
 *     2^(n>>1) * 2^(n - (n>>1)), since 2^128 (n = 128 near the top of
 *     the range) is not a float.
 *
 * Measured against the correctly rounded exp (double std::exp rounded
 * to float) on every float in [-87.3365, 88.8]: at most 1 ulp;
 * exp(±0) == 1 exactly. test_nn_backend pins the bound on a dense
 * stride. Below -87.3365 the result is +0; +inf -> +inf, -inf -> +0;
 * NaN gives an unspecified value (the kernels' finite-input contract).
 */

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "nn/kernels.h"

// The templates below pass v8f lanes by value; they are always_inline'd
// into the (possibly AVX-cloned) kernels, so the generic-ABI warning
// about by-value vector parameters is noise.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

namespace llmulator {
namespace nn {
namespace kernels {

/**
 * Lane-wise int32 type of a float lane type: int32_t for float, and for
 * a GCC/Clang float vector the int vector its comparisons yield.
 */
template <typename F>
using LaneInt = std::conditional_t<std::is_floating_point<F>::value,
                                   int32_t, decltype(F{} < F{})>;

/** Reinterpret the bits of one lane type as another of the same size. */
template <typename To, typename From>
__attribute__((always_inline)) inline To
bitsAs(From f)
{
    static_assert(sizeof(To) == sizeof(From), "bit cast needs equal size");
    To t;
    std::memcpy(&t, &f, sizeof t);
    return t;
}

/** e^x per lane; see the file comment for the method and bound. */
template <typename F>
__attribute__((always_inline)) inline F
expLanes(F x)
{
    using I = LaneInt<F>;
    constexpr float kLo = -87.3365f; // ~ln(FLT_MIN)
    constexpr float kHi = 88.8f;
    constexpr float kLog2e = 1.44269504088896341f;
    constexpr float kMagic = 12582912.f; // 1.5 * 2^23
    constexpr float kC1 = 0.693359375f;
    constexpr float kC2 = -2.12194440e-4f;
    const auto flush = x < kLo;
    x = flush ? kLo : x;
    x = x > kHi ? kHi : x;
    F t = x * kLog2e + kMagic;
    F n = t - kMagic;
    F r = x - n * kC1;
    r = r - n * kC2;
    F q = r * 0.00139269326f + 0.0083637787f;
    q = q * r + 0.0416665487f;
    q = q * r + 0.166665733f;
    q = q * r + 0.5f;
    F y = r * r;
    y = y * q;
    y = y + r;
    y = y + 1.f;
    I ni = bitsAs<I>(t) - bitsAs<int32_t>(kMagic);
    I n1 = ni >> 1;
    I n2 = ni - n1;
    F s1 = bitsAs<F>((n1 + 127) << 23);
    F s2 = bitsAs<F>((n2 + 127) << 23);
    return flush ? F{} : y * s1 * s2;
}

/**
 * e^(-2u) for the GELU argument u = kGeluC * (v + kGeluA * v^3). The
 * forward and the backward share it, so both see the same bits.
 */
template <typename F>
__attribute__((always_inline)) inline F
geluExpLanes(F v)
{
    F inner = kGeluA * v * v * v;
    F u = kGeluC * (v + inner);
    return expLanes(u * -2.f);
}

/**
 * GELU (tanh approximation) per lane via the exact identity
 * 0.5 * v * (1 + tanh(u)) = v / (1 + e^(-2u)). Large negative v gives
 * e^(-2u) = +inf and v / inf = -0; large positive v gives v.
 */
template <typename F>
__attribute__((always_inline)) inline F
geluLanes(F v)
{
    return v / (geluExpLanes(v) + 1.f);
}

/** Load / store one lane group (a float, or 8 floats for v8f). */
template <typename F>
__attribute__((always_inline)) inline F
loadLanes(const float* p)
{
    F v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

template <typename F>
__attribute__((always_inline)) inline void
storeLanes(float* p, F v)
{
    std::memcpy(p, &v, sizeof v);
}

/**
 * The attention column softmax (Backend::attnSoftmaxCols) for the lane
 * group of query columns starting at st[0] of an [n, m] row-major S^T.
 * qClassI / qData hold 1 in a lane whose query row is Class I / data,
 * else 0. Per lane: scale or mask each key's score and take the running
 * max (j ascending), exponentiate and sum (j ascending), then normalize
 * and drop weights below kAttnMinWeight. A masked score is kAttnMasked,
 * so its exp underflows to +0 once the column has an unmasked key; an
 * all-masked column keeps e^0 on every key (uniform weights).
 */
template <typename F>
__attribute__((always_inline)) inline void
attnSoftmaxLanes(float* st, int n, int m, float scale,
                 const uint8_t* keyClassI, const uint8_t* keyData,
                 F qClassI, F qData)
{
    const F zero{};
    F mx = zero + kAttnMasked;
    for (int j = 0; j < n; ++j) {
        float* p = st + size_t(j) * m;
        F mk = (keyData[j] ? qClassI : zero) + (keyClassI[j] ? qData : zero);
        F s = loadLanes<F>(p) * scale;
        s = mk > 0.f ? kAttnMasked : s;
        mx = s > mx ? s : mx;
        storeLanes(p, s);
    }
    F sum = zero;
    for (int j = 0; j < n; ++j) {
        float* p = st + size_t(j) * m;
        F e = expLanes(loadLanes<F>(p) - mx);
        sum = sum + e;
        storeLanes(p, e);
    }
    // w = e * inv <= e (sum >= 1: the max key contributes e^0), so an e
    // below the drop threshold drops either way; zeroing it first keeps
    // the multiply from underflowing (see expLanes on assists).
    F inv = 1.f / sum;
    for (int j = 0; j < n; ++j) {
        float* p = st + size_t(j) * m;
        F e = loadLanes<F>(p);
        F w = (e < kAttnMinWeight ? F{} : e) * inv;
        storeLanes<F>(p, w < kAttnMinWeight ? 0.f : w);
    }
}

} // namespace kernels
} // namespace nn
} // namespace llmulator

#endif // LLMULATOR_NN_EXPF_H
