#ifndef LLMULATOR_UTIL_RNG_H
#define LLMULATOR_UTIL_RNG_H

/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in the repository (dataset synthesis, weight
 * initialization, input tensor generation, sampling) draws from an explicit
 * Rng instance seeded by the caller, so that tests and the benchmark harness
 * are bit-reproducible run to run. The generator is xoshiro256** seeded via
 * splitmix64, which is fast and has no measurable bias for our use.
 */

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace llmulator {
namespace util {

using std::size_t;

/** Deterministic 64-bit PRNG (xoshiro256**, splitmix64-seeded). */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. Requires lo <= hi. */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Standard normal via Box-Muller (deterministic pairing). */
    double normal();

    /** Normal with explicit mean / stddev. */
    double normal(double mean, double stddev);

    /** Bernoulli draw with probability p of true. */
    bool chance(double p);

    /** Pick a uniformly random element index from a container of size n. */
    size_t index(size_t n);

    /** Pick an element from a non-empty vector by value. */
    template <typename T>
    const T&
    choice(const std::vector<T>& v)
    {
        return v[index(v.size())];
    }

    /** In-place Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T>& v)
    {
        for (size_t i = v.size(); i > 1; --i) {
            size_t j = index(i);
            std::swap(v[i - 1], v[j]);
        }
    }

  private:
    uint64_t s_[4];
    bool haveSpareNormal_ = false;
    double spareNormal_ = 0.0;
};

} // namespace util
} // namespace llmulator

#endif // LLMULATOR_UTIL_RNG_H
