#include "util/rng.h"

#include <cmath>

#include "util/common.h"

namespace llmulator {
namespace util {

namespace {

uint64_t
splitmix64(uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto& s : s_)
        s = splitmix64(sm);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0,1)
    return (next() >> 11) * (1.0 / 9007199254740992.0);
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    LLM_CHECK(lo <= hi, "uniformInt range inverted: " << lo << ">" << hi);
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(next() % span);
}

double
Rng::normal()
{
    if (haveSpareNormal_) {
        haveSpareNormal_ = false;
        return spareNormal_;
    }
    double u1 = uniform();
    double u2 = uniform();
    if (u1 < 1e-300)
        u1 = 1e-300;
    double mag = std::sqrt(-2.0 * std::log(u1));
    spareNormal_ = mag * std::sin(2.0 * M_PI * u2);
    haveSpareNormal_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

size_t
Rng::index(size_t n)
{
    LLM_CHECK(n > 0, "index() on empty range");
    return static_cast<size_t>(next() % n);
}

} // namespace util
} // namespace llmulator
