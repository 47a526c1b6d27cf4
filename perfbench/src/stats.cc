#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sys/resource.h>

#include "util/rng.h"

namespace perfbench {

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t idx = static_cast<size_t>(std::ceil(q * double(v.size())));
    return v[std::min(v.size() - 1, idx == 0 ? 0 : idx - 1)];
}

double
median(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

double
mean(const std::vector<double>& v)
{
    return v.empty() ? 0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           double(v.size());
}

std::vector<double>
zipfCdf(size_t n, double skew)
{
    std::vector<double> cdf(n);
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
        total += std::pow(double(i + 1), -skew);
        cdf[i] = total;
    }
    for (double& c : cdf)
        c /= total;
    return cdf;
}

size_t
zipfRank(const std::vector<double>& cdf, double u)
{
    auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return it == cdf.end() ? cdf.size() - 1
                           : static_cast<size_t>(it - cdf.begin());
}

std::vector<Arrival>
arrivalSchedule(const std::vector<double>& cdf, double rate,
                double seconds, double malformedShare, uint64_t seed)
{
    std::vector<Arrival> out;
    if (cdf.empty() || rate <= 0)
        return out;
    llmulator::util::Rng rng(seed);
    double t = 0;
    for (;;) {
        // Exponential inter-arrival gaps: independent devices.
        t += -std::log(1.0 - rng.uniform()) / rate;
        if (t >= seconds)
            break;
        Arrival a;
        a.dueS = t;
        a.entry = zipfRank(cdf, rng.uniform());
        a.malformed = rng.uniform() < malformedShare;
        out.push_back(a);
    }
    return out;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

} // namespace perfbench
