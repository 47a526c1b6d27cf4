#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

/**
 * @file
 * Small numeric helpers shared by the workloads: quantiles, the Zipf
 * popularity law and the open-loop arrival schedule. The schedule and
 * the Zipf draws are pure functions of their seed, so one --seed always
 * produces the same traffic (pinned by perfbench_tests).
 */

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
double secondsBetween(Clock::time_point a, Clock::time_point b);

/**
 * Nearest-rank quantile (q in [0, 1]) of `v`; 0 for an empty vector.
 * Takes a copy because it sorts.
 */
double quantile(std::vector<double> v, double q);

/** quantile(v, 0.5). */
double median(const std::vector<double>& v);

double mean(const std::vector<double>& v);

/** Cumulative popularity over ranks: weight(i) = (i + 1)^-skew. */
std::vector<double> zipfCdf(size_t n, double skew);

/** Rank drawn by inverse transform of a uniform u in [0, 1). */
size_t zipfRank(const std::vector<double>& cdf, double u);

/** One scheduled request of an open-loop phase. */
struct Arrival
{
    double dueS = 0;        //!< seconds after the phase start
    size_t entry = 0;       //!< corpus index (Zipf rank order)
    bool malformed = false; //!< send a malformed program text instead
};

/**
 * Poisson arrivals at `rate` per second over `seconds`, each drawing
 * its corpus entry from the Zipf law `cdf` and, with probability
 * `malformedShare`, marked malformed. A pure function of its arguments.
 */
std::vector<Arrival> arrivalSchedule(const std::vector<double>& cdf,
                                     double rate, double seconds,
                                     double malformedShare, uint64_t seed);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_STATS_H
