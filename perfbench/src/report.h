#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

/**
 * @file
 * Run result and output. Every metric is printed by name with its unit
 * (`metric <name> <value> <unit>`), and the last stdout line is one
 * JSON object with exactly the keys correct, attempted, failed and
 * metrics.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct MetricValue
{
    std::string name;
    double value = 0;
    std::string unit;
};

struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<MetricValue> metrics;

    void add(const std::string& name, double value, const std::string& unit)
    {
        metrics.push_back({name, value, unit});
    }
    /** Fold another result's counts and metrics into this one. */
    void merge(const Result& other);
};

/** Header line: the measurement conditions of this run. */
void printHeader(const std::string& workload, uint64_t seed, double seconds,
                 bool trace, int threads, int connections);

/** Metric lines followed by the final JSON line. */
void printResult(const Result& r);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
