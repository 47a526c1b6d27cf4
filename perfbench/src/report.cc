#include "report.h"

#include <cmath>
#include <cstdio>
#include <thread>

#include "nn/backend.h"

namespace perfbench {

void
Result::merge(const Result& other)
{
    correct = correct && other.correct;
    attempted += other.attempted;
    failed += other.failed;
    metrics.insert(metrics.end(), other.metrics.begin(),
                   other.metrics.end());
}

void
printHeader(const std::string& workload, uint64_t seed, double seconds,
            bool trace, int threads, int connections)
{
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "hw_threads=%u build=%s nn_backend=%s thread_budget=%d "
                "connection_budget=%d\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                seconds, trace ? 1 : 0,
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                llmulator::nn::backend().name, threads, connections);
    std::fflush(stdout);
}

void
printResult(const Result& r)
{
    bool finite = true;
    for (const MetricValue& m : r.metrics) {
        std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        finite = finite && std::isfinite(m.value);
    }
    if (!finite)
        std::fprintf(stderr, "perfbench: a metric is not finite\n");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.correct && finite ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const MetricValue& m = r.metrics[i];
        double v = std::isfinite(m.value) ? m.value : -1.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace perfbench
