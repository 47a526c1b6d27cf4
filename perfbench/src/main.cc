/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload <fleet_zipf|dse_sweep|train> --seed <n>
 *             --seconds <s> --trace <0|1> [--out-dir <dir>]
 *
 * --trace 0 measures the workload with all telemetry off and reports
 * its end-to-end metrics. --trace 1 runs the traced layer sweep
 * instead and reports the per-layer metrics. Usually started through
 * perfbench/run.py, which builds this binary first.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "obs/telemetry.h"
#include "workloads.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload fleet_zipf|dse_sweep|train --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    std::string workload;
    RunConfig cfg;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        const char* val = argv[++i];
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            cfg.seed = std::strtoull(val, nullptr, 10);
        else if (arg == "--seconds")
            cfg.seconds = std::atof(val);
        else if (arg == "--trace")
            trace = std::strcmp(val, "0") != 0;
        else if (arg == "--out-dir")
            cfg.outDir = val;
        else
            usage(argv[0]);
    }
    if (cfg.seconds <= 0)
        usage(argv[0]);
    cfg.threads =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

    Result (*run)(const RunConfig&) = nullptr;
    if (workload == "fleet_zipf")
        run = runFleetZipf;
    else if (workload == "dse_sweep")
        run = runDseSweep;
    else if (workload == "train")
        run = runTrain;
    else
        usage(argv[0]);

    // Timed runs measure with the program's telemetry off, whatever the
    // environment says; only the traced run turns it on.
    llmulator::obs::setMetricsEnabled(false);
    llmulator::obs::setTraceEnabled(false);
    printHeader(workload, cfg.seed, cfg.seconds, trace, cfg.threads,
                cfg.threads);
    printResult(trace ? runTraced(cfg) : run(cfg));
    return 0;
}
