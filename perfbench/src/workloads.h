#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

/**
 * @file
 * The three benchmark workloads and the traced layer sweep.
 *
 *  - fleet_zipf: open-loop clients over loopback TCP to a
 *    net::FleetServer with its persistent cache on (empty at start);
 *    Zipf-skewed popularity over a long-tailed corpus. Mostly cache
 *    hits, with a steady tail of misses that puts the model on the p99
 *    path.
 *  - dse_sweep: one thread submits every query of a set of distinct
 *    designs to a serve::PredictionServer (cache off) and waits for all
 *    of them; every request runs the model.
 *  - train: harness::trainCostModelUncached on a fixed synthesized
 *    corpus with nproc trainer threads.
 *
 * Every workload reports the same end-to-end metrics, so any two runs
 * compare metric by metric: setup_s, p50_ms / p99_ms (latency of
 * one operation — a fleet request at the reference rate, a sweep
 * prediction from submit to answer, a training epoch), ops_per_s (the
 * highest request rate meeting the latency limit / predictions per
 * second / samples per second), ok_frac and peak_rss_mb.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "net/fleet_server.h"

#include "oracle.h"
#include "report.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

struct RunConfig
{
    uint64_t seed = 1;
    double seconds = 20;
    std::string outDir = ".";
    int threads = 4; //!< thread and connection budget (nproc)
};

Result runFleetZipf(const RunConfig& cfg);
Result runDseSweep(const RunConfig& cfg);
Result runTrain(const RunConfig& cfg);

/**
 * The traced run: gates the program's own telemetry on, runs each
 * workload with the benchmark's spans recorded around every call into
 * a layer, adds the per-layer probes, and reports every per-layer
 * metric. Writes chrome traces to cfg.outDir.
 */
Result runTraced(const RunConfig& cfg);

// ---- the traced run's per-workload parts (per-layer metrics) ----

/** fleet_zipf at the reference rate, over the wire and in-process. */
Result traceFleetZipf(const RunConfig& cfg, double seconds);

/**
 * dse_sweep sweeps with telemetry off, then on (trace_overhead), plus
 * the model-layer probes on the sweep's queries.
 */
Result traceDseSweep(const RunConfig& cfg, double seconds);

/** train epochs at nproc and at one thread, plus the trainer probes. */
Result traceTrain(const RunConfig& cfg);

/** nn.gemm_gflops.* on both backends at the served encoder's shapes. */
Result probeGemm();

// ---- pieces exposed for the traced run and the tests ----

/** One request as the open-loop generator saw it. */
struct Sent
{
    bool transportOk = false;
    net::NetResponse resp;
    Clock::time_point due, grab, send, done;
};

/**
 * Replay `sched` open-loop from `threads` threads (the caller's thread
 * is one of them). Each thread owns one connection to 127.0.0.1:port,
 * or calls `inproc->handle()` directly when `inproc` is non-null. A
 * request is sent at its due time, or as soon as a thread is free if
 * all were busy then. `log` (optional) receives one span tree per
 * request with request ids starting at `requestBase`.
 */
std::vector<Sent> runOpenLoop(const std::vector<Arrival>& sched,
                              const std::vector<net::NetRequest>& requests,
                              const std::vector<net::NetRequest>& malformed,
                              int port, net::FleetServer* inproc,
                              int threads, SpanLog* log,
                              uint64_t requestBase = 1);

/** Outcome of one open-loop phase. */
struct PhaseStats
{
    size_t requests = 0;
    size_t failed = 0;     //!< any verdict but Correct
    size_t wrong = 0;      //!< Wrong or BadStatus: the program is at fault
    size_t overloaded = 0;
    size_t transport = 0;
    double p50Ms = 0;      //!< due -> answer; failures count as missing
    double p99Ms = 0;
    double lateP50Ms = 0;  //!< generator lateness (sleep overshoot)
    double lateP99Ms = 0;
    size_t backlogAtEnd = 0; //!< due before the end but not yet sent
    std::vector<size_t> wrongRequests; //!< schedule indices of `wrong`
};

/** Judge every reply and compute the phase's latency figures. */
PhaseStats summarize(const std::vector<Arrival>& sched,
                     const std::vector<Sent>& sent, const Oracle& oracle,
                     double phaseSeconds);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
