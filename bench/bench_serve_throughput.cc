/**
 * @file
 * Serving-throughput benchmark: drives a PredictionServer over the
 * PolyBench evaluation workloads and reports requests/sec and p95
 * latency at 1/4/8-worker configurations (result cache disabled, so
 * every request exercises the model), plus the cache hit rate and
 * cached throughput for a repeat-heavy traffic mix.
 *
 * CSV lines (name,metric,value):
 *   serve_throughput,hw_threads,<hardware concurrency>
 *   serve_throughput,rps_w<N>,<req/s with N workers>
 *   serve_throughput,p95_ms_w<N>,<p95 latency with N workers>
 *   serve_throughput,speedup_w<N>,<rps_wN / rps_w1>
 *   serve_throughput,rps_b<B>,<req/s with micro-batch cap B, 2 workers>
 *   serve_throughput,p95_ms_b<B>,<p95 latency with micro-batch cap B>
 *   serve_throughput,speedup_b<B>,<rps_bB / rps_b1>
 *   serve_throughput,cached_rps,<req/s, cache enabled, repeat mix>
 *   serve_throughput,cache_hit_rate,<fraction in [0,1]>
 *   serve_throughput,queue_wait_p99_ms_w<N>,<queue-wait p99, N workers>
 *   serve_throughput,stage_share_<stage>,<share of the summed stage
 *     means, 4-worker run: assembly|forward|decode|cache_fill>
 *   serve_throughput,serve.*,<stage-histogram registry rows from one
 *     instrumented pass>
 *   serve_throughput,nn.*,<GEMM call/FLOP counters from the same pass>
 *
 * The instrumented pass runs AFTER every timed phase (and the global
 * metrics gate stays off during them), so the rps/p95 rows above are
 * never polluted by telemetry cost.
 *
 * Multi-worker speedup tracks the machine's core count: on a 1-core
 * host the w4/w8 rows land near 1.0, on CI-class 4-vCPU hosts they
 * exceed the 1-worker baseline. The batchMax sweep (1/4/8 at a fixed
 * worker count) measures request grouping: a worker runs one encoder
 * forward per distinct (program, input) in its micro-batch, so a larger
 * cap only saves work when a batch holds repeats of one program and
 * input (e.g. the same program asked for several metrics). Each
 * speedup_b* row comes from ONE timing per cap (three --quick runs on
 * one 4-core VM read speedup_b4 0.91-1.12 and speedup_b8 1.03-1.28),
 * so it is a trajectory, not a gate.
 */

#include <chrono>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "eval/table.h"
#include "harness/harness.h"
#include "serve/server.h"
#include "util/string_util.h"
#include "workloads/workloads.h"

using namespace llmulator;

namespace {

struct Query
{
    const workloads::Workload* w;
    const dfir::RuntimeData* data;
    model::Metric metric;
};

/** Every (workload, input variant, metric) combination once. */
std::vector<Query>
buildQueries(const std::vector<workloads::Workload>& ws)
{
    std::vector<Query> qs;
    for (const auto& w : ws) {
        for (int m = 0; m < model::kNumMetrics; ++m) {
            auto metric = static_cast<model::Metric>(m);
            if (metric == model::Metric::Cycles) {
                qs.push_back({&w, &w.canonicalData, metric});
                for (const auto& var : w.variants)
                    qs.push_back({&w, &var, metric});
            } else {
                qs.push_back({&w, nullptr, metric});
            }
        }
    }
    return qs;
}

struct RunResult
{
    double rps = 0;
    double p95Ms = 0;
    double hitRate = 0;
    serve::ServerStats stats; //!< full snapshot, taken before teardown
};

/**
 * Submit `queries` `repeats` times from `clients` threads against a
 * fresh server built on a clone of `base`, then report the measured
 * stats. Async submission floods the queue so the workers (not the
 * clients) are the bottleneck being measured; blocking submission
 * models interactive repeat traffic (a DSE loop re-querying designs),
 * where later rounds should be answered straight from the cache.
 */
RunResult
runConfig(const model::CostModel& base, const serve::ServeConfig& cfg,
          const std::vector<Query>& queries, int repeats, int clients,
          bool blocking)
{
    serve::PredictionServer server(base.clone(), cfg);
    auto t0 = std::chrono::steady_clock::now();

    std::vector<std::thread> pool;
    std::vector<std::vector<std::future<model::NumericPrediction>>>
        futures(clients);
    for (int t = 0; t < clients; ++t) {
        pool.emplace_back([&, t] {
            for (int r = 0; r < repeats; ++r)
                for (size_t i = t; i < queries.size();
                     i += size_t(clients)) {
                    const Query& q = queries[i];
                    if (blocking)
                        server.predict(q.w->graph, q.data, q.metric);
                    else
                        futures[t].push_back(server.submitAsync(
                            q.w->graph, q.data, q.metric));
                }
        });
    }
    for (auto& th : pool)
        th.join();
    for (auto& fs : futures)
        for (auto& f : fs)
            f.get();

    double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    auto stats = server.stats();
    RunResult res;
    res.rps = elapsed <= 0 ? 0 : double(stats.completed) / elapsed;
    res.p95Ms = stats.p95LatencyMs;
    res.hitRate = stats.hitRate();
    res.stats = stats;
    return res;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::parseArgs(argc, argv);
    bool quick = harness::smokeMode();

    // Shared training artifact (same cache key as the rest of the
    // bench suite / the serve_demo smoke test).
    synth::Dataset ds =
        harness::defaultDataset(harness::defaultSynthConfig());
    auto model = harness::trainCostModel(harness::defaultOursConfig(), ds,
                                         harness::defaultTrainConfig(),
                                         "main_ours");

    auto ws = workloads::polybench();
    if (quick)
        ws.resize(4);
    std::vector<Query> queries = buildQueries(ws);
    const int repeats = quick ? 1 : 3;
    const int clients = 4;

    bench::csv("serve_throughput", "hw_threads",
               double(std::thread::hardware_concurrency()));

    // Phase 1 — worker scaling, cache off: every request runs the model.
    eval::Table table({"workers", "req/s", "p95 (ms)", "speedup"});
    double baselineRps = 0;
    for (int workers : {1, 4, 8}) {
        serve::ServeConfig cfg;
        cfg.workers = workers;
        cfg.cacheCapacity = 0;
        RunResult r = runConfig(*model, cfg, queries, repeats, clients,
                                /*blocking=*/false);
        if (workers == 1)
            baselineRps = r.rps;
        double speedup = baselineRps <= 0 ? 0 : r.rps / baselineRps;
        table.addRow({std::to_string(workers),
                      util::format("%.1f", r.rps),
                      util::format("%.2f", r.p95Ms),
                      util::format("%.2fx", speedup)});
        bench::csv("serve_throughput",
                   util::format("rps_w%d", workers).c_str(), r.rps);
        bench::csv("serve_throughput",
                   util::format("p95_ms_w%d", workers).c_str(), r.p95Ms);
        bench::csv("serve_throughput",
                   util::format("queue_wait_p99_ms_w%d", workers).c_str(),
                   r.stats.queueWaitP99Ms);
        if (workers > 1)
            bench::csv("serve_throughput",
                       util::format("speedup_w%d", workers).c_str(),
                       speedup);
        if (workers == 4) {
            // Per-stage share of the summed stage means (assembly and
            // forward per batch, decode and cache fill per key), so the
            // trajectory shows where worker time goes.
            double tot = r.stats.meanAssemblyMs + r.stats.meanForwardMs +
                         r.stats.meanDecodeMs + r.stats.meanCacheFillMs;
            if (tot > 0) {
                bench::csv("serve_throughput", "stage_share_assembly",
                           r.stats.meanAssemblyMs / tot);
                bench::csv("serve_throughput", "stage_share_forward",
                           r.stats.meanForwardMs / tot);
                bench::csv("serve_throughput", "stage_share_decode",
                           r.stats.meanDecodeMs / tot);
                bench::csv("serve_throughput", "stage_share_cache_fill",
                           r.stats.meanCacheFillMs / tot);
            }
        }
    }
    std::printf("== worker scaling (cache disabled) ==\n");
    table.print();

    // Phase 1.5 — request grouping at a fixed worker count: a pop of
    // up to batchMax requests runs one encoder forward per distinct
    // (program, input) and one decode per distinct key, so this sweep
    // measures how much work grouping shares. One timing per cap.
    eval::Table btable({"batchMax", "req/s", "p95 (ms)", "speedup"});
    double batchBaselineRps = 0;
    for (int batchMax : {1, 4, 8}) {
        serve::ServeConfig cfg;
        cfg.workers = 2;
        cfg.batchMax = batchMax;
        cfg.cacheCapacity = 0;
        RunResult r = runConfig(*model, cfg, queries, repeats, clients,
                                /*blocking=*/false);
        if (batchMax == 1)
            batchBaselineRps = r.rps;
        double speedup =
            batchBaselineRps <= 0 ? 0 : r.rps / batchBaselineRps;
        btable.addRow({std::to_string(batchMax),
                       util::format("%.1f", r.rps),
                       util::format("%.2f", r.p95Ms),
                       util::format("%.2fx", speedup)});
        bench::csv("serve_throughput",
                   util::format("rps_b%d", batchMax).c_str(), r.rps);
        bench::csv("serve_throughput",
                   util::format("p95_ms_b%d", batchMax).c_str(), r.p95Ms);
        if (batchMax > 1)
            bench::csv("serve_throughput",
                       util::format("speedup_b%d", batchMax).c_str(),
                       speedup);
    }
    std::printf("== micro-batch scaling (2 workers, cache disabled) ==\n");
    btable.print();

    // Phase 2 — repeat-heavy traffic with the cache on: after the first
    // pass every query is a repeat, so the hit rate climbs toward 1 and
    // throughput decouples from model speed.
    serve::ServeConfig cached;
    cached.workers = 4;
    RunResult r = runConfig(*model, cached, queries, repeats * 3, clients,
                            /*blocking=*/true);
    std::printf("== repeat-heavy mix (cache enabled) ==\n"
                "req/s=%.1f hit_rate=%.1f%%\n",
                r.rps, r.hitRate * 100.0);
    bench::csv("serve_throughput", "cached_rps", r.rps);
    bench::csv("serve_throughput", "cache_hit_rate", r.hitRate);

    // Phase 3 — one instrumented pass, AFTER every timed phase so the
    // pinned rps/p95 rows above never carry telemetry cost: turn the
    // global metrics gate on to count GEMM calls/FLOPs under the
    // serving forward, and snapshot the server's own stage histograms.
    obs::registry().reset();
    obs::setMetricsEnabled(true);
    {
        serve::ServeConfig cfg;
        cfg.workers = 2;
        cfg.cacheCapacity = 0;
        serve::PredictionServer server(model->clone(), cfg);
        for (const Query& q : queries)
            server.predict(q.w->graph, q.data, q.metric);
        server.stop();
        bench::dumpRegistryCsv("serve_throughput", server.telemetry());
    }
    bench::dumpRegistryCsv("serve_throughput", obs::registry(), "nn.");
    obs::setMetricsEnabled(false);
    return 0;
}
