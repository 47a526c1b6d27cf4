/**
 * @file
 * dse_sweep: the offline workload. One thread submits every query of
 * a sweep — every design (kernel x hardware configuration) with one
 * input, each asking for all four metrics — to a PredictionServer with
 * its result cache off, then waits for every answer in submission
 * order. Every request runs the model, so the time goes to encoding,
 * the encoder forward, micro-batching and decoding; the net layer is
 * not used. Sweeps repeat over the same set for the run's duration,
 * each in its own seeded order.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <future>

#include "harness/harness.h"
#include "model/fast_encoder.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace serve = llmulator::serve;

constexpr int kHwPerKernel = 4;
constexpr int kInputsPerDesign = 3;
constexpr int kMinSweeps = 3;
constexpr int kSetupReps = 5;
constexpr size_t kForwardBatch = 8;

std::vector<Query>
dseQueries()
{
    return sweepQueries(
        designPool(kCatalogSeed, kHwPerKernel, kInputsPerDesign));
}

/** The system's set-up: build the served model and start the server. */
std::unique_ptr<serve::PredictionServer>
startServer(const RunConfig& cfg, double* setupS)
{
    const auto t0 = Clock::now();
    auto m = std::make_unique<model::CostModel>(
        llmulator::harness::defaultOursConfig());
    serve::ServeConfig sc;
    sc.workers = cfg.threads;
    sc.cacheCapacity = 0;
    auto server = std::make_unique<serve::PredictionServer>(std::move(m), sc);
    if (setupS)
        *setupS = secondsBetween(t0, Clock::now());
    return server;
}

/** Totals over a series of sweeps. */
struct Sweeps
{
    size_t count = 0;
    double predictions = 0;
    double seconds = 0;
    std::vector<double> latMs; //!< submit -> answer, per prediction

    double rate() const { return seconds > 0 ? predictions / seconds : 0; }
};

/**
 * One sweep: every query submitted in `order` (indices into
 * `queries`), then every answer awaited in the same order and checked.
 */
void
runSweep(serve::PredictionServer& server, const std::vector<Query>& queries,
         const std::vector<size_t>& order, const Oracle& oracle, SpanLog* log,
         uint64_t requestBase, Sweeps& out, Result& r)
{
    std::vector<std::future<model::NumericPrediction>> futures;
    std::vector<Clock::time_point> submitted;
    futures.reserve(order.size());
    submitted.reserve(order.size());
    const uint64_t root = log ? log->newId() : 0;
    const auto t0 = Clock::now();
    for (size_t qi : order) {
        const Query& q = queries[qi];
        submitted.push_back(Clock::now());
        futures.push_back(server.submitAsync(
            q.graph, q.hasData ? &q.data : nullptr, q.metric));
        if (log)
            log->record("serve.submitAsync", root,
                        requestBase + futures.size() - 1, submitted.back(),
                        Clock::now());
    }
    for (size_t i = 0; i < futures.size(); ++i) {
        const auto w0 = Clock::now();
        bool ok = false;
        try {
            ok = oracle.accepts(order[i], futures[i].get());
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: sweep query %zu failed: %s\n",
                         order[i], e.what());
        }
        if (!ok)
            std::fprintf(stderr,
                         "perfbench: wrong answer to sweep query %zu (%s)\n",
                         order[i],
                         model::metricName(queries[order[i]].metric));
        const auto done = Clock::now();
        if (log)
            log->record("serve.wait", root, requestBase + i, w0, done);
        out.latMs.push_back(
            std::chrono::duration<double, std::milli>(done - submitted[i])
                .count());
        if (!ok)
            ++r.failed;
    }
    const auto t1 = Clock::now();
    if (log)
        log->record(root, "dse.sweep", 0, requestBase, t0, t1);
    ++out.count;
    out.predictions += double(order.size());
    out.seconds += secondsBetween(t0, t1);
    r.attempted += order.size();
}

/**
 * Sweeps for about `seconds` (at least kMinSweeps), each in its own
 * order drawn from `seed`; `afterSweep` runs between sweeps.
 */
Sweeps
sweepFor(serve::PredictionServer& server, const std::vector<Query>& queries,
         const Oracle& oracle, uint64_t seed, double seconds, SpanLog* log,
         Result& r, const std::function<void()>& afterSweep = {})
{
    Sweeps out;
    const auto start = Clock::now();
    while (out.count < size_t(kMinSweeps) ||
           secondsBetween(start, Clock::now()) < seconds) {
        runSweep(server, queries,
                 sweepOrder(queries.size() / 4,
                            seed * 1000003ull + r.attempted),
                 oracle, log, r.attempted + 1, out, r);
        if (afterSweep)
            afterSweep();
    }
    return out;
}

/** GEMM FLOPs the nn.*.flops counters have seen so far. */
double
backendFlops()
{
    double total = 0;
    for (const auto& row : llmulator::obs::registry().rows("nn."))
        if (row.name.size() > 6 &&
            row.name.compare(row.name.size() - 6, 6, ".flops") == 0)
            total += row.value;
    return total;
}

/**
 * FLOPs of one encoder forward over n tokens, from tensor sizes: per
 * layer the Q/K/V/output projections (4 x 2nd^2), attention scores and
 * the weighted sum (2 x 2n^2 d), and the two FFN projections
 * (2 x 2ndf).
 */
double
forwardFlops(const llmulator::nn::EncoderConfig& e, int n)
{
    const double d = e.dim, f = e.ffn, t = n;
    return e.layers * (8.0 * t * d * d + 4.0 * t * t * d + 4.0 * t * d * f);
}

} // namespace

Result
runDseSweep(const RunConfig& cfg)
{
    std::vector<Query> queries = dseQueries();
    model::CostModel proto(llmulator::harness::defaultOursConfig());
    Oracle oracle(proto, queries, cfg.threads);

    // Set-up is repeated on throwaway servers before and between the
    // sweeps; the median over reps spread across the run is steadier
    // than one sample.
    std::vector<double> setups;
    auto setupRep = [&] {
        double s = 0;
        startServer(cfg, &s);
        setups.push_back(s);
    };
    for (int rep = 0; rep < kSetupReps; ++rep)
        setupRep();
    auto server = startServer(cfg, nullptr);

    Result r;
    const Sweeps sw = sweepFor(*server, queries, oracle, cfg.seed,
                               cfg.seconds, nullptr, r, setupRep);
    r.correct = r.failed == 0;
    std::printf("# dse_sweep: %zu predictions per sweep, %zu sweeps, "
                "preds_per_s=%.3f fail_frac=%.6f\n",
                queries.size(), sw.count, sw.rate(),
                double(r.failed) / double(r.attempted));
    r.add("setup_s", median(setups), "s");
    r.add("p50_ms", quantile(sw.latMs, 0.50), "ms");
    r.add("p99_ms", quantile(sw.latMs, 0.99), "ms");
    r.add("ops_per_s", sw.rate(), "1/s");
    r.add("ok_frac", 1.0 - double(r.failed) / double(r.attempted), "ratio");
    r.add("peak_rss_mb", peakRssMb(), "MB");
    return r;
}

Result
traceDseSweep(const RunConfig& cfg, double seconds)
{
    namespace obs = llmulator::obs;
    std::vector<Query> queries = dseQueries();
    model::CostModel proto(llmulator::harness::defaultOursConfig());
    Oracle oracle(proto, queries, cfg.threads);
    auto server = startServer(cfg, nullptr);

    // The same sweeps untraced, then traced: their rate ratio is the
    // tracing overhead.
    Result r;
    obs::setMetricsEnabled(false);
    obs::setTraceEnabled(false);
    const Sweeps plain =
        sweepFor(*server, queries, oracle, cfg.seed, seconds / 2, nullptr, r);
    obs::setMetricsEnabled(true);
    obs::setTraceEnabled(true);
    SpanLog log;
    const Sweeps traced =
        sweepFor(*server, queries, oracle, cfg.seed, seconds / 2, &log, r);
    const double meanBatch = server->stats().meanBatch;
    server.reset();
    r.correct = r.failed == 0;

    // Model-layer probes on the sweep's queries, one thread.
    llmulator::model::InferenceSession session(proto);
    std::vector<model::EncodedProgram> eps;
    std::vector<double> tokens;
    auto t0 = Clock::now();
    for (const Query& q : queries)
        eps.push_back(proto.encode(q.graph, q.hasData ? &q.data : nullptr));
    const double encodeS = secondsBetween(t0, Clock::now());
    double flopsComputed = 0;
    for (const auto& ep : eps) {
        tokens.push_back(ep.length());
        flopsComputed += forwardFlops(proto.config().enc, ep.length());
    }
    std::vector<llmulator::nn::TensorPtr> pooled;
    const double flops0 = backendFlops();
    t0 = Clock::now();
    for (const auto& ep : eps)
        pooled.push_back(session.pooled(ep, false));
    const double b1S = secondsBetween(t0, Clock::now());
    const double flopsSeen = backendFlops() - flops0;
    size_t b8Rows = 0;
    t0 = Clock::now();
    for (size_t i = 0; i + kForwardBatch <= eps.size(); i += kForwardBatch) {
        std::vector<const model::EncodedProgram*> batch;
        for (size_t j = i; j < i + kForwardBatch; ++j)
            batch.push_back(&eps[j]);
        session.forwardPooledBatch(batch);
        b8Rows += kForwardBatch;
    }
    const double b8S = secondsBetween(t0, Clock::now());
    t0 = Clock::now();
    for (size_t i = 0; i < queries.size(); ++i)
        proto.head(queries[i].metric).decode(pooled[i]);
    const double decodeS = secondsBetween(t0, Clock::now());
    const double n = double(std::max<size_t>(1, queries.size()));

    r.add("serve.mean_batch", meanBatch, "count");
    r.add("model.tokens_mean", mean(tokens), "count");
    r.add("model.encode_us", encodeS / n * 1e6, "us");
    r.add("model.forward_b1_ms", b1S / n * 1e3, "ms");
    r.add("model.forward_b8_ms_per_row",
          b8Rows ? b8S / double(b8Rows) * 1e3 : 0, "ms");
    r.add("model.decode_ms", decodeS / n * 1e3, "ms");
    r.add("nn.backend_flop_share",
          flopsComputed > 0 ? flopsSeen / flopsComputed : 0, "ratio");
    r.add("dse_sweep.unattributed_share", unattributedShare(log.spans()),
          "ratio");
    r.add("trace_overhead", plain.rate() / traced.rate(), "ratio");
    log.writeChromeTrace(cfg.outDir + "/trace_dse_sweep.json");
    return r;
}

} // namespace perfbench
