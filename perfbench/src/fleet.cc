/**
 * @file
 * fleet_zipf: the online workload. An open-loop generator — Poisson
 * arrivals, as independent fleet devices produce them — sends Zipf
 * (skew 1) popular queries over loopback TCP to a FleetServer whose
 * persistent cache starts empty. Each request is timed from its due
 * time, so a stall also charges the requests queued behind it.
 *
 * Phases: a reference phase at a fixed rate the parent sustains (p50,
 * p99, failures), then a rate ladder on the same, now warm, server
 * that climbs until a step misses the latency limit or builds a
 * growing backlog; the highest passing rate is ops_per_s.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <thread>

#include "dfir/parser.h"
#include "dfir/passes.h"
#include "harness/harness.h"
#include "net/fleet_client.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kZipfSkew = 1.0;
constexpr double kMutantShare = 0.25;
constexpr double kMalformedShare = 0.01;
constexpr size_t kMalformedTexts = 8;
constexpr int kHwPerKernel = 2;
constexpr int kInputsPerDesign = 3;
//! Reference offered rate (requests/s): sustainable at the parent.
constexpr double kRefRate = 20.0;
//! Share of --seconds spent at the reference rate; the ladder follows.
constexpr double kRefShare = 0.7;
//! Latency limit on a ladder step's p99 (ms).
constexpr double kLimitMs = 500.0;
//! Rate ladder: kLadderStart * kLadderFactor^k requests/s.
constexpr double kLadderStart = 7.5;
constexpr double kLadderFactor = 2.0;
constexpr int kLadderSteps = 11;
constexpr double kStepSeconds = 2.5;
//! A phase whose generator overslept its due times by more than this at
//! the median measured the generator, not the system: a reference phase
//! like that makes the run invalid, a ladder step like that ends the
//! ladder. (The median, because one scheduling hiccup is not falling
//! behind; the p99 lateness is reported alongside.)
constexpr double kMaxLateMs = 5.0;
//! Latency charged to a failed or refused request: misses any limit.
constexpr double kMissMs = 1e6;
//! Requests replayed in-process before timing (see warmUp).
constexpr size_t kWarmupRequests = 1000;
constexpr int kSetupReps = 5;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Inputs shared by the timed and traced fleet runs. */
struct FleetInputs
{
    std::vector<Query> corpus;
    std::vector<net::NetRequest> requests;
    std::vector<net::NetRequest> malformed;
    std::vector<double> cdf;
    Oracle oracle;
};

FleetInputs
makeInputs(const RunConfig& cfg)
{
    FleetInputs in;
    in.corpus = fleetCorpus(
        designPool(kCatalogSeed, kHwPerKernel, kInputsPerDesign),
        kMutantShare, kCatalogSeed);
    for (const Query& q : in.corpus)
        in.requests.push_back(toRequest(q));
    for (std::string& text :
         malformedPrograms(in.corpus, kMalformedTexts, kCatalogSeed)) {
        net::NetRequest r;
        r.program = std::move(text);
        in.malformed.push_back(std::move(r));
    }
    in.cdf = zipfCdf(in.corpus.size(), kZipfSkew);
    model::CostModel proto(llmulator::harness::defaultOursConfig());
    in.oracle = Oracle(proto, in.corpus, cfg.threads);
    return in;
}

/**
 * The system's set-up: build the served model, clone it into the
 * shards and start the front-end. Shards x workers stays within the
 * thread budget; the persistent cache file is removed first, so every
 * run starts with an empty cache.
 */
std::unique_ptr<net::FleetServer>
startFleet(const RunConfig& cfg, const std::string& persistPath,
           double* setupS)
{
    std::remove(persistPath.c_str());
    const auto t0 = Clock::now();
    auto m = std::make_unique<model::CostModel>(
        llmulator::harness::defaultOursConfig());
    net::FleetConfig fc;
    fc.shards = 2;
    fc.serve.workers = std::max(1, cfg.threads / fc.shards);
    fc.persistPath = persistPath;
    auto fleet = std::make_unique<net::FleetServer>(std::move(m), fc);
    fleet->start();
    if (setupS)
        *setupS = secondsBetween(t0, Clock::now());
    return fleet;
}

uint64_t
phaseSeed(uint64_t seed, uint64_t phase)
{
    return seed * 1000003ull + phase * 7919ull + 1;
}

/** Say on stderr which answers of a phase were wrong. */
void
reportWrong(const char* phase, const std::vector<Arrival>& sched,
            const std::vector<Sent>& sent, const PhaseStats& st,
            const FleetInputs& in)
{
    for (size_t i : st.wrongRequests) {
        const Arrival& a = sched[i];
        const net::NetResponse& resp = sent[i].resp;
        std::fprintf(stderr,
                     "perfbench: wrong answer in %s: request %zu, %s, "
                     "status %s%s%s, value %ld\n",
                     phase, i,
                     a.malformed ? "malformed program"
                                 : model::metricName(in.corpus[a.entry].metric),
                     net::statusName(resp.status),
                     resp.error.empty() ? "" : ": ", resp.error.c_str(),
                     resp.prediction.value);
    }
}

/**
 * Bring a fresh fleet to the steady state of a long-running one:
 * replay kWarmupRequests draws of the same Zipf law through
 * FleetServer::handle, all due at once, so the caches hold the popular
 * keys and the timed phases see mostly hits plus a steady tail of
 * misses. In-process, so the wire never affects it. Returns the number
 * of wrong answers.
 */
size_t
warmUp(net::FleetServer& fleet, const FleetInputs& in, const RunConfig& cfg,
       std::set<CanonKey>* keys = nullptr)
{
    llmulator::util::Rng rng(phaseSeed(cfg.seed, 99));
    std::vector<Arrival> sched(kWarmupRequests);
    for (Arrival& a : sched) {
        a.entry = zipfRank(in.cdf, rng.uniform());
        if (keys)
            keys->insert(in.oracle.key(a.entry));
    }
    std::vector<Sent> sent = runOpenLoop(sched, in.requests, in.malformed, 0,
                                         &fleet, cfg.threads, nullptr);
    const PhaseStats st = summarize(sched, sent, in.oracle, 0);
    reportWrong("warm-up", sched, sent, st, in);
    return st.wrong;
}

} // namespace

std::vector<Sent>
runOpenLoop(const std::vector<Arrival>& sched,
            const std::vector<net::NetRequest>& requests,
            const std::vector<net::NetRequest>& malformed, int port,
            net::FleetServer* inproc, int threads, SpanLog* log,
            uint64_t requestBase)
{
    threads = std::max(1, threads);
    std::vector<std::unique_ptr<net::FleetClient>> clients;
    for (int t = 0; t < threads; ++t) {
        clients.push_back(std::make_unique<net::FleetClient>());
        if (!inproc)
            clients.back()->connectLoopback(port);
    }

    std::vector<Sent> out(sched.size());
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    for (size_t i = 0; i < sched.size(); ++i)
        out[i].due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(sched[i].dueS));

    std::atomic<size_t> next{0};
    auto worker = [&](net::FleetClient& client) {
        for (;;) {
            const size_t i = next.fetch_add(1);
            if (i >= sched.size())
                return;
            Sent& s = out[i];
            const Arrival& a = sched[i];
            const net::NetRequest& req =
                a.malformed ? malformed[a.entry % malformed.size()]
                            : requests[a.entry];
            s.grab = Clock::now();
            if (s.grab < s.due)
                std::this_thread::sleep_until(s.due);
            s.send = Clock::now();
            if (inproc) {
                s.resp = inproc->handle(req);
                s.transportOk = true;
            } else {
                if (!client.connected())
                    client.connectLoopback(port);
                s.transportOk = client.connected() && client.call(req, s.resp);
                if (!s.transportOk)
                    client.close();
            }
            s.done = Clock::now();
            if (log) {
                const uint64_t root = log->newId();
                const uint64_t rid = requestBase + i;
                if (s.send > s.due)
                    log->record("fleet.backlog", root, rid, s.due, s.send);
                log->record(inproc ? "net.handle" : "net.call", root, rid,
                            s.send, s.done);
                log->record(root, "fleet.request", 0, rid, s.due, s.done);
            }
        }
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t)
        pool.emplace_back(worker, std::ref(*clients[size_t(t)]));
    worker(*clients[0]);
    for (std::thread& th : pool)
        th.join();
    return out;
}

PhaseStats
summarize(const std::vector<Arrival>& sched, const std::vector<Sent>& sent,
          const Oracle& oracle, double phaseSeconds)
{
    PhaseStats st;
    st.requests = sched.size();
    if (sched.empty())
        return st;
    std::vector<double> lat, late;
    const Clock::time_point end =
        sent[0].due +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(phaseSeconds - sched[0].dueS));
    for (size_t i = 0; i < sched.size(); ++i) {
        const Sent& s = sent[i];
        Verdict v = judge(oracle, sched[i].entry, sched[i].malformed,
                          s.transportOk, s.resp);
        if (v != Verdict::Correct)
            ++st.failed;
        if (v == Verdict::Wrong || v == Verdict::BadStatus) {
            ++st.wrong;
            st.wrongRequests.push_back(i);
        }
        if (v == Verdict::Overloaded)
            ++st.overloaded;
        if (v == Verdict::Transport)
            ++st.transport;
        lat.push_back(v == Verdict::Correct ? msBetween(s.due, s.done)
                                            : kMissMs);
        late.push_back(msBetween(std::max(s.due, s.grab), s.send));
        if (s.due <= end && s.send > end)
            ++st.backlogAtEnd;
    }
    st.p50Ms = quantile(lat, 0.50);
    st.p99Ms = quantile(lat, 0.99);
    st.lateP50Ms = quantile(late, 0.50);
    st.lateP99Ms = quantile(late, 0.99);
    return st;
}

Result
runFleetZipf(const RunConfig& cfg)
{
    FleetInputs in = makeInputs(cfg);
    const std::string persistPath = cfg.outDir + "/fleet_cache.bin";

    // Set-up is repeated before the phases and between them, on
    // throwaway fleets; the median over reps spread across the run is
    // steadier than one sample.
    std::vector<double> setups;
    const std::string repPath = cfg.outDir + "/fleet_setup_cache.bin";
    auto setupReps = [&](int reps) {
        for (int i = 0; i < reps; ++i) {
            double s = 0;
            startFleet(cfg, repPath, &s)->stop();
            setups.push_back(s);
        }
        std::remove(repPath.c_str());
    };
    setupReps(kSetupReps);
    auto fleet = startFleet(cfg, persistPath, nullptr);
    const size_t warmWrong = warmUp(*fleet, in, cfg);

    Result r;
    const double refSeconds = cfg.seconds * kRefShare;
    std::vector<Arrival> sched = arrivalSchedule(
        in.cdf, kRefRate, refSeconds, kMalformedShare, phaseSeed(cfg.seed, 0));
    std::vector<Sent> sent = runOpenLoop(sched, in.requests, in.malformed,
                                         fleet->port(), nullptr, cfg.threads,
                                         nullptr);
    PhaseStats ref = summarize(sched, sent, in.oracle, refSeconds);
    reportWrong("reference phase", sched, sent, ref, in);
    r.attempted = ref.requests;
    r.failed = ref.failed;
    r.correct = ref.wrong == 0 && warmWrong == 0;
    std::printf("# fleet_zipf reference: rate=%g/s requests=%zu failed=%zu "
                "fail_frac=%.6f overloaded=%zu transport=%zu p50=%.3fms "
                "p99=%.3fms generator_late_p50=%.3fms "
                "generator_late_p99=%.3fms\n",
                kRefRate, ref.requests, ref.failed,
                ref.requests ? double(ref.failed) / double(ref.requests) : 0,
                ref.overloaded, ref.transport, ref.p50Ms, ref.p99Ms,
                ref.lateP50Ms, ref.lateP99Ms);

    setupReps(kSetupReps);

    double maxRate = 0;
    double rate = kLadderStart;
    for (int k = 0; k < kLadderSteps; ++k, rate *= kLadderFactor) {
        std::vector<Arrival> step =
            arrivalSchedule(in.cdf, rate, kStepSeconds, kMalformedShare,
                            phaseSeed(cfg.seed, uint64_t(k) + 1));
        std::vector<Sent> ss = runOpenLoop(step, in.requests, in.malformed,
                                           fleet->port(), nullptr,
                                           cfg.threads, nullptr);
        PhaseStats st = summarize(step, ss, in.oracle, kStepSeconds);
        reportWrong("ladder", step, ss, st, in);
        r.correct = r.correct && st.wrong == 0;
        const bool behind = st.lateP50Ms > kMaxLateMs;
        const bool pass = !behind && st.p99Ms <= kLimitMs &&
                          st.backlogAtEnd <= size_t(cfg.threads) * 2;
        std::printf("# fleet_zipf ladder: rate=%.1f/s requests=%zu p50=%.3fms "
                    "p99=%.3fms backlog=%zu overloaded=%zu late_p99=%.3fms "
                    "%s\n",
                    rate, st.requests, st.p50Ms, st.p99Ms, st.backlogAtEnd,
                    st.overloaded, st.lateP99Ms,
                    behind ? "stop: the generator fell behind"
                           : pass ? "pass" : "miss");
        setupReps(1);
        if (!pass)
            break;
        maxRate = rate;
    }
    fleet->stop();
    std::remove(persistPath.c_str());

    if (ref.lateP50Ms > kMaxLateMs) {
        std::fprintf(stderr,
                     "perfbench: invalid run: the generator fell behind "
                     "(median lateness %.3f ms > %.1f ms)\n",
                     ref.lateP50Ms, kMaxLateMs);
        std::exit(3);
    }
    r.add("setup_s", median(setups), "s");
    r.add("p50_ms", ref.p50Ms, "ms");
    r.add("p99_ms", ref.p99Ms, "ms");
    std::printf("# fleet_zipf: max_rate_per_s=%g (limit p99 <= %g ms)\n",
                maxRate, kLimitMs);
    r.add("ops_per_s", maxRate, "1/s");
    r.add("ok_frac",
          ref.requests ? 1.0 - double(ref.failed) / double(ref.requests) : 0,
          "ratio");
    r.add("peak_rss_mb", peakRssMb(), "MB");
    return r;
}

Result
traceFleetZipf(const RunConfig& cfg, double seconds)
{
    FleetInputs in = makeInputs(cfg);
    const std::string persistPath = cfg.outDir + "/fleet_cache.bin";
    std::vector<Arrival> sched =
        arrivalSchedule(in.cdf, kRefRate, seconds, kMalformedShare,
                        phaseSeed(cfg.seed, 0));
    Result r;
    r.attempted = 2 * sched.size();

    // Over the wire, at the reference rate.
    auto fleet = startFleet(cfg, persistPath, nullptr);
    std::set<CanonKey> warmKeys;
    size_t warmWrong = warmUp(*fleet, in, cfg, &warmKeys);
    const net::FleetStats before = fleet->stats();
    const int64_t phaseStartNs = llmulator::obs::traceNowNs();
    SpanLog wire;
    std::vector<Sent> sent = runOpenLoop(sched, in.requests, in.malformed,
                                         fleet->port(), nullptr, cfg.threads,
                                         &wire);
    PhaseStats ps = summarize(sched, sent, in.oracle, seconds);
    reportWrong("reference phase", sched, sent, ps, in);
    const net::FleetStats after = fleet->stats();
    // Queue waits of this phase, from the shards' own trace spans.
    std::vector<double> queueWaitMs;
    for (const llmulator::obs::SpanEvent& e : llmulator::obs::collectSpans())
        if (std::string(e.name) == "serve.queue_wait" &&
            e.startNs >= phaseStartNs)
            queueWaitMs.push_back(double(e.durNs) / 1e6);
    fleet->stop();

    // The same request stream, in-process through FleetServer::handle.
    auto local = startFleet(cfg, persistPath, nullptr);
    warmWrong += warmUp(*local, in, cfg);
    SpanLog handle;
    std::vector<Sent> sentLocal = runOpenLoop(
        sched, in.requests, in.malformed, 0, local.get(), cfg.threads, &handle);
    PhaseStats psLocal = summarize(sched, sentLocal, in.oracle, seconds);
    reportWrong("in-process replay", sched, sentLocal, psLocal, in);
    local->stop();
    std::remove(persistPath.c_str());
    r.failed = ps.failed + psLocal.failed;
    r.correct = ps.wrong == 0 && psLocal.wrong == 0 && warmWrong == 0;

    // Per-request cost of the codec, parse and canonicalization on the
    // same stream, timed around the benchmark's own calls.
    std::set<CanonKey> allKeys = warmKeys;
    double codecS = 0, parseS = 0, canonS = 0;
    for (const Arrival& a : sched) {
        const net::NetRequest& req =
            a.malformed ? in.malformed[a.entry % in.malformed.size()]
                        : in.requests[a.entry];
        if (!a.malformed)
            allKeys.insert(in.oracle.key(a.entry));
        auto t0 = Clock::now();
        net::NetRequest decoded;
        bool ok = net::decodeRequest(net::encodeRequest(req), decoded);
        auto t1 = Clock::now();
        dfir::ParseResult parsed = dfir::parseProgram(decoded.program);
        auto t2 = Clock::now();
        if (parsed.ok)
            dfir::canonicalizeEx(parsed.graph);
        auto t3 = Clock::now();
        r.correct = r.correct && ok && parsed.ok != a.malformed;
        codecS += secondsBetween(t0, t1);
        parseS += secondsBetween(t1, t2);
        canonS += secondsBetween(t2, t3);
    }
    const double n = double(std::max<size_t>(1, sched.size()));

    const std::vector<Span> spans = wire.spans();
    const std::vector<double> rtt = durationsMs(spans, "net.call");
    const std::vector<double> handleMs =
        durationsMs(handle.spans(), "net.handle");
    const double handleP99 = quantile(handleMs, 0.99);
    r.add("net.rtt_p50_ms", quantile(rtt, 0.50), "ms");
    r.add("net.rtt_p99_ms", quantile(rtt, 0.99), "ms");
    r.add("net.handle_p50_ms", quantile(handleMs, 0.50), "ms");
    r.add("net.handle_p99_ms", handleP99, "ms");
    r.add("net.wire_p99_ratio",
          handleP99 > 0 ? quantile(rtt, 0.99) / handleP99 : 0, "ratio");
    r.add("net.codec_us", codecS / n * 1e6, "us");
    // Front-end and shard counters over the wire phase only.
    auto delta = [](uint64_t a, uint64_t b) { return double(b - a); };
    auto share = [](double num, double den) { return den > 0 ? num / den : 0; };
    const double ok = delta(before.ok, after.ok);
    r.add("net.persist_hit_rate",
          share(delta(before.persistHits, after.persistHits),
                delta(before.persistLookups, after.persistLookups)),
          "ratio");
    r.add("net.overload_frac",
          share(delta(before.overloaded, after.overloaded),
                delta(before.requests, after.requests)),
          "ratio");
    r.add("net.generator_late_p99_ms", ps.lateP99Ms, "ms");
    r.add("dfir.parse_us", parseS / n * 1e6, "us");
    r.add("dfir.canonicalize_us", canonS / n * 1e6, "us");
    r.add("serve.hit_rate",
          share(delta(before.persistHits + before.shardCacheHits,
                      after.persistHits + after.shardCacheHits),
                ok),
          "ratio");
    // Over the warm-up burst and the phase: the burst is where
    // concurrent misses on one key happen.
    r.add("serve.model_calls_per_unique_key",
          share(double(after.shardModelCalls), double(allKeys.size())),
          "ratio");
    r.add("serve.queue_wait_p99_ms", quantile(queueWaitMs, 0.99), "ms");
    r.add("fleet_zipf.unattributed_share", unattributedShare(spans), "ratio");
    wire.writeChromeTrace(cfg.outDir + "/trace_fleet_zipf.json");
    handle.writeChromeTrace(cfg.outDir + "/trace_fleet_zipf_inproc.json");
    return r;
}

} // namespace perfbench
