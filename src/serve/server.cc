#include "serve/server.h"

#include <algorithm>
#include <stdexcept>

#include "dfir/ir.h"
#include "dfir/passes.h"
#include "obs/trace.h"
#include "util/common.h"
#include "util/string_util.h"

namespace llmulator {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Clamp degenerate knobs so config() reports the effective values. */
ServeConfig
normalized(ServeConfig cfg)
{
    cfg.workers = std::max(1, cfg.workers);
    cfg.batchMax = std::max(1, cfg.batchMax);
    cfg.queueCapacity = std::max<size_t>(1, cfg.queueCapacity);
    cfg.cacheShards = std::max<size_t>(1, cfg.cacheShards);
    // Admission limits: 0 = auto (High: full capacity, Normal: 3/4,
    // Low: 1/2, each at least one slot); explicit values clamp to the
    // capacity so config() reports what is actually enforced.
    const size_t cap = cfg.queueCapacity;
    const size_t autoDepth[kNumPriorities] = {
        cap, std::max<size_t>(1, cap * 3 / 4), std::max<size_t>(1, cap / 2)};
    for (int k = 0; k < kNumPriorities; ++k) {
        if (cfg.admitDepth[size_t(k)] == 0)
            cfg.admitDepth[size_t(k)] = autoDepth[k];
        cfg.admitDepth[size_t(k)] = std::min(cfg.admitDepth[size_t(k)], cap);
    }
    return cfg;
}

} // namespace

PredictionServer::PredictionServer(std::unique_ptr<model::CostModel> model,
                                   const ServeConfig& cfg)
    : cfg_(normalized(cfg)),
      model_(std::move(model)),
      cache_(cfg_.cacheCapacity, cfg_.cacheShards),
      queue_(cfg_.queueCapacity),
      startTime_(Clock::now()),
      e2eMs_(telemetry_.histogram("serve.e2e_ms")),
      queueWaitMs_(telemetry_.histogram("serve.queue_wait_ms")),
      assemblyMs_(telemetry_.histogram("serve.stage.assembly_ms")),
      forwardMs_(telemetry_.histogram("serve.stage.forward_ms")),
      decodeMs_(telemetry_.histogram("serve.stage.decode_ms")),
      cacheFillMs_(telemetry_.histogram("serve.stage.cache_fill_ms")),
      swapCount_(telemetry_.counter("calib.swaps")),
      rejectedCount_(telemetry_.counter("serve.rejected"))
{
    for (int k = 0; k < kNumPriorities; ++k)
        shedCount_[size_t(k)] = &telemetry_.counter(
            util::format("serve.shed_p%d", k));
    LLM_CHECK(model_ != nullptr, "PredictionServer needs a model");
    version_.store(model_->version(), std::memory_order_release);
    if (cfg_.calibration.enabled) {
        calib_ = std::make_unique<CalibrationManager>(
            cfg_.calibration, [this] { return modelSnapshot(); },
            [this](std::unique_ptr<model::CostModel> next) {
                swapModel(std::move(next));
            },
            telemetry_);
        calib_->start();
    }
    workers_.reserve(cfg_.workers);
    for (int i = 0; i < cfg_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

PredictionServer::~PredictionServer()
{
    stop();
}

void
PredictionServer::prepareRequest(Request& req, const dfir::DataflowGraph& g,
                                 const dfir::RuntimeData* data,
                                 model::Metric metric)
{
    req.id = reqSeq_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (cfg_.canonicalCacheKeys) {
        // Canonical keys: equivalent programs (renamed values, commuted
        // operands, dead code) collide on one entry. The input hash is
        // taken after renaming the caller's scalars into the canonical
        // namespace so it matches across renamed variants too.
        dfir::CanonResult canon = dfir::canonicalizeEx(g);
        req.key.program = dfir::structuralHash(canon.graph);
        req.key.input =
            data ? hashRuntimeData(
                       dfir::remapRuntimeData(*data, canon.scalarRenames))
                 : 0;
    } else {
        req.key.program = dfir::structuralHash(g);
        req.key.input = data ? hashRuntimeData(*data) : 0;
    }
    req.key.metric = static_cast<int>(metric);
    // Stamped with the version current at probe time; workers restamp
    // from their acquired snapshot before computing, so every cache
    // entry is labeled with the exact weights that produced it.
    req.key.version = version_.load(std::memory_order_acquire);
    req.metric = metric;
    req.submitTime = Clock::now();
}

std::future<model::NumericPrediction>
PredictionServer::submitAsync(const dfir::DataflowGraph& g,
                              const dfir::RuntimeData* data,
                              model::Metric metric)
{
    Request req;
    prepareRequest(req, g, data, metric);
    auto future = req.promise.get_future();

    if (stopped_.load(std::memory_order_acquire)) {
        req.promise.set_exception(std::make_exception_ptr(
            std::runtime_error("PredictionServer is stopped")));
        return future;
    }

    // Fast path: answer repeats without queueing or touching the model.
    model::NumericPrediction cached;
    if (cache_.get(req.key, cached)) {
        submitted_.fetch_add(1, std::memory_order_relaxed);
        cacheHits_.fetch_add(1, std::memory_order_relaxed);
        fulfil(req, cached);
        return future;
    }

    req.graph = g;
    if (data) {
        req.data = *data;
        req.hasData = true;
    }
    if (queue_.push(std::move(req))) {
        // Counted only once accepted, so submitted == completed holds
        // after a drain even when a submit races stop().
        submitted_.fetch_add(1, std::memory_order_relaxed);
    } else {
        // Lost the race with stop(): the request was never accepted.
        req.promise.set_exception(std::make_exception_ptr(
            std::runtime_error("PredictionServer is stopped")));
    }
    return future;
}

model::NumericPrediction
PredictionServer::predict(const dfir::DataflowGraph& g,
                          const dfir::RuntimeData* data, model::Metric metric)
{
    return submitAsync(g, data, metric).get();
}

Admission
PredictionServer::submitIfAdmitted(const dfir::DataflowGraph& g,
                                   const dfir::RuntimeData* data,
                                   model::Metric metric, Priority priority)
{
    Admission adm;
    Request req;
    prepareRequest(req, g, data, metric);

    if (stopped_.load(std::memory_order_acquire)) {
        rejectedCount_.add(1);
        adm.status = AdmitStatus::Rejected;
        return adm;
    }

    // Cache hits bypass the queue entirely, so they are admitted even
    // under full load — answering a repeat costs no model work.
    model::NumericPrediction cached;
    if (cache_.get(req.key, cached)) {
        adm.future = req.promise.get_future();
        submitted_.fetch_add(1, std::memory_order_relaxed);
        cacheHits_.fetch_add(1, std::memory_order_relaxed);
        fulfil(req, cached);
        adm.status = AdmitStatus::Accepted;
        return adm;
    }

    // Shed when the backlog already reached this class's depth limit.
    // The depth read and the push are not atomic together; the race
    // only lets an occasional request through one slot early or late,
    // which is fine for load-shedding.
    const size_t k = static_cast<size_t>(priority);
    if (queue_.depth() >= cfg_.admitDepth[k]) {
        shedCount_[k]->add(1);
        adm.status = AdmitStatus::Shed;
        return adm;
    }

    req.graph = g;
    if (data) {
        req.data = *data;
        req.hasData = true;
    }
    adm.future = req.promise.get_future();
    if (queue_.tryPush(std::move(req), priority)) {
        submitted_.fetch_add(1, std::memory_order_relaxed);
        adm.status = AdmitStatus::Accepted;
    } else {
        // Lost the race for the last slot (or a concurrent stop()).
        rejectedCount_.add(1);
        adm.status = AdmitStatus::Rejected;
        adm.future = std::future<model::NumericPrediction>();
    }
    return adm;
}

void
PredictionServer::workerLoop()
{
    // One autograd-free inference session per worker: sessions carry
    // mutable state (stats, prefix cache) and so are thread-confined,
    // while the underlying model is shared read-only. The model is an
    // RCU snapshot acquired once per micro-batch — the whole batch is
    // answered by ONE coherent weight generation even if a hot-swap
    // lands mid-batch — and the session is rebuilt when the snapshot
    // changes (it holds a reference into the old model).
    std::shared_ptr<const model::CostModel> snap = modelSnapshot();
    auto session = std::make_unique<model::InferenceSession>(*snap);
    std::vector<Request> batch;
    while (queue_.popBatch(batch, static_cast<size_t>(cfg_.batchMax),
                           std::chrono::microseconds(cfg_.batchTimeoutUs))) {
        std::shared_ptr<const model::CostModel> cur = modelSnapshot();
        if (cur != snap) {
            snap = std::move(cur);
            session = std::make_unique<model::InferenceSession>(*snap);
        }
        processBatch(batch, *session, *snap);
    }
}

void
PredictionServer::processBatch(std::vector<Request>& batch,
                               model::InferenceSession& session,
                               const model::CostModel& m)
{
    const uint64_t batchId =
        batches_.fetch_add(1, std::memory_order_relaxed) + 1;
    dispatched_.fetch_add(batch.size(), std::memory_order_relaxed);

    // Stage boundaries are stamped so every queue-dispatched request's
    // end-to-end span strictly contains its queue-wait, the batch's
    // forwards, and its key's decode as disjoint sub-intervals (pinned
    // by test_serve): decode and cache fill are timed BEFORE the key's
    // fulfil calls run.
    const auto batchStart = Clock::now();
    OBS_SPAN_ID("serve.batch", batchId);

    // Queue wait per member: submit -> micro-batch start. The span is
    // retroactive because the interval started on the client's thread.
    for (Request& req : batch) {
        queueWaitMs_.record(msBetween(req.submitTime, batchStart));
        if (obs::traceEnabled())
            obs::recordSpan("serve.queue_wait", req.submitTime, batchStart,
                            req.id);
    }

    // Group cache misses by (program, input): those requests share one
    // tokenization + encoder forward, the dominant per-request cost, so
    // a group is encoded when its first request arrives.
    // Within a group, requests for the same key share one head decode.
    struct Group
    {
        uint64_t program;
        uint64_t input;
        std::vector<std::vector<Request*>> byKey; //!< one list per key
        model::EncodedProgram ep;
        nn::TensorPtr pooled;
    };
    std::vector<Group> groups;

    model::NumericPrediction cached;
    for (Request& req : batch) {
        // Restamp with the acquired snapshot's version: a request
        // submitted before a hot-swap but processed after it must probe
        // and fill the NEW version's cache entries, never the retired
        // one's.
        req.key.version = m.version();
        // A sibling batch may have finished this key since submission.
        if (cache_.get(req.key, cached)) {
            cacheHits_.fetch_add(1, std::memory_order_relaxed);
            fulfil(req, cached);
            continue;
        }
        if (cache_.enabled())
            cacheMisses_.fetch_add(1, std::memory_order_relaxed);
        auto it = std::find_if(groups.begin(), groups.end(), [&](Group& g) {
            return g.program == req.key.program && g.input == req.key.input;
        });
        if (it == groups.end()) {
            groups.push_back(
                {req.key.program, req.key.input, {},
                 m.encode(req.graph, req.hasData ? &req.data : nullptr), {}});
            it = groups.end() - 1;
        }
        auto kit = std::find_if(
            it->byKey.begin(), it->byKey.end(),
            [&](const std::vector<Request*>& k) {
                return k.front()->key == req.key;
            });
        if (kit == it->byKey.end())
            it->byKey.push_back({&req});
        else
            kit->push_back(&req);
    }

    if (groups.empty())
        return;

    // Assembly stage: cache probe + grouping + tokenize/encode.
    const auto assemblyEnd = Clock::now();
    assemblyMs_.record(msBetween(batchStart, assemblyEnd));
    if (obs::traceEnabled())
        obs::recordSpan("serve.batch_assembly", batchStart, assemblyEnd,
                        batchId);

    // One autograd-free encoder forward per group. The prefix-reuse
    // cache stays off: its documented Class-I approximation would make
    // results depend on request order, so pooled(ep, false) keeps every
    // served answer equal to that encoding's uncached forward.
    for (Group& group : groups)
        group.pooled = session.pooled(group.ep, /*use_cache=*/false);

    const auto forwardEnd = Clock::now();
    forwardMs_.record(msBetween(assemblyEnd, forwardEnd));
    if (obs::traceEnabled())
        obs::recordSpan("serve.forward", assemblyEnd, forwardEnd, batchId);

    // One decode per distinct key, then its cache fill, then its
    // requests' fulfils; duplicate requests reuse the fresh prediction.
    for (Group& group : groups) {
        for (const std::vector<Request*>& requests : group.byKey) {
            const ResultKey& key = requests.front()->key;
            const auto decodeStart = Clock::now();
            const model::NumericPrediction pred =
                m.head(static_cast<model::Metric>(key.metric))
                    .decode(group.pooled, cfg_.beamWidth);
            modelCalls_.fetch_add(1, std::memory_order_relaxed);

            const auto decodeEnd = Clock::now();
            decodeMs_.record(msBetween(decodeStart, decodeEnd));
            if (obs::traceEnabled())
                obs::recordSpan("serve.decode", decodeStart, decodeEnd,
                                batchId);

            cache_.put(key, pred);
            const auto fillEnd = Clock::now();
            cacheFillMs_.record(msBetween(decodeEnd, fillEnd));
            if (obs::traceEnabled())
                obs::recordSpan("serve.cache_fill", decodeEnd, fillEnd,
                                batchId);

            for (Request* rp : requests) {
                fulfil(*rp, pred);
                // Shadow stream: offer freshly computed dynamic-cycles
                // answers for background profiling (fulfil() only
                // consumes the promise; the graph/data stay owned by
                // the batch until processBatch returns).
                if (calib_ && rp->hasData &&
                    rp->metric == model::Metric::Cycles)
                    calib_->offer(rp->graph, rp->data, pred.value);
            }
        }
    }
}

void
PredictionServer::fulfil(Request& req, const model::NumericPrediction& pred)
{
    const auto now = Clock::now();
    e2eMs_.record(msBetween(req.submitTime, now));
    if (obs::traceEnabled())
        obs::recordSpan("serve.request", req.submitTime, now, req.id);
    completed_.fetch_add(1, std::memory_order_relaxed);
    req.promise.set_value(pred);
}

void
PredictionServer::stop()
{
    if (stopped_.exchange(true, std::memory_order_acq_rel))
        return;
    queue_.close(); // workers drain the backlog, then exit
    for (std::thread& w : workers_)
        if (w.joinable())
            w.join();
    // Workers no longer offer shadow samples; now the calibration
    // thread can be stopped (it may still complete an in-flight round
    // and swap — harmless, nothing serves anymore).
    if (calib_)
        calib_->stop();
}

std::shared_ptr<const model::CostModel>
PredictionServer::modelSnapshot() const
{
    std::lock_guard<std::mutex> lk(modelMu_);
    return model_;
}

void
PredictionServer::swapModel(std::unique_ptr<model::CostModel> next)
{
    LLM_CHECK(next != nullptr, "swapModel() needs a model");
    OBS_SPAN("calib.swap");
    std::shared_ptr<const model::CostModel> retired;
    {
        std::lock_guard<std::mutex> lk(modelMu_);
        const uint64_t v = version_.load(std::memory_order_relaxed) + 1;
        next->setVersion(v);
        retired = std::move(model_);
        model_ = std::shared_ptr<const model::CostModel>(std::move(next));
        version_.store(v, std::memory_order_release);
    }
    swaps_.fetch_add(1, std::memory_order_relaxed);
    swapCount_.add(1);
    // `retired` drops here, outside the lock: workers mid-batch still
    // hold their snapshot, so the old weights die with the last batch.
}

bool
PredictionServer::forceCalibrationRound()
{
    return calib_ ? calib_->runRoundNow() : false;
}

ServerStats
PredictionServer::stats() const
{
    ServerStats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.cacheHits = cacheHits_.load(std::memory_order_relaxed);
    s.cacheMisses = cacheMisses_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.modelCalls = modelCalls_.load(std::memory_order_relaxed);
    s.rejected = rejectedCount_.total();
    for (int k = 0; k < kNumPriorities; ++k)
        s.shed[size_t(k)] = shedCount_[size_t(k)]->total();
    uint64_t dispatched = dispatched_.load(std::memory_order_relaxed);
    s.meanBatch =
        s.batches == 0 ? 0.0 : double(dispatched) / double(s.batches);
    s.queueDepth = queue_.depth();

    obs::HistogramSnapshot e2e = e2eMs_.snapshot();
    s.p50LatencyMs = e2e.quantile(0.50);
    s.p95LatencyMs = e2e.quantile(0.95);
    s.p99LatencyMs = e2e.quantile(0.99);
    obs::HistogramSnapshot qw = queueWaitMs_.snapshot();
    s.meanQueueWaitMs = qw.mean();
    s.queueWaitP99Ms = qw.quantile(0.99);
    s.meanAssemblyMs = assemblyMs_.snapshot().mean();
    s.meanForwardMs = forwardMs_.snapshot().mean();
    s.meanDecodeMs = decodeMs_.snapshot().mean();
    s.meanCacheFillMs = cacheFillMs_.snapshot().mean();

    s.modelVersion = version_.load(std::memory_order_acquire);
    s.calibSwaps = swaps_.load(std::memory_order_relaxed);
    if (calib_) {
        CalibrationStats cs = calib_->stats();
        s.shadowProfiled = cs.profiled;
        s.driftScore = cs.driftScore;
        s.meanAbsResidual = cs.meanAbsResidual;
    }

    double elapsed = std::chrono::duration<double>(
                         Clock::now() - startTime_)
                         .count();
    s.throughputRps = elapsed <= 0 ? 0.0 : double(s.completed) / elapsed;
    return s;
}

} // namespace serve
} // namespace llmulator
