/**
 * @file
 * train: the training workload. harness::trainCostModelUncached of the
 * served model configuration on a fixed synth::synthesize corpus, with
 * nproc trainer threads and the default batch size and shuffle seed,
 * one epoch per call for the run's duration. The same nn layers as
 * serving, used with the tape, backward passes and the optimizer.
 *
 * Its inputs do not depend on --seed: the corpus, the config and the
 * minibatch order are the defaults, so every epoch does the same work
 * and epoch-time spread is the machine's, not the shuffle's (per-sample
 * work is split across threads per minibatch, so the order moves the
 * epoch time by up to ~10%).
 */

#include <cmath>

#include "harness/harness.h"
#include "model/fast_encoder.h"
#include "synth/dataset.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace harness = llmulator::harness;

constexpr int kTrainPrograms = 64;
constexpr int kMinEpochs = 3;
constexpr int kSetupReps = 3;
constexpr size_t kStepProbeSamples = 16;

/** train set-up: corpus synthesis, the model, and pre-encoding. */
struct TrainSetup
{
    llmulator::synth::Dataset ds;
    std::unique_ptr<model::CostModel> model;
    std::vector<model::TrainingEncoding> encs;
    double synthS = 0;  //!< synth::synthesize, with profiler labels
    double encodeS = 0; //!< model::encodeForTraining over the corpus
    double totalS = 0;  //!< all of set-up
};

TrainSetup
setupTrain()
{
    TrainSetup s;
    const auto t0 = Clock::now();
    llmulator::synth::SynthConfig sc;
    sc.numPrograms = kTrainPrograms;
    sc.seed = kCatalogSeed;
    s.ds = llmulator::synth::synthesize(sc);
    const auto t1 = Clock::now();
    s.model = std::make_unique<model::CostModel>(harness::defaultOursConfig());
    const auto t2 = Clock::now();
    s.encs.reserve(s.ds.samples.size());
    for (const auto& smp : s.ds.samples)
        s.encs.push_back(model::encodeForTraining(
            *s.model, smp.graph, smp.hasData ? &smp.data : nullptr,
            smp.reasoning));
    const auto t3 = Clock::now();
    s.synthS = secondsBetween(t0, t1);
    s.encodeS = secondsBetween(t2, t3);
    s.totalS = secondsBetween(t0, t3);
    return s;
}

struct Epoch
{
    Clock::time_point start, end;
    double seconds = 0;
    long samples = 0;
    std::vector<double> loss;
    bool finite = true;
};

/** One trainCostModelUncached call of one epoch on `threads`, training m. */
Epoch
trainEpoch(model::CostModel& m, const TrainSetup& s, int threads)
{
    harness::TrainConfig tc;
    tc.epochs = 1;
    tc.trainThreads = threads;
    Epoch e;
    e.start = Clock::now();
    harness::TrainStats st =
        harness::trainCostModelUncached(m, s.ds, s.encs, tc);
    e.end = Clock::now();
    e.seconds = secondsBetween(e.start, e.end);
    e.samples = st.samples;
    e.loss = st.epochLoss;
    for (double l : st.epochLoss)
        e.finite = e.finite && std::isfinite(l);
    return e;
}

void
count(const Epoch& e, Result& r)
{
    r.attempted += uint64_t(e.samples);
    if (!e.finite)
        r.failed += uint64_t(e.samples);
}

} // namespace

Result
runTrain(const RunConfig& cfg)
{
    // Set-up is repeated before and between the epochs; the median over
    // reps spread across the run is steadier than one sample.
    std::vector<double> setups;
    TrainSetup s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        s = setupTrain();
        setups.push_back(s.totalS);
    }

    Result r;
    std::vector<double> epochMs;
    double samples = 0, seconds = 0;
    const auto start = Clock::now();
    while (int(epochMs.size()) < kMinEpochs ||
           secondsBetween(start, Clock::now()) < cfg.seconds) {
        const Epoch e = trainEpoch(*s.model, s, cfg.threads);
        epochMs.push_back(e.seconds * 1e3);
        samples += double(e.samples);
        seconds += e.seconds;
        count(e, r);
        setups.push_back(setupTrain().totalS);
    }
    r.correct = r.failed == 0;
    std::printf("# train: %zu samples, %zu epochs, samples_per_s=%.3f "
                "fail_frac=%.6f\n",
                s.ds.samples.size(), epochMs.size(), samples / seconds,
                double(r.failed) / double(r.attempted));
    r.add("setup_s", median(setups), "s");
    r.add("p50_ms", quantile(epochMs, 0.50), "ms");
    r.add("p99_ms", quantile(epochMs, 0.99), "ms");
    r.add("ops_per_s", samples / seconds, "1/s");
    r.add("ok_frac", 1.0 - double(r.failed) / double(r.attempted), "ratio");
    r.add("peak_rss_mb", peakRssMb(), "MB");
    return r;
}

Result
traceTrain(const RunConfig& cfg)
{
    TrainSetup s = setupTrain();
    Result r;
    // One thread from the same starting weights: the trainer's
    // determinism contract makes its epoch loss equal, bit for bit.
    std::unique_ptr<model::CostModel> single = s.model->clone();
    std::unique_ptr<model::CostModel> probe = s.model->clone();

    SpanLog log;
    std::vector<Epoch> epochs;
    for (int i = 0; i < 2; ++i) {
        const uint64_t root = log.newId();
        const auto t0 = Clock::now();
        epochs.push_back(trainEpoch(*s.model, s, cfg.threads));
        log.record("harness.trainCostModelUncached", root, uint64_t(i) + 1,
                   epochs.back().start, epochs.back().end);
        log.record(root, "train.epoch", 0, uint64_t(i) + 1, t0, Clock::now());
        count(epochs.back(), r);
    }
    const Epoch one = trainEpoch(*single, s, 1);
    count(one, r);
    r.correct = r.failed == 0 && one.loss == epochs[0].loss;

    // Single-thread forward + backward of one sample.
    const size_t k = std::min(kStepProbeSamples, s.ds.samples.size());
    const auto t0 = Clock::now();
    for (size_t i = 0; i < k; ++i) {
        const model::TrainingEncoding& e = s.encs[i];
        llmulator::nn::TensorPtr loss = probe->lossOnSample(
            e.stat, e.hasDyn ? &e.dyn : nullptr, s.ds.samples[i].targets);
        loss->backward();
        for (const auto& p : probe->parameters())
            p->zeroGrad();
    }
    const double stepS = secondsBetween(t0, Clock::now());

    std::vector<double> epochS;
    double samples = 0;
    for (const Epoch& e : epochs) {
        epochS.push_back(e.seconds);
        samples += double(e.samples);
    }
    const double rate = samples / (epochS[0] + epochS[1]);
    const double oneRate = double(one.samples) / one.seconds;
    r.add("trainer.epoch_s", median(epochS), "s");
    r.add("trainer.sample_step_ms", k ? stepS / double(k) * 1e3 : 0, "ms");
    r.add("trainer.thread_efficiency",
          rate / (double(cfg.threads) * oneRate), "ratio");
    r.add("synth.samples_per_s", double(s.ds.samples.size()) / s.synthS,
          "1/s");
    r.add("model.pre_encode_ms", s.encodeS * 1e3, "ms");
    r.add("train.unattributed_share", unattributedShare(log.spans()),
          "ratio");
    log.writeChromeTrace(cfg.outDir + "/trace_train.json");
    return r;
}

} // namespace perfbench
