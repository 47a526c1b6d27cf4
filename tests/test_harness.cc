/**
 * @file
 * Harness integration tests: end-to-end training on a small corpus, the
 * model cache round trip, evaluation plumbing and the metric helpers.
 * Model scale and dataset size are minimized to keep the suite fast.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "eval/model_cache.h"
#include "eval/table.h"
#include "harness/harness.h"

namespace {

using namespace llmulator;

/** Tiny corpus + tiny model shared by the tests below. */
synth::Dataset
tinyDataset()
{
    synth::SynthConfig cfg;
    cfg.numPrograms = 14;
    cfg.seed = 77;
    return synth::synthesize(cfg);
}

model::CostModelConfig
tinyModelConfig()
{
    auto cfg = model::configForScale(model::ModelScale::Tiny);
    cfg.enc.maxSeq = 192;
    return cfg;
}

harness::TrainConfig
tinyTrain()
{
    harness::TrainConfig t;
    t.epochs = 1;
    return t;
}

TEST(Harness, TrainCostModelRunsAndCaches)
{
    setenv("LLMULATOR_CACHE_DIR", "/tmp/llmulator_test_cache", 1);
    std::system("rm -rf /tmp/llmulator_test_cache");

    auto ds = tinyDataset();
    auto m1 = harness::trainCostModel(tinyModelConfig(), ds, tinyTrain(),
                                      "ht_ours");
    ASSERT_NE(m1, nullptr);
    // Second call must hit the cache and produce identical weights.
    auto m2 = harness::trainCostModel(tinyModelConfig(), ds, tinyTrain(),
                                      "ht_ours");
    auto p1 = m1->parameters(), p2 = m2->parameters();
    ASSERT_EQ(p1.size(), p2.size());
    for (size_t i = 0; i < p1.size(); ++i)
        for (size_t j = 0; j < p1[i]->value.size(); ++j)
            ASSERT_FLOAT_EQ(p1[i]->value[j], p2[i]->value[j]);

    // Different tag -> different key -> fresh training, same result shape.
    unsetenv("LLMULATOR_CACHE_DIR");
}

TEST(Harness, BaselineTrainersProduceWorkingPredictors)
{
    setenv("LLMULATOR_CACHE_DIR", "/tmp/llmulator_test_cache", 1);
    auto ds = tinyDataset();
    auto tcfg = tinyTrain();
    auto tlp = harness::trainTlp(ds, tcfg, "ht");
    auto gnn = harness::trainGnnHls(ds, tcfg, "ht");
    auto ten = harness::trainTensetMlp(ds, tcfg, "ht");

    auto accs = workloads::accelerators();
    for (auto& fn :
         {harness::predictTlp(*tlp), harness::predictGnnHls(*gnn),
          harness::predictTensetMlp(*ten)}) {
        long v = fn(accs[0], model::Metric::Area);
        EXPECT_GE(v, 0);
    }
    unsetenv("LLMULATOR_CACHE_DIR");
}

TEST(Harness, WorkloadErrorsAgainstPerfectOracleAreZero)
{
    auto accs = workloads::accelerators();
    harness::PredictFn oracle = [](const workloads::Workload& w,
                                   model::Metric m) {
        return harness::groundTruth(w).get(m);
    };
    for (int mi = 0; mi < model::kNumMetrics; ++mi) {
        auto errs = harness::workloadErrors(
            oracle, accs, static_cast<model::Metric>(mi));
        for (double e : errs)
            EXPECT_DOUBLE_EQ(e, 0.0);
    }
}

TEST(Harness, DatasetKeyIsSensitive)
{
    auto a = tinyDataset();
    auto b = tinyDataset();
    EXPECT_EQ(harness::datasetKey(a), harness::datasetKey(b));
    b.samples.pop_back();
    EXPECT_NE(harness::datasetKey(a), harness::datasetKey(b));
}

TEST(Harness, ModelCacheKeyDependsOnNumericsVersion)
{
    // Artifacts trained under other float numerics must never load: the
    // numerics version is part of every model-cache key.
    auto ds = tinyDataset();
    harness::TrainConfig tcfg;
    const std::string cur = harness::modelCacheKey("m", 7, ds, tcfg);
    EXPECT_EQ(cur, harness::modelCacheKey("m", 7, ds, tcfg,
                                          model::kNumericsVersion));
    EXPECT_NE(cur, harness::modelCacheKey("m", 7, ds, tcfg,
                                          model::kNumericsVersion + 1));
    EXPECT_NE(cur, harness::modelCacheKey("m", 7, ds, tcfg, 0));
}

TEST(Harness, FamilyDataNeverDuplicatesCanonicalWorkloads)
{
    synth::Dataset ds;
    auto accs = workloads::accelerators();
    harness::addWorkloadFamilyData(ds, accs, 2, 5);
    EXPECT_EQ(ds.size(), accs.size() * 2);
    for (const auto& s : ds.samples)
        for (const auto& w : accs)
            EXPECT_NE(dfir::structuralHash(s.graph),
                      dfir::structuralHash(w.graph))
                << "training on an evaluation instance";
}

TEST(Metrics, AbsPctErrorEdgeCases)
{
    EXPECT_DOUBLE_EQ(eval::absPctError(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(eval::absPctError(5, 0), 1.0);
    EXPECT_DOUBLE_EQ(eval::absPctError(150, 100), 0.5);
    EXPECT_DOUBLE_EQ(eval::absPctError(50, 100), 0.5);
}

TEST(Metrics, PearsonSignsAndDegenerateCases)
{
    std::vector<double> up = {1, 2, 3, 4};
    std::vector<double> down = {4, 3, 2, 1};
    std::vector<double> flat = {2, 2, 2, 2};
    EXPECT_NEAR(eval::pearson(up, up), 1.0, 1e-12);
    EXPECT_NEAR(eval::pearson(up, down), -1.0, 1e-12);
    EXPECT_DOUBLE_EQ(eval::pearson(up, flat), 0.0);
}

TEST(TablePrinter, AlignsColumns)
{
    eval::Table t({"A", "LongHeader"});
    t.addRow({"xx", "1"});
    t.addRow({"y", "22"});
    std::string s = t.str();
    EXPECT_NE(s.find("A   LongHeader"), std::string::npos);
    EXPECT_NE(s.find("---"), std::string::npos);
    EXPECT_EQ(eval::pct(0.123), "12.3%");
    EXPECT_EQ(eval::secs(1.0401), "1.040");
}

} // namespace
