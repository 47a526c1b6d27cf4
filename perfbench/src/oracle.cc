#include "oracle.h"

#include <cstring>
#include <future>
#include <set>
#include <string>

#include "dfir/passes.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "util/common.h"

namespace perfbench {

namespace {

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

} // namespace

bool
samePrediction(const model::NumericPrediction& a,
               const model::NumericPrediction& b)
{
    if (a.value != b.value || a.digits != b.digits ||
        a.digitProbs.size() != b.digitProbs.size() ||
        !sameBits(a.logProb, b.logProb))
        return false;
    for (size_t i = 0; i < a.digitProbs.size(); ++i)
        if (!sameBits(a.digitProbs[i], b.digitProbs[i]))
            return false;
    return true;
}

CanonKey
canonicalKey(const Query& q)
{
    dfir::CanonResult canon = dfir::canonicalizeEx(q.graph);
    uint64_t input =
        q.hasData ? llmulator::serve::hashRuntimeData(
                        dfir::remapRuntimeData(q.data, canon.scalarRenames))
                  : 0;
    return {dfir::structuralHash(canon.graph), input,
            static_cast<int>(q.metric)};
}

Oracle::Oracle(const model::CostModel& m, const std::vector<Query>& queries,
               int workers)
{
    for (const Query& q : queries)
        keys_.push_back(canonicalKey(q));

    // Equivalence classes (canonical program, input): their distinct
    // variants (program text + data) and the metrics asked of them.
    using Class = std::pair<uint64_t, uint64_t>;
    using Variant = std::tuple<std::string, bool, uint64_t>;
    std::map<Class, std::map<Variant, size_t>> variants;
    std::map<Class, std::set<int>> metrics;
    std::vector<size_t> variantOf(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
        const Query& q = queries[i];
        const Class c{std::get<0>(keys_[i]), std::get<1>(keys_[i])};
        const Variant v{q.program, q.hasData,
                        q.hasData ? llmulator::serve::hashRuntimeData(q.data)
                                  : 0};
        variantOf[i] = variants[c].emplace(v, i).first->second;
        metrics[c].insert(std::get<2>(keys_[i]));
    }

    llmulator::serve::ServeConfig cfg;
    cfg.workers = workers;
    cfg.batchMax = 1;
    cfg.cacheCapacity = 0;
    llmulator::serve::PredictionServer server(m.clone(), cfg);
    struct Task
    {
        size_t variant; //!< index of a query with the variant's text/data
        int metric;
        std::future<model::NumericPrediction> result;
    };
    std::vector<Task> tasks;
    for (const auto& [c, vs] : variants)
        for (const auto& [v, qi] : vs)
            for (int metric : metrics[c]) {
                const Query& q = queries[qi];
                tasks.push_back(
                    {qi, metric,
                     server.submitAsync(q.graph, q.hasData ? &q.data : nullptr,
                                        static_cast<model::Metric>(metric))});
            }
    std::map<std::pair<size_t, int>, model::NumericPrediction> byTask;
    for (Task& t : tasks) {
        model::NumericPrediction p = t.result.get();
        const CanonKey& k = keys_[t.variant];
        accepted_[{std::get<0>(k), std::get<1>(k), t.metric}].push_back(p);
        byTask[{t.variant, t.metric}] = std::move(p);
    }
    for (size_t i = 0; i < queries.size(); ++i)
        refs_.push_back(byTask.at({variantOf[i], std::get<2>(keys_[i])}));
}

Oracle::Oracle(const std::vector<Query>& queries,
               std::vector<model::NumericPrediction> refs)
    : refs_(std::move(refs))
{
    LLM_CHECK(refs_.size() == queries.size(), "one reference per query");
    for (size_t i = 0; i < queries.size(); ++i) {
        keys_.push_back(canonicalKey(queries[i]));
        accepted_[keys_.back()].push_back(refs_[i]);
    }
}

bool
Oracle::accepts(size_t i, const model::NumericPrediction& p) const
{
    for (const model::NumericPrediction& ref : accepted_.at(keys_[i]))
        if (samePrediction(ref, p))
            return true;
    return false;
}

Verdict
judge(const Oracle& oracle, size_t entry, bool malformed, bool transportOk,
      const net::NetResponse& resp)
{
    if (!transportOk)
        return Verdict::Transport;
    if (resp.status == net::Status::Overloaded)
        return Verdict::Overloaded;
    const net::Status want =
        malformed ? net::Status::BadRequest : net::Status::Ok;
    if (resp.status != want)
        return Verdict::BadStatus;
    if (malformed)
        return Verdict::Correct;
    if (resp.modelVersion != 0 || !oracle.accepts(entry, resp.prediction))
        return Verdict::Wrong;
    return Verdict::Correct;
}

} // namespace perfbench
