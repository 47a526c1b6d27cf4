#include "corpus.h"

#include <algorithm>

#include "dfir/parser.h"
#include "dfir/passes.h"
#include "dfir/printer.h"
#include "synth/generators.h"
#include "util/common.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace perfbench {

using llmulator::util::Rng;

namespace {

const std::vector<int> kMemDelays = {10, 5, 2};

template <typename T>
void
shuffle(std::vector<T>& v, Rng& rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.index(i)]);
}

} // namespace

std::vector<Design>
designPool(uint64_t seed, int hwPerKernel, int inputsPerDesign)
{
    namespace wl = llmulator::workloads;
    std::vector<wl::Workload> kernels = wl::polybench();
    for (auto& w : wl::modern())
        kernels.push_back(std::move(w));
    for (auto& w : wl::accelerators())
        kernels.push_back(std::move(w));

    Rng rng(seed * 0x9e3779b97f4a7c15ull + 11);
    std::vector<Design> out;
    for (const wl::Workload& w : kernels) {
        std::vector<dfir::RuntimeData> inputs = {w.canonicalData};
        for (size_t i = 0; i < w.variants.size() &&
                           int(inputs.size()) < inputsPerDesign;
             ++i)
            inputs.push_back(w.variants[i]);
        out.push_back({w.name, w.graph, inputs});
        for (int h = 0; h < hwPerKernel; ++h) {
            dfir::DataflowGraph g = w.graph;
            llmulator::synth::augmentHardware(g, rng, kMemDelays);
            out.push_back({w.name + "/hw" + std::to_string(h), g, inputs});
        }
    }
    return out;
}

Query
makeQuery(const dfir::DataflowGraph& g, const dfir::RuntimeData* data,
          model::Metric metric)
{
    Query q;
    q.program = dfir::printStatic(g);
    dfir::ParseResult parsed = dfir::parseProgram(q.program);
    LLM_CHECK(parsed.ok, "corpus program does not re-parse: " << parsed.error);
    q.graph = std::move(parsed.graph);
    if (data) {
        q.data = *data;
        q.hasData = true;
    }
    q.metric = metric;
    return q;
}

std::vector<Query>
fleetCorpus(const std::vector<Design>& designs, double mutantShare,
            uint64_t seed)
{
    Rng rng(seed * 0xbf58476d1ce4e5b9ull + 23);
    std::vector<Query> out;
    for (const Design& d : designs) {
        for (int m = 0; m < 3; ++m)
            out.push_back(
                makeQuery(d.graph, nullptr, static_cast<model::Metric>(m)));
        for (const dfir::RuntimeData& in : d.inputs)
            out.push_back(makeQuery(d.graph, &in, model::Metric::Cycles));
    }
    const size_t base = out.size();
    for (size_t i = 0; i < base; ++i) {
        if (rng.uniform() >= mutantShare)
            continue;
        // Copy the fields first: push_back may reallocate `out`.
        const dfir::DataflowGraph g = out[i].graph;
        const dfir::RuntimeData data = out[i].data;
        const bool hasData = out[i].hasData;
        const model::Metric metric = out[i].metric;
        llmulator::synth::EquivalentMutant mut =
            llmulator::synth::equivalentMutant(g, rng);
        dfir::RuntimeData mdata =
            dfir::remapRuntimeData(data, mut.scalarRenames);
        out.push_back(makeQuery(mut.graph, hasData ? &mdata : nullptr, metric));
    }
    shuffle(out, rng);
    return out;
}

std::vector<std::string>
malformedPrograms(const std::vector<Query>& corpus, size_t count,
                  uint64_t seed)
{
    static const char* kJunk[] = {"\n}}} ;;", "\nop ( @@", "\n= = for",
                                  "\n]]] tensor"};
    Rng rng(seed * 0x94d049bb133111ebull + 37);
    std::vector<std::string> out;
    while (out.size() < count) {
        const std::string& text = corpus[rng.index(corpus.size())].program;
        std::string bad = text.substr(0, text.size() / 2 +
                                             rng.index(text.size() / 4 + 1));
        bad += kJunk[rng.index(4)];
        if (!dfir::parseProgram(bad).ok)
            out.push_back(std::move(bad));
    }
    return out;
}

net::NetRequest
toRequest(const Query& q)
{
    net::NetRequest r;
    r.program = q.program;
    r.data = q.data;
    r.hasData = q.hasData;
    r.metric = q.metric;
    return r;
}

std::vector<Query>
sweepQueries(const std::vector<Design>& designs)
{
    std::vector<Query> out;
    for (size_t i = 0; i < designs.size(); ++i) {
        const Design& d = designs[i];
        const dfir::RuntimeData& in = d.inputs[i % d.inputs.size()];
        for (int m = 0; m < 3; ++m)
            out.push_back(
                makeQuery(d.graph, nullptr, static_cast<model::Metric>(m)));
        out.push_back(makeQuery(d.graph, &in, model::Metric::Cycles));
    }
    return out;
}

std::vector<size_t>
sweepOrder(size_t designs, uint64_t seed)
{
    Rng rng(seed * 0xd6e8feb86659fd93ull + 41);
    std::vector<size_t> perm(designs);
    for (size_t i = 0; i < designs; ++i)
        perm[i] = i;
    shuffle(perm, rng);
    std::vector<size_t> order;
    for (size_t d : perm)
        for (size_t m = 0; m < 4; ++m)
            order.push_back(d * 4 + m);
    return order;
}

} // namespace perfbench
