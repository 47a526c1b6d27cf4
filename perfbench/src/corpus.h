#ifndef PERFBENCH_CORPUS_H
#define PERFBENCH_CORPUS_H

/**
 * @file
 * Workload inputs, all generated from the run's --seed.
 *
 * A *design* is one kernel (PolyBench, modern or accelerator workload)
 * under one hardware configuration: the kernel as written plus copies
 * rewritten by synth::augmentHardware. Each design carries a few runtime
 * inputs (the workload's canonical data and size variants).
 *
 * A *query* is what a client sends: the program text a design prints to
 * (dfir::printStatic), optional runtime data and one metric. The graph
 * stored with a query is the one the server parses back from that text,
 * so references computed from it see exactly what the server sees.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "dfir/ir.h"
#include "model/cost_model.h"
#include "net/protocol.h"

namespace perfbench {

/**
 * Seed of the fixed catalog: the designs, the fleet corpus and its
 * popularity order, the malformed texts and the training corpus. The
 * run's --seed drives the traffic over the catalog (arrivals, Zipf
 * draws, sweep inputs and order, training shuffle), so runs differ in
 * traffic, not in which programs exist.
 */
constexpr uint64_t kCatalogSeed = 2024;

namespace dfir = llmulator::dfir;
namespace model = llmulator::model;
namespace net = llmulator::net;

struct Design
{
    std::string name;
    dfir::DataflowGraph graph;
    std::vector<dfir::RuntimeData> inputs; //!< canonical first
};

struct Query
{
    std::string program;       //!< dfir::printStatic() text
    dfir::DataflowGraph graph; //!< parseProgram(program).graph
    dfir::RuntimeData data;
    bool hasData = false;
    model::Metric metric = model::Metric::Power;
};

/**
 * Every PolyBench, modern and accelerator kernel, each as written and
 * under `hwPerKernel` augmentHardware configurations, with the
 * canonical input plus `inputsPerDesign - 1` size variants.
 */
std::vector<Design> designPool(uint64_t seed, int hwPerKernel,
                               int inputsPerDesign);

/** Build a query (prints and re-parses the graph). */
Query makeQuery(const dfir::DataflowGraph& g, const dfir::RuntimeData* data,
                model::Metric metric);

/**
 * The fleet corpus in popularity-rank order: for every design the three
 * static metrics plus one Cycles query per input, extended by
 * synth::equivalentMutant copies of a `mutantShare` of the entries
 * (same canonical key, different text), then shuffled.
 */
std::vector<Query> fleetCorpus(const std::vector<Design>& designs,
                               double mutantShare, uint64_t seed);

/**
 * `count` program texts that dfir::parseProgram rejects, made by
 * truncating corpus texts and appending junk. Their correct answer is
 * BAD_REQUEST.
 */
std::vector<std::string> malformedPrograms(const std::vector<Query>& corpus,
                                           size_t count, uint64_t seed);

/** The wire request for a query. */
net::NetRequest toRequest(const Query& q);

/**
 * The DSE sweep set: every design with one of its inputs (design i
 * takes input i mod the input count), expanded to all four metrics —
 * Power, Area and FlipFlops static, Cycles with the input — as four
 * consecutive queries.
 */
std::vector<Query> sweepQueries(const std::vector<Design>& designs);

/**
 * A seeded submission order for a sweep of `designs` x 4 queries:
 * designs are permuted, each design's four queries stay together.
 */
std::vector<size_t> sweepOrder(size_t designs, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_CORPUS_H
