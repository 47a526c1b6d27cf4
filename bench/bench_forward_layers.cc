/**
 * @file
 * Per-stage split of the served encoder forward: runs
 * InferenceSession::pooled (uncached) on one thread over the 27
 * canonical workload encodings (10 PolyBench, 14 Table-2 and 3
 * accelerator workloads, each with its canonical runtime data) with
 * tracing on, and sums the session's per-layer stage spans
 * (`model.forward.<stage>`) next to the wall time of the whole calls.
 *
 * CSV lines (name,metric,value):
 *   forward_layers,hw_threads,<hardware concurrency>
 *   forward_layers,encodings,<27>
 *   forward_layers,tokens_mean,<mean encoded length>
 *   forward_layers,<stage>_ms,<ms per forward in the stage, for
 *     qkv|scores|softmax|context|out_ln2|ffn_up|gelu|ffn_down>
 *   forward_layers,stage_sum_ms,<sum of the stage rows>
 *   forward_layers,total_ms,<ms per forward, timed around pooled()>
 *   forward_layers,stage_coverage,<stage_sum_ms / total_ms>
 *
 * The stages must add up to the total: the binary exits 1 when
 * stage_coverage leaves [0.9, 1.1]. What no stage covers is the
 * embedding, the final LayerNorm and pooling, and scratch allocation.
 * The model is the untrained default "Ours" configuration: timing
 * depends on the shapes, not on the weights, so no training run is
 * needed.
 */

#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "harness/harness.h"
#include "model/fast_encoder.h"
#include "obs/trace.h"
#include "workloads/workloads.h"

using namespace llmulator;

namespace {

/** The session's stage spans, in forward order. */
const char* const kStages[] = {"qkv",     "scores", "softmax",
                               "context", "out_ln2", "ffn_up",
                               "gelu",    "ffn_down"};

} // namespace

int
main(int argc, char** argv)
{
    bench::parseArgs(argc, argv);
    const int passes = harness::smokeMode() ? 3 : 20;

    model::CostModel m(harness::defaultOursConfig());
    std::vector<model::EncodedProgram> eps;
    for (auto* family :
         {&workloads::polybench, &workloads::modern, &workloads::accelerators})
        for (const auto& w : (*family)())
            eps.push_back(m.encode(w.graph, &w.canonicalData));
    double tokens = 0;
    for (const auto& ep : eps)
        tokens += ep.length();

    model::InferenceSession session(m);
    for (const auto& ep : eps) // warm-up: caches, allocator, clones
        session.pooled(ep, false);

    obs::setTraceEnabled(true);
    obs::clearSpans();
    std::map<std::string, double> stageMs;
    double totalMs = 0;
    for (int p = 0; p < passes; ++p) {
        for (const auto& ep : eps) {
            const auto t0 = std::chrono::steady_clock::now();
            session.pooled(ep, false);
            totalMs += std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
        }
        // Drain the span ring every pass so it never wraps.
        for (const obs::SpanEvent& e : obs::collectSpans())
            stageMs[e.name] += double(e.durNs) / 1e6;
        obs::clearSpans();
    }
    obs::setTraceEnabled(false);

    const double forwards = double(passes) * double(eps.size());
    bench::csv("forward_layers", "hw_threads",
               double(std::thread::hardware_concurrency()));
    bench::csv("forward_layers", "encodings", double(eps.size()));
    bench::csv("forward_layers", "tokens_mean", tokens / double(eps.size()));
    double sumMs = 0;
    for (const char* stage : kStages) {
        const double ms =
            stageMs[std::string("model.forward.") + stage] / forwards;
        sumMs += ms;
        bench::csv("forward_layers", (std::string(stage) + "_ms").c_str(),
                   ms);
    }
    const double total = totalMs / forwards;
    const double coverage = total > 0 ? sumMs / total : 0;
    bench::csv("forward_layers", "stage_sum_ms", sumMs);
    bench::csv("forward_layers", "total_ms", total);
    bench::csv("forward_layers", "stage_coverage", coverage);
    if (coverage < 0.9 || coverage > 1.1) {
        std::fprintf(stderr,
                     "bench_forward_layers: stages cover %.3f of the "
                     "forward (want 0.9..1.1)\n",
                     coverage);
        return 1;
    }
    return 0;
}
