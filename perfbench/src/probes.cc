/**
 * @file
 * The traced run and the kernel probe.
 *
 * The traced run is one layer sweep: every workload runs with the
 * benchmark's spans around each call into a layer and with the
 * program's own telemetry gates (LLMULATOR_METRICS / LLMULATOR_TRACE)
 * on — the only mode in which they are — followed by the GEMM probe.
 * Its output is every per-layer metric, whichever workload was named,
 * because each layer metric is measured on the workload that
 * exercises it.
 */

#include <functional>
#include <random>
#include <utility>

#include "nn/backend.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct GemmShape
{
    const char* name;
    int m, k, n;
};

/**
 * The served encoder's GEMM shapes at a 192-token sequence (dim 48,
 * FFN 128): each of the Q/K/V projections and the output projection
 * (m192_k48_n48), FFN up (m192_k48_n128) and down (m192_k128_n48),
 * plus one dim-128 shape for a wider model.
 */
const GemmShape kShapes[] = {
    {"m192_k48_n48", 192, 48, 48},
    {"m192_k48_n128", 192, 48, 128},
    {"m192_k128_n48", 192, 128, 48},
    {"m192_k128_n128", 192, 128, 128},
};

constexpr double kGemmTrialSeconds = 0.01;
constexpr int kGemmTrials = 5;

} // namespace

Result
probeGemm()
{
    namespace nn = llmulator::nn;
    Result r;
    std::mt19937 rng(7);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    const nn::Backend* backends[] = {&nn::scalarBackend(),
                                     &nn::vectorBackend()};
    for (const GemmShape& sh : kShapes) {
        const size_t mk = size_t(sh.m) * size_t(sh.k);
        const size_t kn = size_t(sh.k) * size_t(sh.n);
        const size_t mn = size_t(sh.m) * size_t(sh.n);
        std::vector<float> a(mk), b(kn), c(mn), dc(mn), outA(mk), outB(kn);
        for (auto* v : {&a, &b, &dc})
            for (float& x : *v)
                x = dist(rng);
        const double flops = 2.0 * sh.m * sh.k * sh.n;
        for (const nn::Backend* be : backends) {
            // kernel name, then one call of it
            const std::pair<const char*, std::function<void()>> kernels[] = {
                {"gemm_accum",
                 [&] { be->gemmAccum(a.data(), b.data(), c.data(), sh.m,
                                     sh.k, sh.n); }},
                {"gemm_accum_bt",
                 [&] { be->gemmAccumBt(dc.data(), b.data(), outA.data(),
                                       sh.m, sh.k, sh.n); }},
                {"gemm_accum_at",
                 [&] { be->gemmAccumAt(a.data(), dc.data(), outB.data(),
                                       sh.m, sh.k, sh.n); }},
            };
            for (const auto& [kname, call] : kernels) {
                std::vector<double> rates;
                for (int t = 0; t < kGemmTrials; ++t) {
                    long calls = 0;
                    const auto t0 = Clock::now();
                    double el = 0;
                    do {
                        call();
                        ++calls;
                        el = secondsBetween(t0, Clock::now());
                    } while (el < kGemmTrialSeconds);
                    rates.push_back(flops * double(calls) / el / 1e9);
                }
                r.add(std::string("nn.gemm_gflops.") + kname + "." +
                          be->name + "." + sh.name,
                      median(rates), "GF/s");
            }
        }
    }
    return r;
}

Result
runTraced(const RunConfig& cfg)
{
    namespace obs = llmulator::obs;
    obs::registry().reset();
    obs::clearSpans();
    obs::setMetricsEnabled(true);
    obs::setTraceEnabled(true);

    Result r;
    r.merge(traceFleetZipf(cfg, cfg.seconds * 0.3));
    r.merge(traceDseSweep(cfg, cfg.seconds * 0.3));
    r.merge(traceTrain(cfg));
    r.merge(probeGemm());

    obs::writeChromeTraceFile(cfg.outDir + "/trace_program.json");
    obs::setMetricsEnabled(false);
    obs::setTraceEnabled(false);
    return r;
}

} // namespace perfbench
