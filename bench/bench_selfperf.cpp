/**
 * @file
 * Simulator self-performance: how fast the simulator itself runs, as
 * opposed to how fast the simulated machine is. Three measurements:
 *
 *  - sim: the Table VI microbenchmark mix executed on the PIM-HBM
 *    system, with scrubbing and a trace session attached so the epoch
 *    merge and trace paths are on the clock too. Full runs also time
 *    the smoke-size mix (sim_smoke), so a committed full-size file
 *    still gives the CI smoke guard a baseline for the same work.
 *  - cluster loop: the ClusterEngine event loop with its router queue
 *    4096 deep (4 hosts x 4 stacks at 1.3x capacity, one service-time
 *    cache entry). Same size in smoke and full runs.
 *  - lane micro: FP16 widen/narrow of every 16-bit pattern through the
 *    scalar per-element converters versus the batch kernels the PIM
 *    datapath uses. Their outputs must match; asserted in-binary.
 *
 * Output: BENCH_selfperf.json (simulated cycles/sec, memory
 * requests/sec, submitted cluster requests/sec, lane conversions/sec).
 * CI runs `--smoke` and compares sim_smoke.sim_cycles_per_sec and
 * cluster_loop.requests_per_sec against the committed baseline as a
 * per-layer perf regression guard.
 *
 * Flags:
 *   --smoke       tiny workload (CI guard)
 *   --json-out=F  result file (default BENCH_selfperf.json; "" disables)
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster_engine.h"
#include "common/fp16.h"
#include "common/json.h"
#include "common/trace.h"
#include "serve/load_gen.h"
#include "stack/workloads.h"

using namespace pimsim;
using namespace pimsim::bench;

namespace {

bool g_smoke = false;

double
nowMs()
{
    using clk = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               clk::now().time_since_epoch())
        .count();
}

/** What one simulation run costs and how much it simulated. */
struct RunResult
{
    double wallMs = 0.0;
    std::uint64_t simCycles = 0;
    std::uint64_t memRequests = 0;
};

/**
 * The measured workload: the Table VI microbenchmark mix at batches
 * 1 and 4, `reps` times, with scrubbing on so the epoch scrub and
 * error-merge paths are exercised, under a Chrome-trace session so
 * device trace recording is exercised too.
 */
RunResult
runSimScenario(bool smoke, unsigned reps)
{
    SystemConfig cfg = SystemConfig::pimHbmSystem();
    cfg.controller.scrubEnabled = true;
    cfg.controller.scrubInterval = 2000;
    cfg.controller.scrubBurstsPerStep = 64;

    Setup s = makeSetup(cfg);
    TraceSession trace;
    s.system->setTraceSession(&trace);
    s.blas->setTrace(&trace);
    s.runner->setTrace(&trace);

    // Smoke keeps the CI guard cheap: only the lightest GEMV and the
    // lightest element-wise micro, batch 1. Full mode runs the whole
    // Table VI mix at batches 1 and 4.
    std::vector<MicroSpec> micros = table6Microbenchmarks();
    std::vector<unsigned> batches = {1u, 4u};
    if (smoke) {
        const MicroSpec *gemv = nullptr;
        const MicroSpec *add = nullptr;
        for (const auto &m : micros) {
            const bool is_gemv = m.m != 0;
            auto cost = [](const MicroSpec &x) {
                return x.m ? static_cast<std::uint64_t>(x.m) * x.n
                           : x.elements;
            };
            const MicroSpec *&slot = is_gemv ? gemv : add;
            if (!slot || cost(m) < cost(*slot))
                slot = &m;
        }
        std::vector<MicroSpec> small;
        if (gemv)
            small.push_back(*gemv);
        if (add)
            small.push_back(*add);
        micros = std::move(small);
        batches = {1u};
    }

    RunResult r;
    const double t0 = nowMs();
    for (unsigned rep = 0; rep < reps; ++rep)
        for (const auto &micro : micros)
            for (unsigned batch : batches)
                s.runner->runMicro(micro, batch);
    r.wallMs = nowMs() - t0;

    r.simCycles = s.system->now();
    r.memRequests = s.system->totalCtrlStat("enqueued");
    return r;
}

/** What the cluster event-loop run cost and what it served. */
struct ClusterLoopResult
{
    double wallMs = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    unsigned queueDepth = 0;
};

/**
 * 100k Poisson arrivals at 1.3x the capacity of 4 hosts x 4 stacks
 * serving FC-512, with a 4096-deep router queue and a deadline loose
 * enough that the queue fills instead of expiring. The one service-time
 * cache miss is taken before the clock starts, so the wall time is the
 * event loop alone; `wallMs` is the median of five runs.
 */
ClusterLoopResult
runClusterLoop()
{
    LayerSpec fc;
    fc.kind = LayerSpec::Kind::Fc;
    fc.hidden = 512;
    fc.input = 512;
    fc.steps = 2;
    cluster::ClusterConfig cfg;
    cfg.system = SystemConfig::pimHbmSystem();
    cfg.system.numStacks = 1;
    cfg.numHosts = 4;
    cfg.stacksPerHost = 4;
    cfg.app = AppSpec{"cluster-fc512", {fc}};
    cfg.queueDepth = 4096;
    cfg.cache = std::make_shared<serve::ServiceTimeCache>();
    const double est = cluster::ClusterEngine(cfg).attemptEstimateNs();
    cfg.deadlineNs = 2000.0 * est;

    constexpr std::size_t kRequests = 100'000;
    const double rate = 1.3 * cfg.numHosts * cfg.stacksPerHost * 1e9 / est;
    std::vector<serve::Arrival> arrivals = serve::poissonArrivals(
        {serve::ArrivalSpec{0, rate}}, 2.0 * kRequests * 1e9 / rate, 1);
    arrivals.resize(kRequests);

    // A run is ~0.1 s, so one noisy time slice moves it; report the
    // median of five identical runs.
    constexpr int kRuns = 5;
    std::vector<double> walls;
    ClusterLoopResult r;
    for (int run = 0; run < kRuns; ++run) {
        cluster::ClusterEngine eng(cfg);
        const double t0 = nowMs();
        for (const serve::Arrival &a : arrivals)
            eng.submit(std::max(a.ns, eng.nowNs()));
        eng.drain();
        walls.push_back(nowMs() - t0);
        const cluster::ClusterReport rep = eng.report();
        r.requests = rep.submitted;
        r.completed = rep.completed;
        r.rejected = rep.rejected;
    }
    std::sort(walls.begin(), walls.end());
    r.wallMs = walls[kRuns / 2];
    r.queueDepth = cfg.queueDepth;
    return r;
}

/** Raw conversion micro: scalar per-element loop vs batch kernels. */
struct LaneResult
{
    double scalarMs = 0.0;
    double batchMs = 0.0;
    std::uint64_t lanes = 0;
};

LaneResult
runLaneMicro(unsigned reps)
{
    constexpr std::size_t kN = 1u << 16;
    std::vector<Fp16Bits> half(kN);
    for (std::size_t i = 0; i < kN; ++i)
        half[i] = static_cast<Fp16Bits>(i);
    std::vector<float> widened(kN);
    std::vector<Fp16Bits> narrowed(kN);

    LaneResult r;
    r.lanes = static_cast<std::uint64_t>(kN) * reps;

    double t0 = nowMs();
    for (unsigned rep = 0; rep < reps; ++rep) {
        for (std::size_t i = 0; i < kN; ++i)
            widened[i] = fp16BitsToFloat(half[i]);
        for (std::size_t i = 0; i < kN; ++i)
            narrowed[i] = floatToFp16Bits(widened[i]);
    }
    r.scalarMs = nowMs() - t0;
    const std::vector<Fp16Bits> scalar_out = narrowed;

    t0 = nowMs();
    for (unsigned rep = 0; rep < reps; ++rep) {
        fp16ToFloatN(half.data(), widened.data(), kN);
        floatToFp16N(widened.data(), narrowed.data(), kN);
    }
    r.batchMs = nowMs() - t0;

    PIMSIM_ASSERT(scalar_out == narrowed,
                  "batched FP16 kernels diverged from the scalar path");
    return r;
}

double
perSec(std::uint64_t count, double wall_ms)
{
    return wall_ms > 0.0 ? static_cast<double>(count) * 1e3 / wall_ms
                         : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchFlags flags = parseBenchFlags(
        argc, argv, kFlagJsonOut | kFlagSmoke, {"BENCH_selfperf.json"});
    g_smoke = flags.smoke;
    setQuiet(true);

    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned lane_reps = g_smoke ? 64 : 1024;

    const double wall0 = nowMs();
    const RunResult smoke_sim = runSimScenario(true, 1);
    RunResult full_sim;
    if (!g_smoke)
        full_sim = runSimScenario(false, 4);
    const ClusterLoopResult loop = runClusterLoop();
    const LaneResult lanes = runLaneMicro(lane_reps);
    const double lane_micro_speedup =
        lanes.batchMs > 0.0 ? lanes.scalarMs / lanes.batchMs : 1.0;

    auto print_sim = [](const char *name, const RunResult &r) {
        std::printf("  %-10s %8.1f ms  %12.0f cyc/s  %10.0f req/s\n", name,
                    r.wallMs, perSec(r.simCycles, r.wallMs),
                    perSec(r.memRequests, r.wallMs));
    };
    std::printf("selfperf (%s, hw %u)\n", g_smoke ? "smoke" : "full", hw);
    print_sim("sim_smoke:", smoke_sim);
    if (!g_smoke)
        print_sim("sim:", full_sim);
    std::printf("  cluster loop: %llu requests (queue %u deep) in %.1f ms "
                "(median of 5), "
                "%.0f req/s\n",
                static_cast<unsigned long long>(loop.requests),
                loop.queueDepth, loop.wallMs,
                perSec(loop.requests, loop.wallMs));
    std::printf("  lane micro: scalar %.1f ms, batched %.1f ms over "
                "%llu lanes (%.2fx)\n",
                lanes.scalarMs, lanes.batchMs,
                static_cast<unsigned long long>(lanes.lanes),
                lane_micro_speedup);

    const bool written = writeJsonReport(flags.jsonOut, [&](JsonWriter &w) {
        RunSelfMetrics self;
        self.wallMs = nowMs() - wall0;
        self.simulatedNs =
            static_cast<double>(smoke_sim.simCycles + full_sim.simCycles);
        writeBenchPreamble(w, "selfperf", 0, g_smoke,
                           "simulator self-performance: serial simulator, "
                           "cluster event loop and FP16 lane conversion "
                           "micro",
                           &self);
        w.field("hardware_concurrency", hw);

        auto write_sim = [&w](const char *key, const RunResult &r) {
            w.key(key).beginObject();
            w.field("sim_cycles", r.simCycles);
            w.field("mem_requests", r.memRequests);
            w.field("wall_ms", r.wallMs);
            w.field("sim_cycles_per_sec", perSec(r.simCycles, r.wallMs));
            w.field("requests_per_sec", perSec(r.memRequests, r.wallMs));
            w.endObject();
        };
        write_sim("sim_smoke", smoke_sim);
        if (!g_smoke)
            write_sim("sim", full_sim);

        w.key("cluster_loop").beginObject();
        w.field("requests", loop.requests);
        w.field("completed", loop.completed);
        w.field("rejected", loop.rejected);
        w.field("queue_depth", loop.queueDepth);
        w.field("wall_ms", loop.wallMs);
        w.field("requests_per_sec", perSec(loop.requests, loop.wallMs));
        w.endObject();

        w.key("lane_micro").beginObject();
        w.field("lanes", lanes.lanes);
        w.field("scalar_wall_ms", lanes.scalarMs);
        w.field("batched_wall_ms", lanes.batchMs);
        w.field("scalar_lanes_per_sec", perSec(lanes.lanes,
                                               lanes.scalarMs));
        w.field("batched_lanes_per_sec", perSec(lanes.lanes,
                                                lanes.batchMs));
        w.field("speedup", lane_micro_speedup);
        w.endObject();
    });
    return written ? 0 : 1;
}
