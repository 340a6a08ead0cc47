/**
 * @file
 * Silent-data-corruption defense benchmark: ABFT detection coverage on
 * the GEMV kernel and degraded-capacity serving under channel
 * quarantine.
 *
 * Part A (kernel coverage): for each GRF/SRF fault rate (expressed per
 * executed PIM op) two arms run the same seeded fault campaign on
 * identical systems -- one with ABFT off (the raw, possibly corrupted
 * result: ground truth) and one with ABFT on. Register flips do not
 * alter the command stream, so the arms consume bit-identical fault
 * sequences. Per trial the harness records the device's own exposure
 * counter (PimUnit::sdcExposed: planted bits actually consumed by the
 * datapath) and whether the raw result deviates beyond the fp16
 * checksum tolerance band. The in-binary acceptance gates:
 *
 *  - coverage: every ground-truth trial (exposed > 0 AND above-band
 *    deviation) is golden-confirmed by the ABFT arm (>= 99%);
 *  - zero silently-wrong: the ABFT arm never returns a result with an
 *    above-band tile deviation (it is corrected to golden instead);
 *  - replay: two runs with the same seed are bit-identical.
 *
 * Part B (serving): one PIM-HBM stack serves an open-loop FC tenant
 * while a ChaosCampaign SDC stream hammers one hot channel. The SDC
 * monitor quarantines the channel and the shard replans around it; the
 * acceptance gate is graceful degradation -- goodput loses at most the
 * withdrawn capacity fraction plus 10 percentage points.
 *
 * Flags:
 *   --json-out=FILE  result file (default BENCH_sdc.json; "" disables)
 *   --smoke          shrink trial counts/horizons for CI sanitizer runs
 *   --seed=N         override the fault/arrival seed (recorded in JSON)
 *   --trace-out=FILE Chrome-trace timeline of the degraded serving run
 *                    (the pid-8 `sdc` track shows quarantine spans)
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/trace.h"
#include "pim/pim_channel.h"
#include "reliability/fault_injector.h"
#include "serve/chaos.h"
#include "serve/load_gen.h"
#include "serve/serving_engine.h"
#include "stack/reference.h"

using namespace pimsim;
using namespace pimsim::bench;

namespace {

std::uint64_t g_seed = 0x5dcdef;
bool g_smoke = false;
std::string g_traceOut;
TraceSession g_trace;
RunSelfMetrics g_self;

constexpr unsigned kM = 256, kN = 256;
const std::vector<double> kRatesPerOp = {1e-6, 1e-5, 1e-4};

SystemConfig
benchSystem()
{
    SystemConfig c = SystemConfig::pimHbmSystem();
    c.numStacks = 1; // 16 pseudo channels x 8 units = 128 GEMV tiles
    c.geometry.rowsPerBank = 512;
    return c;
}

// ---------------------------------------------------------------- Part A

/** One (rate, ABFT) cell of the kernel coverage sweep. */
struct KernelCell
{
    double ratePerOp = 0.0;
    bool abft = false;

    unsigned trials = 0;
    std::uint64_t injected = 0; ///< register flips planted
    std::uint64_t exposed = 0;  ///< flips the datapath consumed
    unsigned truthTrials = 0;   ///< exposed > 0 AND above-band deviation
    unsigned detectedTruth = 0; ///< truth trials the ABFT arm confirmed
    unsigned silentAboveBand = 0; ///< returned results beyond the band
    std::uint64_t abftChecks = 0;
    std::uint64_t abftMismatches = 0;
    std::uint64_t abftUnverifiable = 0;
    std::uint64_t sdcConfirmed = 0;
    std::uint64_t sdcFalseAlarms = 0;
    double kernelNs = 0.0;
    double abftNs = 0.0;

    double coverage() const
    {
        return truthTrials ? static_cast<double>(detectedTruth) /
                                 static_cast<double>(truthTrials)
                           : 1.0;
    }
    double abftOverhead() const
    {
        return kernelNs > 0.0 ? abftNs / kernelNs : 0.0;
    }
};

/**
 * Mirror of the ABFT per-tile tolerance check, applied to an arbitrary
 * result vector: true when any (channel, unit) tile's checksum sums
 * deviate beyond the fp16 rounding band (non-finite tiles fall back to
 * a bit-compare against golden, exactly like the kernel's unverifiable
 * path).
 */
bool
anyTileAboveBand(const Fp16Vector &w, const Fp16Vector &x,
                 const Fp16Vector &y, const Fp16Vector &golden)
{
    const unsigned channels = 16, units = 8, slots = channels * units;
    const unsigned blocks = (kN + 127) / 128;
    const unsigned passes = (kM + 2 * slots - 1) / (2 * slots);
    const double eps = 0x1p-11, delta = 0x1p-25;
    const double roundings = 16.0 * blocks + 2.0;
    const double kSafety = 4.0;

    for (unsigned slot = 0; slot < slots; ++slot) {
        double y1 = 0.0, y2 = 0.0, cs1 = 0.0, cs2 = 0.0;
        double ca1 = 0.0, ca2 = 0.0, wsum = 0.0;
        unsigned rows = 0;
        bool finite = true, bits_differ = false;
        for (unsigned p = 0; p < passes; ++p) {
            for (unsigned k = 0; k < 2; ++k) {
                const std::uint64_t mm =
                    2ull * (std::uint64_t{p} * slots + slot) + k;
                if (mm >= kM)
                    continue;
                const double omega = 1.0 + 2.0 * p + k;
                for (unsigned j = 0; j < kN; ++j) {
                    const double wv =
                        static_cast<double>(w[mm * kN + j].toFloat());
                    const double xv = static_cast<double>(x[j].toFloat());
                    cs1 += wv * xv;
                    cs2 += omega * wv * xv;
                    ca1 += std::fabs(wv) * std::fabs(xv);
                    ca2 += omega * std::fabs(wv) * std::fabs(xv);
                    finite = finite && std::isfinite(wv) &&
                             std::isfinite(xv);
                }
                const double yv = static_cast<double>(y[mm].toFloat());
                y1 += yv;
                y2 += omega * yv;
                finite = finite && std::isfinite(yv);
                bits_differ =
                    bits_differ || y[mm].bits() != golden[mm].bits();
                wsum += omega;
                ++rows;
            }
        }
        if (rows == 0)
            continue;
        if (!finite || !std::isfinite(cs1) || !std::isfinite(cs2)) {
            if (bits_differ)
                return true; // saturated tile: only bits can testify
            continue;
        }
        const double tol1 =
            kSafety * roundings * (eps * ca1 + 16.0 * delta * rows);
        const double tol2 =
            kSafety * roundings * (eps * ca2 + 16.0 * delta * wsum);
        if (std::fabs(y1 - cs1) > tol1 || std::fabs(y2 - cs2) > tol2)
            return true;
    }
    return false;
}

struct ArmResult
{
    BlasTiming timing;
    Fp16Vector y;
    std::uint64_t injected = 0;
    std::uint64_t exposed = 0;
};

double g_opsPerKernel = 0.0; // probed once from a clean run

/** One seeded fault campaign trial on a fresh system. */
ArmResult
runArm(double rate_per_op, std::uint64_t trial_seed, bool abft_on,
       const Fp16Vector &w, const Fp16Vector &x)
{
    PimSystem sys(benchSystem());
    PimBlas blas(sys);
    blas.setAbft(abft_on);

    // Per-op rates -> expected flips per injection step (one step per
    // kernel): GRF dominates, SRF rides along at a quarter of the rate
    // (the prologue reload masks most SRF plants -- the exposure
    // counter, not the plant count, is the ground truth).
    FaultRates rates;
    rates.pimGrf = rate_per_op * g_opsPerKernel;
    rates.pimSrf = rate_per_op * g_opsPerKernel / 4.0;
    FaultInjector injector(sys, rates, trial_seed);
    injector.step();

    ArmResult r;
    r.timing = blas.gemv(w, kM, kN, x, r.y);
    r.injected = injector.counts().total();
    for (unsigned ch = 0; ch < sys.numChannels(); ++ch)
        r.exposed += sys.controller(ch).pim()->sdcExposed();
    g_self.simulatedNs += r.timing.totalNs();
    return r;
}

std::vector<KernelCell> g_kernelCells;
bool g_replayOk = false;

void
runKernelSweep(const Fp16Vector &w, const Fp16Vector &x,
               const Fp16Vector &golden)
{
    const unsigned trials = g_smoke ? 15 : 150;
    for (const double rate : kRatesPerOp) {
        KernelCell off_cell, on_cell;
        off_cell.ratePerOp = on_cell.ratePerOp = rate;
        off_cell.abft = false;
        on_cell.abft = true;
        for (unsigned i = 0; i < trials; ++i) {
            const std::uint64_t trial_seed =
                g_seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)) ^
                static_cast<std::uint64_t>(rate * 1e12);
            const ArmResult off = runArm(rate, trial_seed, false, w, x);
            const ArmResult on = runArm(rate, trial_seed, true, w, x);
            PIMSIM_ASSERT(off.injected == on.injected,
                          "arms diverged: ", off.injected, " vs ",
                          on.injected, " planted flips");

            auto tally = [](KernelCell &cell, const ArmResult &arm) {
                ++cell.trials;
                cell.injected += arm.injected;
                cell.exposed += arm.exposed;
                cell.abftChecks += arm.timing.abftChecks;
                cell.abftMismatches += arm.timing.abftMismatches;
                cell.abftUnverifiable += arm.timing.abftUnverifiable;
                cell.sdcConfirmed += arm.timing.sdcConfirmed;
                cell.sdcFalseAlarms += arm.timing.sdcFalseAlarms;
                cell.kernelNs += arm.timing.ns;
                cell.abftNs += arm.timing.abftNs;
            };
            tally(off_cell, off);
            tally(on_cell, on);

            // Ground truth comes from the unprotected arm: the device
            // consumed a plant AND the raw result left the band.
            const bool truth = off.exposed > 0 &&
                               anyTileAboveBand(w, x, off.y, golden);
            if (truth) {
                ++off_cell.truthTrials;
                ++on_cell.truthTrials;
                if (on.timing.sdcConfirmed > 0)
                    ++on_cell.detectedTruth;
            }
            if (anyTileAboveBand(w, x, off.y, golden))
                ++off_cell.silentAboveBand;
            if (anyTileAboveBand(w, x, on.y, golden))
                ++on_cell.silentAboveBand;
        }
        g_kernelCells.push_back(off_cell);
        g_kernelCells.push_back(on_cell);
    }

    // Replay: the highest-rate campaign run twice with the same seed is
    // bit-identical.
    const std::uint64_t replay_seed = g_seed ^ 0x9e3779b97f4a7c15ULL;
    const ArmResult a = runArm(1e-4, replay_seed, true, w, x);
    const ArmResult b = runArm(1e-4, replay_seed, true, w, x);
    g_replayOk = a.timing.ns == b.timing.ns &&
                 a.timing.abftMismatches == b.timing.abftMismatches &&
                 a.timing.sdcConfirmed == b.timing.sdcConfirmed &&
                 a.exposed == b.exposed && a.y.size() == b.y.size();
    for (std::size_t i = 0; g_replayOk && i < a.y.size(); ++i)
        g_replayOk = a.y[i].bits() == b.y[i].bits();
}

// ---------------------------------------------------------------- Part B

AppSpec
servedApp()
{
    LayerSpec fc;
    fc.kind = LayerSpec::Kind::Fc;
    fc.hidden = 256;
    fc.input = 256;
    fc.steps = 1;
    fc.pimEligible = true;

    AppSpec app;
    app.name = "sdc-fc";
    app.layers = {fc};
    return app;
}

struct ServingResult
{
    serve::ServeReport report;
    double goodputRps = 0.0;
    double capacityFraction = 1.0; ///< active/total channels at drain
    unsigned withdrawn = 0;
};

double g_deadlineNs = 0.0;
double g_servedCapacityRps = 0.0;

ServingResult
runServing(bool degraded, const std::shared_ptr<serve::ServiceTimeCache> &cache,
           double horizon_ns, double offered_rps, bool traced)
{
    serve::ServeConfig config;
    config.system = benchSystem();
    config.tenants = {
        serve::TenantSpec{"fc", servedApp(), 1.0, g_deadlineNs}};
    config.queue.depth = 256;
    config.sched.maxBatch = 8;
    config.timingCache = cache;
    config.retrySeed = g_seed ^ 0x7e57;
    config.sdc.enabled = true;
    config.sdc.abft = true;
    config.sdc.quarantine = true;
    config.sdc.monitor.window = 8;
    config.sdc.monitor.minSamples = 2;
    config.sdc.monitor.suspectScore = 0.25;
    config.sdc.monitor.quarantineScore = 0.5;
    config.sdc.monitor.probationDelayNs = 500'000.0;
    config.sdc.monitor.probationCanaries = 2;
    config.sdc.canaryPeriodNs = 250'000.0;
    config.sdc.migrationNsPerRow = 100.0;

    serve::ServingEngine engine(std::move(config));
    if (traced)
        engine.setTrace(&g_trace);

    // The SDC process: a steady drizzle everywhere, a storm on channel
    // 0 dense enough that its units never survive a canary window.
    serve::ChaosConfig chaos_config;
    chaos_config.seed = g_seed ^ 0x5dc;
    chaos_config.sdcPerSec = degraded ? 20.0 : 0.0;
    chaos_config.sdcHotChannel = 0;
    chaos_config.sdcHotFactor = 5000.0;
    serve::ChaosCampaign chaos(chaos_config, engine.plan().numShards());
    if (degraded) {
        chaos.configureSdc(16, benchSystem().pim.unitsPerPch);
        engine.setSdcModel(&chaos);
    }

    std::vector<serve::ArrivalSpec> specs = {
        serve::ArrivalSpec{0, offered_rps}};
    const auto arrivals =
        serve::poissonArrivals(specs, horizon_ns, g_seed ^ 0xa221);
    for (const auto &a : arrivals)
        engine.submit(a.tenant, std::max(a.ns, engine.nowNs()));
    engine.drain();
    g_self.simulatedNs += engine.nowNs();

    ServingResult r;
    r.capacityFraction = engine.capacityFraction(0);
    r.report = engine.report();
    r.report.reconcile();
    r.withdrawn =
        static_cast<unsigned>(r.report.sdc.withdrawnChannels.size());
    const auto &t = r.report.total;
    const std::uint64_t good = t.completed - t.sloViolations;
    r.goodputRps = horizon_ns > 0.0
                       ? static_cast<double>(good) / (horizon_ns * 1e-9)
                       : 0.0;
    return r;
}

ServingResult g_baseline, g_degraded;
bool g_servingReplayOk = false;

void
runServingSweep()
{
    auto cache = std::make_shared<serve::ServiceTimeCache>();
    serve::ShardServiceModel probe(benchSystem(), 16, cache);
    const double svc_ns = probe.serviceNs(servedApp(), 1);
    g_servedCapacityRps = 1e9 / svc_ns;
    g_deadlineNs = 25.0 * svc_ns;
    const double horizon_ns = (g_smoke ? 100.0 : 600.0) * svc_ns;
    const double offered = 0.6 * g_servedCapacityRps;

    g_baseline = runServing(false, cache, horizon_ns, offered, false);
    g_degraded =
        runServing(true, cache, horizon_ns, offered, !g_traceOut.empty());

    // Serving replay: the quarantine/replan path run twice with the
    // same seed is bit-identical.
    auto digest = [&](const ServingResult &r) {
        return std::make_tuple(
            r.report.total.completed, r.report.total.retries,
            r.report.sdc.confirmed, r.report.sdc.quarantines,
            r.report.sdc.readmits, r.withdrawn, r.goodputRps,
            r.report.total.e2e.p99Ns);
    };
    // Re-run the degraded cell against a freshly warmed cache: a shared
    // warm cache would short-circuit the measurement systems and make
    // the comparison vacuous.
    auto cold = std::make_shared<serve::ServiceTimeCache>();
    serve::ShardServiceModel probe_cold(benchSystem(), 16, cold);
    (void)probe_cold.serviceNs(servedApp(), 1);
    ServingResult again =
        runServing(true, cold, horizon_ns, offered, false);
    g_servingReplayOk = digest(g_degraded) == digest(again);
}

// ---------------------------------------------------------------- output

void
printResults()
{
    printHeader("SDC defense, part A: ABFT coverage on GEMV " +
                std::to_string(kM) + "x" + std::to_string(kN) +
                " (fault rates per PIM op)");
    printRow({"rate/op", "abft", "trials", "planted", "exposed", "truth",
              "caught", "silent>band", "falseAlarm", "overhead"},
             12);
    for (const auto &c : g_kernelCells) {
        printRow({fmt(c.ratePerOp * 1e6, 1) + "e-6",
                  c.abft ? "on" : "off", std::to_string(c.trials),
                  std::to_string(c.injected), std::to_string(c.exposed),
                  std::to_string(c.truthTrials),
                  std::to_string(c.detectedTruth),
                  std::to_string(c.silentAboveBand),
                  std::to_string(c.sdcFalseAlarms),
                  fmt(100.0 * c.abftOverhead(), 2) + "%"},
                 12);
    }
    std::printf("same-seed replay: %s\n",
                g_replayOk ? "bit-identical" : "DIVERGED");

    printHeader("SDC defense, part B: serving under a hot-channel SDC "
                "storm");
    printRow({"arm", "goodput", "retries", "quarant", "readmits",
              "withdrawn", "capacity", "silentWrong"},
             12);
    auto serving_row = [](const char *name, const ServingResult &r) {
        printRow({name, fmt(r.goodputRps, 1),
                  std::to_string(r.report.total.retries),
                  std::to_string(r.report.sdc.quarantines),
                  std::to_string(r.report.sdc.readmits),
                  std::to_string(r.withdrawn), fmt(r.capacityFraction, 3),
                  std::to_string(r.report.total.silentlyWrong)},
                 12);
    };
    serving_row("baseline", g_baseline);
    serving_row("degraded", g_degraded);
    std::printf("serving same-seed replay: %s\n",
                g_servingReplayOk ? "bit-identical" : "DIVERGED");

    std::printf(
        "\nexpectation: every above-band corruption the device exposes "
        "is confirmed by the\nABFT arm (coverage >= 99%%) and corrected "
        "to golden (zero silent results beyond\nthe band); quarantining "
        "the hot channel costs at most its capacity fraction\nplus 10%% "
        "of goodput.\n");
}

/** In-binary acceptance: hard-exit on any violated gate so CI smoke
 *  runs fail loudly instead of uploading a green-looking JSON. */
void
checkAcceptance()
{
    bool ok = true;
    auto fail = [&ok](const std::string &what) {
        std::fprintf(stderr, "ACCEPTANCE FAILED: %s\n", what.c_str());
        ok = false;
    };

    for (const auto &c : g_kernelCells) {
        if (!c.abft)
            continue;
        if (c.truthTrials > 0 && c.coverage() < 0.99)
            fail("coverage " + fmt(c.coverage(), 4) + " < 0.99 at rate " +
                 fmt(c.ratePerOp * 1e6, 2) + "e-6/op");
        if (c.silentAboveBand != 0)
            fail(std::to_string(c.silentAboveBand) +
                 " silently-wrong ABFT-on result(s) at rate " +
                 fmt(c.ratePerOp * 1e6, 2) + "e-6/op");
    }
    if (!g_replayOk)
        fail("kernel same-seed replay diverged");
    if (!g_servingReplayOk)
        fail("serving same-seed replay diverged");
    if (g_degraded.report.total.silentlyWrong != 0)
        fail("degraded serving completed silently-wrong batches");
    if (g_degraded.report.sdc.quarantines == 0)
        fail("the hot-channel storm never triggered a quarantine");

    // Graceful degradation: the goodput loss is bounded by the
    // withdrawn capacity fraction plus 10 percentage points.
    const double lost_capacity = 1.0 - g_degraded.capacityFraction;
    const double floor_rps =
        g_baseline.goodputRps * (1.0 - lost_capacity - 0.10);
    if (g_degraded.goodputRps < floor_rps)
        fail("goodput " + fmt(g_degraded.goodputRps, 1) +
             " rps under quarantine fell below the graceful-degradation "
             "floor " +
             fmt(floor_rps, 1) + " rps (baseline " +
             fmt(g_baseline.goodputRps, 1) + ", lost capacity " +
             fmt(lost_capacity, 3) + ")");

    if (!ok)
        std::exit(1);
}

void
writeServingJson(JsonWriter &w, const ServingResult &r)
{
    w.field("goodput_rps", r.goodputRps);
    w.field("capacity_fraction", r.capacityFraction);
    w.field("withdrawn_channels", r.withdrawn);
    w.field("completed", r.report.total.completed);
    w.field("retries", r.report.total.retries);
    w.field("silently_wrong", r.report.total.silentlyWrong);
    w.field("slo_violations", r.report.total.sloViolations);
    w.field("e2e_p99_ns", r.report.total.e2e.p99Ns);
    w.field("sdc_detected", r.report.sdc.detected);
    w.field("sdc_confirmed", r.report.sdc.confirmed);
    w.field("sdc_false_alarms", r.report.sdc.falseAlarms);
    w.field("quarantines", r.report.sdc.quarantines);
    w.field("readmits", r.report.sdc.readmits);
}

void
writeReport(JsonWriter &w)
{
    writeBenchPreamble(w, "sdc", g_seed, g_smoke,
                       "ABFT coverage sweep + quarantine serving on 1 "
                       "PIM-HBM stack",
                       &g_self);
    w.field("gemv_m", kM);
    w.field("gemv_n", kN);
    w.field("ops_per_kernel", g_opsPerKernel);
    w.field("kernel_replay_identical", g_replayOk);
    w.field("serving_replay_identical", g_servingReplayOk);
    w.key("coverage").beginArray();
    for (const auto &c : g_kernelCells) {
        w.beginObject();
        w.field("rate_per_op", c.ratePerOp);
        w.field("abft", c.abft);
        w.field("trials", c.trials);
        w.field("planted", c.injected);
        w.field("exposed", c.exposed);
        w.field("truth_trials", c.truthTrials);
        w.field("detected_truth", c.detectedTruth);
        w.field("coverage", c.coverage());
        w.field("silent_above_band", c.silentAboveBand);
        w.field("abft_checks", c.abftChecks);
        w.field("abft_mismatches", c.abftMismatches);
        w.field("abft_unverifiable", c.abftUnverifiable);
        w.field("sdc_confirmed", c.sdcConfirmed);
        w.field("false_alarms", c.sdcFalseAlarms);
        w.field("abft_overhead", c.abftOverhead());
        w.endObject();
    }
    w.endArray();
    w.key("serving").beginObject();
    w.field("capacity_rps", g_servedCapacityRps);
    w.field("deadline_ns", g_deadlineNs);
    w.key("baseline").beginObject();
    writeServingJson(w, g_baseline);
    w.endObject();
    w.key("degraded").beginObject();
    writeServingJson(w, g_degraded);
    w.endObject();
    w.endObject();
}

void
runAll()
{
    setQuiet(true);
    const auto wall_start = std::chrono::steady_clock::now();

    // Probe the clean kernel once: op count (the per-op -> per-step
    // rate conversion) and the shared data/golden triple.
    Rng rng(g_seed ^ 0xda7a);
    Fp16Vector w(std::size_t{kM} * kN), x(kN);
    for (auto &v : w)
        v = Fp16(rng.nextFloat(-0.125f, 0.125f));
    for (auto &v : x)
        v = Fp16(rng.nextFloat(-0.125f, 0.125f));
    {
        PimSystem sys(benchSystem());
        PimBlas blas(sys);
        Fp16Vector y;
        const BlasTiming t = blas.gemv(w, kM, kN, x, y);
        g_opsPerKernel = static_cast<double>(t.pimOps);
        g_self.simulatedNs += t.totalNs();
    }
    const Fp16Vector golden = refGemv(w, kM, kN, x);

    runKernelSweep(w, x, golden);
    runServingSweep();

    g_self.wallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
    g_self.traceEventsRecorded = g_trace.recordedEvents();
    g_self.traceEventsDropped = g_trace.droppedEvents();
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchFlags flags = parseBenchFlags(
        argc, argv, kFlagJsonOut | kFlagTraceOut | kFlagSmoke | kFlagSeed,
        {"BENCH_sdc.json", "", false, g_seed});
    g_traceOut = flags.traceOut;
    g_smoke = flags.smoke;
    g_seed = flags.seed;

    runAll();
    printResults();
    checkAcceptance();
    if (!writeJsonReport(flags.jsonOut, writeReport))
        return 1;
    if (!g_traceOut.empty() && !g_trace.writeFile(g_traceOut))
        return 1;
    return 0;
}
