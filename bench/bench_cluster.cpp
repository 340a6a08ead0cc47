/**
 * @file
 * Cluster-tier benchmark: goodput and tail latency of a replicated
 * PIM-host fleet through a host kill and a straggler episode.
 *
 * Three experiments on a 4-host x 4-stack cluster (the paper's host
 * integrates four HBM2-PIM stacks):
 *
 *  - Host kill: host 0 crashes for the middle 30% of the run and then
 *    revives. With health-driven failover the router detects the dead
 *    replica (windowed failure detection), retries its timed-out
 *    dispatches cross-host, sheds what the surviving capacity cannot
 *    carry, and probes the host back through recovering -> healthy.
 *    Reported per window: goodput and p99. Asserted: post-kill
 *    steady-state goodput >= (M-1)/M of pre-kill, and the windowed SLO
 *    violation rate recovers after the revival (a measured recovery
 *    window, not an assumption).
 *  - Failover-disabled ablation: identical arrivals and fault process,
 *    static round-robin, no retries or hedging. The dead replica's
 *    share of the traffic is simply lost — the bench asserts the
 *    degradation is visible (failed > 0 and a worse kill-window goodput
 *    ratio than the resilient run).
 *  - Straggler episode: host 0 runs 8x slow for the middle third, at an
 *    equal fault rate with hedging on vs off. Hedged requests fire a
 *    backup copy after a p95-based delay; the bench asserts the hedged
 *    episode p99 is lower.
 *
 * Everything is seeded (arrivals, chaos draws) and the same seed
 * replays bit-identically — the bench re-runs the kill experiment and
 * compares serialized reports, including health-state transition
 * counts. Results go to BENCH_cluster.json (validated with validateJson
 * before writing; an invalid document is a hard error).
 *
 * Flags:
 *   --json-out=FILE  result file (default BENCH_cluster.json; "" disables)
 *   --smoke          shrink request counts for CI sanitizer runs
 *   --seed=N         override the campaign seed (recorded in the JSON)
 *   --trace-out=FILE Chrome-trace timeline of the kill/failover run
 *                    (tail-sampled per-request span trees, SLO alerts)
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster_engine.h"
#include "common/json.h"
#include "common/reqtrace.h"
#include "common/slo.h"
#include "common/trace.h"
#include "serve/chaos.h"
#include "serve/load_gen.h"

using namespace pimsim;
using namespace pimsim::bench;
using namespace pimsim::cluster;

namespace {

std::uint64_t g_seed = 0xc1a57e2;
bool g_smoke = false;

constexpr unsigned kHosts = 4;
constexpr unsigned kStacksPerHost = 4;
constexpr unsigned kWindows = 20;

/** One measurement window of the completion stream. */
struct Window
{
    double startNs = 0.0;
    double endNs = 0.0;
    std::uint64_t completed = 0;
    std::uint64_t good = 0; ///< completed inside the deadline
    std::vector<double> latencies;

    double goodputRps() const
    {
        const double span = endNs - startNs;
        return span > 0.0 ? static_cast<double>(good) * 1e9 / span : 0.0;
    }
    double violationRate() const
    {
        return completed ? 1.0 - static_cast<double>(good) /
                                     static_cast<double>(completed)
                         : 0.0;
    }
    double p99Ns()
    {
        if (latencies.empty())
            return 0.0;
        std::sort(latencies.begin(), latencies.end());
        const auto idx = static_cast<std::size_t>(
            0.99 * static_cast<double>(latencies.size() - 1));
        return latencies[idx];
    }
};

struct KillResult
{
    ClusterReport report;
    std::vector<Window> windows;
    double preGoodputRps = 0.0;
    double killGoodputRps = 0.0; ///< steady state after detection
    double goodputRatio = 0.0;   ///< kill steady state / pre-kill
    double recoveryNs = -1.0;    ///< revival -> violation rate back down
};

struct StragglerResult
{
    ClusterReport report;
    double episodeP99Ns = 0.0;
};

KillResult g_kill;
KillResult g_noFailover;
StragglerResult g_hedged;
StragglerResult g_unhedged;
std::unique_ptr<SloMonitor> g_sloFailover;   // burn-rate monitor, kill run
std::unique_ptr<SloMonitor> g_sloNoFailover; // same feed, naive cluster
std::string g_traceOut; // --trace-out=: trace the kill/failover run
TraceSession g_trace;
RunSelfMetrics g_self;
bool g_replayIdentical = false;
double g_capacityRps = 0.0;
double g_offeredRps = 0.0;
double g_estNs = 0.0;
double g_deadlineNs = 0.0;
double g_horizonNs = 0.0;
double g_crashStartNs = 0.0;
double g_crashEndNs = 0.0;
AppSpec
servedApp()
{
    LayerSpec fc;
    fc.kind = LayerSpec::Kind::Fc;
    fc.hidden = 512;
    fc.input = 512;
    fc.steps = 2;
    fc.pimEligible = true;

    AppSpec app;
    app.name = "cluster-fc512";
    app.layers = {fc};
    return app;
}

ClusterConfig
baseConfig(const std::shared_ptr<serve::ServiceTimeCache> &cache)
{
    ClusterConfig c;
    c.system = SystemConfig::pimHbmSystem();
    c.system.numStacks = 1; // per-stack template: 16 pseudo channels
    c.system.geometry.rowsPerBank = 512;
    c.numHosts = kHosts;
    c.stacksPerHost = kStacksPerHost;
    c.app = servedApp();
    c.queueDepth = 512;
    c.maxAttempts = 3;
    c.cache = cache;
    return c;
}

std::vector<double>
arrivalTimes(double rate_rps, double horizon_ns, std::uint64_t seed)
{
    const auto merged = serve::poissonArrivals(
        {serve::ArrivalSpec{0, rate_rps}}, horizon_ns, seed);
    std::vector<double> times;
    times.reserve(merged.size());
    for (const auto &a : merged)
        times.push_back(a.ns);
    return times;
}

ClusterReport
run(ClusterEngine &eng, serve::ChaosCampaign &chaos,
    const std::vector<double> &arrivals, std::vector<Window> *windows,
    SloMonitor *slo = nullptr)
{
    eng.setFaultModel(&chaos);
    for (const double ns : arrivals)
        eng.submit(std::max(ns, eng.nowNs()));
    eng.drain();
    g_self.simulatedNs += eng.nowNs();
    if (slo != nullptr) {
        // Observations carry their own timestamps, so one post-run feed
        // bins them into the right windows.
        slo->feed(eng.takeSloObservations());
        slo->finish(eng.nowNs());
    }
    const auto completions = eng.takeCompletions();
    if (windows != nullptr) {
        for (const ClusterCompletion &c : completions) {
            const auto i = std::min<std::size_t>(
                static_cast<std::size_t>(
                    (c.completeNs / g_horizonNs) *
                    static_cast<double>(kWindows)),
                windows->size() - 1);
            Window &w = (*windows)[i];
            ++w.completed;
            if (c.metDeadline())
                ++w.good;
            w.latencies.push_back(c.latencyNs());
        }
    }
    return eng.report();
}

std::vector<Window>
makeWindows()
{
    std::vector<Window> ws(kWindows);
    for (unsigned i = 0; i < kWindows; ++i) {
        ws[i].startNs =
            g_horizonNs * static_cast<double>(i) / kWindows;
        ws[i].endNs =
            g_horizonNs * static_cast<double>(i + 1) / kWindows;
    }
    return ws;
}

serve::ChaosCampaign
killCampaign()
{
    serve::ChaosConfig cfg;
    cfg.seed = g_seed;
    serve::ChaosCampaign chaos(cfg, 1);
    serve::HostFaultSpec crash;
    crash.kind = serve::HostFaultSpec::Kind::Crash;
    crash.host = 0;
    crash.startNs = g_crashStartNs;
    crash.endNs = g_crashEndNs;
    chaos.addHostFault(crash);
    return chaos;
}

void
analyzeKill(KillResult &r)
{
    // Pre-kill: windows fully before the crash, skipping warm-up.
    // Kill steady state: windows fully inside the crash, skipping the
    // first (failure detection happens there, at timeout granularity).
    double pre = 0.0, kill = 0.0;
    unsigned pre_n = 0, kill_n = 0;
    bool first_kill = true;
    for (auto &w : r.windows) {
        if (w.startNs == 0.0)
            continue; // warm-up
        if (w.endNs <= g_crashStartNs) {
            pre += w.goodputRps();
            ++pre_n;
        } else if (w.startNs >= g_crashStartNs &&
                   w.endNs <= g_crashEndNs) {
            if (first_kill) {
                first_kill = false; // detection window
                continue;
            }
            kill += w.goodputRps();
            ++kill_n;
        }
    }
    r.preGoodputRps = pre_n ? pre / pre_n : 0.0;
    r.killGoodputRps = kill_n ? kill / kill_n : 0.0;
    r.goodputRatio = r.preGoodputRps > 0.0
                         ? r.killGoodputRps / r.preGoodputRps
                         : 0.0;

    // Recovery window: first post-revival window whose SLO violation
    // rate is back within noise of the pre-kill baseline.
    double pre_viol = 0.0;
    unsigned pv_n = 0;
    for (auto &w : r.windows) {
        if (w.startNs > 0.0 && w.endNs <= g_crashStartNs) {
            pre_viol += w.violationRate();
            ++pv_n;
        }
    }
    pre_viol = pv_n ? pre_viol / pv_n : 0.0;
    const double tolerance = std::max(2.0 * pre_viol, 0.02);
    for (auto &w : r.windows) {
        if (w.startNs < g_crashEndNs)
            continue;
        if (w.completed > 0 && w.violationRate() <= tolerance) {
            r.recoveryNs = w.endNs - g_crashEndNs;
            break;
        }
    }
}

void
runExperiments()
{
    setQuiet(true);
    const auto wall_start = std::chrono::steady_clock::now();

    auto cache = std::make_shared<serve::ServiceTimeCache>();
    ClusterConfig cfg = baseConfig(cache);

    // Calibrate the run from the measured batch-1 attempt time.
    ClusterEngine probe(cfg);
    g_estNs = probe.attemptEstimateNs();
    g_capacityRps =
        static_cast<double>(kHosts * kStacksPerHost) * 1e9 / g_estNs;
    g_offeredRps = 0.6 * g_capacityRps; // below single-host-loss capacity
    g_deadlineNs = 30.0 * g_estNs;      // roomy SLO: queueing + one retry
    cfg.deadlineNs = g_deadlineNs;
    cfg.router.health.probeIntervalNs = 8.0 * g_estNs;

    const unsigned n = g_smoke ? 4'000 : 40'000;
    g_horizonNs = static_cast<double>(n) * 1e9 / g_offeredRps;
    g_crashStartNs = 0.35 * g_horizonNs;
    g_crashEndNs = 0.65 * g_horizonNs;
    const auto arrivals =
        arrivalTimes(g_offeredRps, g_horizonNs, g_seed ^ 0xa221);

    SloMonitorConfig slo_config;
    slo_config.windowNs = g_horizonNs / 100.0;

    // --- Host kill, failover on ---------------------------------------
    {
        ClusterEngine eng(cfg);
        std::unique_ptr<RequestTracer> tracer;
        if (!g_traceOut.empty()) {
            eng.setTrace(&g_trace);
            RequestTracerConfig rc;
            rc.seed = g_seed;
            tracer = std::make_unique<RequestTracer>(rc);
            eng.setRequestTracer(tracer.get());
        }
        auto chaos = killCampaign();
        g_kill.windows = makeWindows();
        g_sloFailover = std::make_unique<SloMonitor>(slo_config);
        g_kill.report =
            run(eng, chaos, arrivals, &g_kill.windows, g_sloFailover.get());
        analyzeKill(g_kill);
        if (tracer) {
            tracer->flush(g_trace);
            g_sloFailover->emitTrace(g_trace);
        }
    }

    // --- Host kill, failover off (ablation) ---------------------------
    {
        ClusterConfig naive = cfg;
        naive.router.failover = false;
        naive.maxAttempts = 1;
        naive.hedge.enabled = false;
        naive.admission = false; // nothing adapts: the naive cluster
        ClusterEngine eng(naive);
        auto chaos = killCampaign();
        g_noFailover.windows = makeWindows();
        g_sloNoFailover = std::make_unique<SloMonitor>(slo_config);
        g_noFailover.report = run(eng, chaos, arrivals,
                                  &g_noFailover.windows,
                                  g_sloNoFailover.get());
        analyzeKill(g_noFailover);
    }

    // --- Straggler episode, hedging on vs off -------------------------
    for (const bool hedged : {true, false}) {
        ClusterConfig scfg = cfg;
        scfg.hedge.enabled = hedged;
        scfg.hedge.minSamples = 64;
        ClusterEngine eng(scfg);
        serve::ChaosConfig ccfg;
        ccfg.seed = g_seed;
        serve::ChaosCampaign chaos(ccfg, 1);
        serve::HostFaultSpec slow;
        slow.kind = serve::HostFaultSpec::Kind::Straggler;
        slow.host = 0;
        slow.startNs = g_crashStartNs;
        slow.endNs = g_crashEndNs;
        slow.factor = 8.0;
        chaos.addHostFault(slow);
        StragglerResult &res = hedged ? g_hedged : g_unhedged;
        std::vector<Window> windows = makeWindows();
        res.report = run(eng, chaos, arrivals, &windows);
        std::vector<double> episode;
        for (auto &w : windows) {
            if (w.startNs >= g_crashStartNs && w.endNs <= g_crashEndNs)
                episode.insert(episode.end(), w.latencies.begin(),
                               w.latencies.end());
        }
        std::sort(episode.begin(), episode.end());
        res.episodeP99Ns =
            episode.empty()
                ? 0.0
                : episode[static_cast<std::size_t>(
                      0.99 * static_cast<double>(episode.size() - 1))];
    }

    // --- Same-seed replay ---------------------------------------------
    {
        ClusterEngine eng(cfg);
        auto chaos = killCampaign();
        const ClusterReport replay = run(eng, chaos, arrivals, nullptr);
        g_replayIdentical =
            replay.toJson() == g_kill.report.toJson();
    }

    // --- In-binary acceptance checks ----------------------------------
    if (!g_smoke)
        check(g_offeredRps >= 100'000.0,
              "offered load below 100k rps: " + fmt(g_offeredRps, 0));
    g_kill.report.reconcile();
    g_noFailover.report.reconcile();
    g_hedged.report.reconcile();
    g_unhedged.report.reconcile();
    const double floor =
        static_cast<double>(kHosts - 1) / static_cast<double>(kHosts);
    check(g_kill.goodputRatio >= floor,
          "failover goodput ratio " + fmt(g_kill.goodputRatio, 3) +
              " below (M-1)/M = " + fmt(floor, 3));
    check(g_kill.recoveryNs >= 0.0,
          "SLO violation rate never recovered after revival");
    check(g_kill.report.failed == 0,
          "failover run lost requests: " +
              std::to_string(g_kill.report.failed));
    check(g_noFailover.report.failed > 0,
          "ablation lost nothing - not a demonstrable degradation");
    check(g_noFailover.goodputRatio < g_kill.goodputRatio,
          "ablation goodput ratio not worse than failover");
    check(g_hedged.report.hedgesFired > 0, "no hedges fired");
    check(g_hedged.episodeP99Ns < g_unhedged.episodeP99Ns,
          "hedged episode p99 " + fmtNs(g_hedged.episodeP99Ns) +
              " not below unhedged " + fmtNs(g_unhedged.episodeP99Ns));
    check(g_replayIdentical, "same-seed replay diverged");

    // Burn-rate alerting: the naive cluster drops host 0's share of the
    // traffic on the floor during the kill, so the monitor must page
    // inside the crash window — and must be quiet in steady state
    // before the crash, in both runs.
    check(g_sloNoFailover->firingBetween(g_crashStartNs, g_crashEndNs),
          "no-failover: no SLO burn alert fired during the kill window");
    check(!g_sloNoFailover->firingBetween(0.0, g_crashStartNs),
          "no-failover: SLO alert fired before the crash (steady state)");
    check(!g_sloFailover->firingBetween(0.0, g_crashStartNs),
          "failover: SLO alert fired before the crash (steady state)");

    g_self.wallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
    g_self.traceEventsRecorded = g_trace.recordedEvents();
    g_self.traceEventsDropped = g_trace.droppedEvents();
}

void
printResults()
{
    printHeader("Cluster: " + std::to_string(kHosts) + " hosts x " +
                std::to_string(kStacksPerHost) +
                " PIM stacks, open-loop 0.6x capacity (seed 0x" +
                [] {
                    std::ostringstream os;
                    os << std::hex << g_seed;
                    return os.str();
                }() +
                ")");
    std::printf("batch-1 attempt %s, capacity %.0f req/s, offered %.0f "
                "req/s, deadline %s%s\n",
                fmtNs(g_estNs).c_str(), g_capacityRps, g_offeredRps,
                fmtNs(g_deadlineNs).c_str(),
                g_smoke ? " [smoke]" : "");

    printHeader("Host kill (host 0 down for the middle 30%)");
    printRow({"mode", "pre-goodput", "kill-goodput", "ratio", "failed",
              "retries", "recovery"},
             14);
    for (const KillResult *r : {&g_kill, &g_noFailover}) {
        printRow({r == &g_kill ? "failover" : "no-failover",
                  fmt(r->preGoodputRps, 0), fmt(r->killGoodputRps, 0),
                  fmt(r->goodputRatio, 3),
                  std::to_string(r->report.failed),
                  std::to_string(r->report.retries),
                  r->recoveryNs >= 0.0 ? fmtNs(r->recoveryNs) : "never"},
                 14);
    }
    const auto &h0 = g_kill.report.hosts[0];
    std::printf("host 0 health: %llu down entries, %llu recovering, %llu "
                "probes, final state %s\n",
                static_cast<unsigned long long>(h0.entries[2]),
                static_cast<unsigned long long>(h0.entries[3]),
                static_cast<unsigned long long>(h0.probes),
                healthStateName(h0.state));

    printHeader("Straggler episode (host 0 8x slow for the middle 30%)");
    printRow({"mode", "episode-p99", "hedges", "wins", "cancels"}, 14);
    printRow({"hedged", fmtNs(g_hedged.episodeP99Ns),
              std::to_string(g_hedged.report.hedgesFired),
              std::to_string(g_hedged.report.hedgeWins),
              std::to_string(g_hedged.report.hedgeCancels)},
             14);
    printRow({"unhedged", fmtNs(g_unhedged.episodeP99Ns), "0", "0", "0"},
             14);

    std::printf("\nsame-seed replay bit-identical: %s\n",
                g_replayIdentical ? "yes" : "NO");
    std::printf("slo alerts (no-failover): fired in kill window %s, "
                "quiet pre-crash %s\n",
                g_sloNoFailover->firingBetween(g_crashStartNs,
                                               g_crashEndNs)
                    ? "yes"
                    : "NO",
                g_sloNoFailover->firingBetween(0.0, g_crashStartNs)
                    ? "NO"
                    : "yes");
    if (g_failures.empty()) {
        std::printf("all %d acceptance checks passed\n",
                    g_smoke ? 11 : 12);
    } else {
        for (const auto &f : g_failures)
            std::fprintf(stderr, "ACCEPTANCE FAILURE: %s\n", f.c_str());
    }
}

void
writeWindows(JsonWriter &w, std::vector<Window> &windows)
{
    w.beginArray();
    for (auto &win : windows) {
        w.beginObject();
        w.field("start_ns", win.startNs);
        w.field("goodput_rps", win.goodputRps());
        w.field("violation_rate", win.violationRate());
        w.field("p99_ns", win.p99Ns());
        w.endObject();
    }
    w.endArray();
}

void
writeKill(JsonWriter &w, KillResult &r)
{
    w.field("pre_goodput_rps", r.preGoodputRps);
    w.field("kill_goodput_rps", r.killGoodputRps);
    w.field("goodput_ratio", r.goodputRatio);
    w.field("recovery_ns", r.recoveryNs);
    w.field("completed", r.report.completed);
    w.field("failed", r.report.failed);
    w.field("timed_out", r.report.timedOut);
    w.field("shed", r.report.shed);
    w.field("retries", r.report.retries);
    w.field("probes", r.report.probes);
    w.field("health_transitions", r.report.healthTransitions);
    w.key("windows");
    writeWindows(w, r.windows);
}

void
writeReport(JsonWriter &w)
{
    writeBenchPreamble(w, "cluster", g_seed, g_smoke,
                       "fault-tolerant cluster: replicated hosts, "
                       "failover, hedged requests",
                       &g_self);
    w.field("hosts", kHosts);
    w.field("stacks_per_host", kStacksPerHost);
    w.field("attempt_ns", g_estNs);
    w.field("capacity_rps", g_capacityRps);
    w.field("offered_rps", g_offeredRps);
    w.field("deadline_ns", g_deadlineNs);
    w.field("crash_start_ns", g_crashStartNs);
    w.field("crash_end_ns", g_crashEndNs);
    w.key("kill_failover").beginObject();
    writeKill(w, g_kill);
    w.key("slo");
    g_sloFailover->writeJson(w);
    w.endObject();
    w.key("kill_no_failover").beginObject();
    writeKill(w, g_noFailover);
    w.field("slo_fired_in_crash",
            g_sloNoFailover->firingBetween(g_crashStartNs, g_crashEndNs));
    w.field("slo_fired_pre_crash",
            g_sloNoFailover->firingBetween(0.0, g_crashStartNs));
    w.key("slo");
    g_sloNoFailover->writeJson(w);
    w.endObject();
    w.key("straggler").beginObject();
    w.field("hedged_p99_ns", g_hedged.episodeP99Ns);
    w.field("unhedged_p99_ns", g_unhedged.episodeP99Ns);
    w.field("hedges_fired", g_hedged.report.hedgesFired);
    w.field("hedge_wins", g_hedged.report.hedgeWins);
    w.field("hedge_cancels", g_hedged.report.hedgeCancels);
    w.endObject();
    w.field("replay_identical", g_replayIdentical);
    w.field("acceptance_failures",
            static_cast<std::uint64_t>(g_failures.size()));
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchFlags flags = parseBenchFlags(
        argc, argv, kFlagJsonOut | kFlagTraceOut | kFlagSmoke | kFlagSeed,
        {"BENCH_cluster.json", "", false, g_seed});
    g_traceOut = flags.traceOut;
    g_smoke = flags.smoke;
    g_seed = flags.seed;

    runExperiments();
    printResults();
    if (!writeJsonReport(flags.jsonOut, writeReport))
        return 1;
    if (!g_traceOut.empty() && !g_trace.writeFile(g_traceOut))
        return 1;
    return g_failures.empty() ? 0 : 1;
}
