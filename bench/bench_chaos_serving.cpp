/**
 * @file
 * Chaos-serving benchmark: graceful degradation of the resilient
 * serving path under uncorrectable-fault campaigns.
 *
 * Two experiments on one PIM-HBM stack serving a two-tenant mix with
 * per-request deadlines:
 *
 *  - Rate x policy sweep: a steady per-shard fault rate (off /
 *    negligible / harsh / severe) against three resilience policies
 *    (none, retry-only, retry + circuit breaker). Reported per cell:
 *    goodput (completions inside their deadline per second), SLO
 *    violation rate, shed / timed-out / retried / host-fallback counts
 *    and breaker activity. The headline expectation is graceful
 *    degradation: a negligible fault rate (1e-6 faults/s) keeps goodput
 *    within measurement noise of fault-free, and under harsh rates the
 *    resilient policies keep completing work the naive one times out.
 *  - Fault burst: a quiet baseline interrupted by a high-rate burst in
 *    the middle third of the run, under the full resilience policy.
 *    Windowed p99 latency before / during / after the burst shows the
 *    path absorbing the storm and recovering (p99 after within 2x
 *    before).
 *
 * Service times come from the real command-level simulator through the
 * shared ServiceTimeCache; the fault process, retry jitter and arrivals
 * are all seeded, so reruns are bit-identical. Results are printed as a
 * table and written as BENCH_chaos.json (validated with validateJson
 * before the file is written; an invalid document is a hard error).
 *
 * Flags:
 *   --json-out=FILE  result file (default BENCH_chaos.json; "" disables)
 *   --smoke          shrink horizons/rates for CI sanitizer runs
 *   --seed=N         override the arrival/fault/retry seed (recorded in
 *                    the JSON output)
 *   --trace-out=FILE Chrome-trace timeline of the fault-burst run
 *                    (tail-sampled per-request span trees)
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/json.h"
#include "common/reqtrace.h"
#include "common/trace.h"
#include "serve/chaos.h"
#include "serve/load_gen.h"
#include "serve/serving_engine.h"

using namespace pimsim;
using namespace pimsim::bench;
using namespace pimsim::serve;

namespace {

std::uint64_t g_seed = 0xc4a05; // overridable with --seed=

bool g_smoke = false;

/** Resilience policy under test. */
enum class Policy
{
    None,        ///< no retries, no breaker: failed batches go to host
    Retry,       ///< exponential-backoff retries only
    RetryBreaker ///< retries + per-shard circuit breaker
};

const char *
policyName(Policy p)
{
    switch (p) {
      case Policy::None:
        return "none";
      case Policy::Retry:
        return "retry";
      case Policy::RetryBreaker:
        return "retry+breaker";
    }
    return "?";
}

SystemConfig
servedSystem()
{
    SystemConfig c = SystemConfig::pimHbmSystem();
    c.numStacks = 1; // one stack, 16 pseudo channels
    return c;
}

/** A small FC stack: real PIM GEMVs, cheap enough for wide sweeps. */
AppSpec
chatApp(const std::string &name, unsigned dim)
{
    LayerSpec fc;
    fc.kind = LayerSpec::Kind::Fc;
    fc.hidden = dim;
    fc.input = dim;
    fc.steps = 2;
    fc.pimEligible = true;

    AppSpec app;
    app.name = name;
    app.layers = {fc};
    return app;
}

std::vector<TenantSpec>
tenantMix(double deadline_ns)
{
    TenantSpec a{"chat", chatApp("chat", 768), 1.0, deadline_ns};
    TenantSpec b{"embed", chatApp("embed", 512), 1.0, deadline_ns};
    return {a, b};
}

struct ChaosCell
{
    Policy policy = Policy::None;
    double faultsPerSec = 0.0;
    ServeReport report;
    double goodputRps = 0.0;     ///< in-deadline completions per second
    double sloViolationRate = 0.0;
    std::uint64_t breakerOpens = 0;
    std::uint64_t batchFaults = 0;
};

struct BurstResult
{
    double faultsPerSec = 0.0;      ///< burst-window rate
    double p99BeforeNs = 0.0;
    double p99DuringNs = 0.0;
    double p99AfterNs = 0.0;
    std::uint64_t completions = 0;
    ServeReport report;
};

std::vector<ChaosCell> g_cells;
BurstResult g_burst;
double g_capacityRps = 0.0;
double g_deadlineNs = 0.0;
std::string g_traceOut;   // --trace-out=: trace the fault-burst run
TraceSession g_trace;
RunSelfMetrics g_self;

ServeConfig
makeConfig(Policy policy, double deadline_ns, double batch_timeout_ns,
           const std::shared_ptr<ServiceTimeCache> &cache)
{
    ServeConfig config;
    config.system = servedSystem();
    config.tenants = tenantMix(deadline_ns);
    config.queue.depth = 64;
    config.sched.policy = SchedPolicy::BatchTimeout;
    config.sched.maxBatch = 8;
    config.sched.batchTimeoutNs = batch_timeout_ns;
    config.timingCache = cache;
    config.histBucketNs = 50'000;
    config.histBuckets = 16384;
    config.retrySeed = g_seed ^ 0x7e57;

    switch (policy) {
      case Policy::None:
        config.retry.maxRetries = 0;
        break;
      case Policy::Retry:
        config.retry.maxRetries = 2;
        break;
      case Policy::RetryBreaker:
        config.retry.maxRetries = 2;
        config.breaker.enabled = true;
        config.breaker.window = 16;
        config.breaker.minSamples = 4;
        config.breaker.errorThreshold = 0.5;
        break;
    }
    return config;
}

void
fillDerived(ChaosCell &cell, double horizon_ns)
{
    const TenantReport &total = cell.report.total;
    const std::uint64_t good = total.completed - total.sloViolations;
    cell.goodputRps = horizon_ns > 0.0
                          ? static_cast<double>(good) / (horizon_ns * 1e-9)
                          : 0.0;
    cell.sloViolationRate =
        total.completed
            ? static_cast<double>(total.sloViolations) /
                  static_cast<double>(total.completed)
            : 0.0;
    for (const auto &s : cell.report.shards) {
        cell.breakerOpens += s.opens;
        cell.batchFaults += s.batchFaults;
    }
}

void
runSweep()
{
    setQuiet(true);
    const auto wall_start = std::chrono::steady_clock::now();

    auto cache = std::make_shared<ServiceTimeCache>();

    // Calibrate offered load and deadlines from the measured batch-1
    // service times, as bench_serving does.
    ShardServiceModel probe(servedSystem(), 16, cache);
    const auto tenants = tenantMix(0.0);
    double mean_svc_ns = 0.0;
    for (const auto &t : tenants)
        mean_svc_ns += probe.serviceNs(t.app, 1);
    mean_svc_ns /= static_cast<double>(tenants.size());
    g_capacityRps = 1e9 / mean_svc_ns;
    g_deadlineNs = 25.0 * mean_svc_ns; // roomy SLO: queueing + one retry

    const double horizon_ns = (g_smoke ? 60.0 : 400.0) * mean_svc_ns;
    const double offered = 0.6 * g_capacityRps; // below saturation
    const double svc_s = mean_svc_ns * 1e-9;

    // Fault rates per shard, anchored to the service time: "harsh"
    // strikes ~5% of batches, "severe" ~20%.
    const std::vector<double> rates = {0.0, 1e-6, 0.05 / svc_s,
                                       0.2 / svc_s};
    const std::vector<Policy> policies = {Policy::None, Policy::Retry,
                                          Policy::RetryBreaker};

    std::vector<ArrivalSpec> specs;
    for (unsigned t = 0; t < tenants.size(); ++t)
        specs.push_back(
            ArrivalSpec{t, offered / static_cast<double>(tenants.size())});
    const auto arrivals = poissonArrivals(specs, horizon_ns, g_seed);

    for (const Policy policy : policies) {
        for (const double rate : rates) {
            ChaosCell cell;
            cell.policy = policy;
            cell.faultsPerSec = rate;
            ServingEngine engine(
                makeConfig(policy, g_deadlineNs, mean_svc_ns, cache));
            ChaosConfig chaos_config;
            chaos_config.faultsPerSec = rate;
            chaos_config.seed = g_seed ^ 0xfa017;
            ChaosCampaign chaos(chaos_config, engine.plan().numShards());
            engine.setFaultModel(&chaos);
            cell.report = runOpenLoop(engine, arrivals);
            cell.report.reconcile();
            fillDerived(cell, cell.report.horizonNs);
            g_self.simulatedNs += engine.nowNs();
            g_cells.push_back(std::move(cell));
        }
    }

    // Fault burst: quiet -> storm -> quiet under the full policy, with
    // windowed p99 computed from the raw completion stream.
    {
        const double burst_rate = 0.5 / svc_s;
        const double burst_horizon = (g_smoke ? 90.0 : 600.0) * mean_svc_ns;
        ServingEngine engine(makeConfig(Policy::RetryBreaker, g_deadlineNs,
                                        mean_svc_ns, cache));
        ChaosConfig chaos_config;
        chaos_config.faultsPerSec = 1e-6;
        chaos_config.burstStartNs = burst_horizon / 3.0;
        chaos_config.burstEndNs = 2.0 * burst_horizon / 3.0;
        chaos_config.burstFaultsPerSec = burst_rate;
        chaos_config.seed = g_seed ^ 0xb025;
        ChaosCampaign chaos(chaos_config, engine.plan().numShards());
        engine.setFaultModel(&chaos);
        // Trace the burst: the run where failover/retry span trees and
        // deadline misses are actually present.
        std::unique_ptr<RequestTracer> tracer;
        if (!g_traceOut.empty()) {
            engine.setTrace(&g_trace);
            RequestTracerConfig rc;
            rc.seed = g_seed;
            tracer = std::make_unique<RequestTracer>(rc);
            engine.setRequestTracer(tracer.get());
        }

        // Drive the engine directly (runOpenLoop discards the raw
        // completion stream, which the windowed p99 needs).
        const auto burst_arrivals =
            poissonArrivals(specs, burst_horizon, g_seed ^ 0xa221);
        for (const auto &a : burst_arrivals)
            engine.submit(a.tenant, std::max(a.ns, engine.nowNs()));
        engine.drain();
        g_self.simulatedNs += engine.nowNs();
        if (tracer)
            tracer->flush(g_trace);
        const auto completions = engine.takeCompletions();
        g_burst.report = engine.report();
        g_burst.report.reconcile();
        g_burst.faultsPerSec = burst_rate;

        std::vector<double> before, during, after;
        for (const ServeRequest &r : completions) {
            ++g_burst.completions;
            if (r.completeNs < chaos_config.burstStartNs)
                before.push_back(r.latencyNs());
            else if (r.completeNs < chaos_config.burstEndNs)
                during.push_back(r.latencyNs());
            else
                after.push_back(r.latencyNs());
        }
        auto p99 = [](std::vector<double> &v) {
            if (v.empty())
                return 0.0;
            std::sort(v.begin(), v.end());
            const auto idx = static_cast<std::size_t>(
                0.99 * static_cast<double>(v.size() - 1));
            return v[idx];
        };
        g_burst.p99BeforeNs = p99(before);
        g_burst.p99DuringNs = p99(during);
        g_burst.p99AfterNs = p99(after);
    }

    g_self.wallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
    g_self.traceEventsRecorded = g_trace.recordedEvents();
    g_self.traceEventsDropped = g_trace.droppedEvents();
}

void
printResults()
{
    char seed_text[32];
    std::snprintf(seed_text, sizeof(seed_text), "0x%llx",
                  static_cast<unsigned long long>(g_seed));
    printHeader("Chaos serving sweep: 2 tenants, deadline " +
                fmtNs(g_deadlineNs) + ", open-loop 0.6x capacity (seed " +
                std::string(seed_text) + ")");
    std::printf("batch-1 capacity: %.1f req/s%s\n\n", g_capacityRps,
                g_smoke ? " [smoke horizons]" : "");
    printRow({"policy", "faults/s", "goodput", "sloViol%", "shed",
              "timedOut", "retries", "fallback", "opens", "faults"},
             12);
    for (const auto &c : g_cells) {
        const auto &t = c.report.total;
        printRow({policyName(c.policy), fmt(c.faultsPerSec, 1),
                  fmt(c.goodputRps, 1), fmt(100.0 * c.sloViolationRate, 2),
                  std::to_string(t.shed), std::to_string(t.timedOut),
                  std::to_string(t.retries),
                  std::to_string(t.fallbackCompleted),
                  std::to_string(c.breakerOpens),
                  std::to_string(c.batchFaults)},
                 12);
    }

    printHeader("Fault burst (retry+breaker policy)");
    std::printf("burst rate %.1f faults/s over the middle third; %llu "
                "completions\n",
                g_burst.faultsPerSec,
                static_cast<unsigned long long>(g_burst.completions));
    printRow({"window", "p99"}, 12);
    printRow({"before", fmtNs(g_burst.p99BeforeNs)}, 12);
    printRow({"during", fmtNs(g_burst.p99DuringNs)}, 12);
    printRow({"after", fmtNs(g_burst.p99AfterNs)}, 12);

    std::printf("\nexpectation: goodput at 1e-6 faults/s is within 10%% of "
                "fault-free; under harsh\nrates retry+breaker keeps goodput "
                "highest; p99 after the burst recovers to\nwithin 2x the "
                "pre-burst baseline.\n");
}

void
writeTotals(JsonWriter &w, const TenantReport &t)
{
    w.field("submitted", t.submitted);
    w.field("admitted", t.admitted);
    w.field("rejected", t.rejected);
    w.field("completed", t.completed);
    w.field("shed", t.shed);
    w.field("timed_out", t.timedOut);
    w.field("retries", t.retries);
    w.field("fallback_completed", t.fallbackCompleted);
    w.field("slo_violations", t.sloViolations);
    w.field("throughput_rps", t.throughputRps);
    w.field("e2e_p50_ns", t.e2e.p50Ns);
    w.field("e2e_p99_ns", t.e2e.p99Ns);
}

/** The whole result document as a JSON string. */
void
writeReport(JsonWriter &w)
{
    writeBenchPreamble(w, "chaos_serving", g_seed, g_smoke,
                       "serving under injected faults on 1 PIM-HBM stack",
                       &g_self);
    w.field("capacity_rps", g_capacityRps);
    w.field("deadline_ns", g_deadlineNs);
    w.key("sweep").beginArray();
    for (const auto &c : g_cells) {
        w.beginObject();
        w.field("policy", policyName(c.policy));
        w.field("faults_per_sec", c.faultsPerSec);
        w.field("goodput_rps", c.goodputRps);
        w.field("slo_violation_rate", c.sloViolationRate);
        w.field("breaker_opens", c.breakerOpens);
        w.field("batch_faults", c.batchFaults);
        w.key("total").beginObject();
        writeTotals(w, c.report.total);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.key("burst").beginObject();
    w.field("faults_per_sec", g_burst.faultsPerSec);
    w.field("completions", g_burst.completions);
    w.field("p99_before_ns", g_burst.p99BeforeNs);
    w.field("p99_during_ns", g_burst.p99DuringNs);
    w.field("p99_after_ns", g_burst.p99AfterNs);
    w.key("total").beginObject();
    writeTotals(w, g_burst.report.total);
    w.endObject();
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchFlags flags = parseBenchFlags(
        argc, argv, kFlagJsonOut | kFlagTraceOut | kFlagSmoke | kFlagSeed,
        {"BENCH_chaos.json", "", false, g_seed});
    g_traceOut = flags.traceOut;
    g_smoke = flags.smoke;
    g_seed = flags.seed;

    runSweep();
    printResults();
    if (!writeJsonReport(flags.jsonOut, writeReport))
        return 1;
    if (!g_traceOut.empty() && !g_trace.writeFile(g_traceOut))
        return 1;
    return 0;
}
