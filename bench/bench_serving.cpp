/**
 * @file
 * Multi-tenant serving benchmark: tail latency and throughput of the
 * request-serving layer under load.
 *
 * Two tenants (GNMT and DS2, the paper's Section VII-A applications)
 * share one PIM-HBM stack. An open-loop Poisson load generator sweeps
 * offered load at 0.5x / 1.0x / 2.0x of the device's measured batch-1
 * capacity, against three scheduling policies (FCFS, batching with
 * timeout, weighted fair share). Per-tenant throughput and p50/p95/p99
 * end-to-end latency are reported as a table, as CSV and as JSON. A
 * closed-loop section sweeps concurrency for the batching policy.
 *
 * Kernel service times come from the real command-level simulator via
 * the shared ServiceTimeCache, so each distinct (app, batch) shape is
 * simulated exactly once across the whole sweep. Everything is seeded;
 * reruns are bit-identical.
 *
 * Flags (stripped before google/benchmark parsing):
 *   --json-out=FILE  result file (default BENCH_serving.json)
 *   --seed=N         override the arrival seed (recorded in the JSON
 *                    output)
 *   --trace-out=FILE Chrome-trace timeline of the overload batching
 *                    cell (tail-sampled per-request span trees)
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/json.h"
#include "common/reqtrace.h"
#include "common/trace.h"
#include "serve/load_gen.h"
#include "serve/serving_engine.h"

using namespace pimsim;
using namespace pimsim::bench;
using namespace pimsim::serve;

namespace {

std::uint64_t g_seed = 0x5e21e5; // overridable with --seed=
constexpr unsigned kMaxBatch = 8;
constexpr double kQueueDepth = 64;

SystemConfig
servedSystem()
{
    SystemConfig c = SystemConfig::pimHbmSystem();
    c.numStacks = 1; // one stack, 16 pseudo channels
    return c;
}

std::vector<TenantSpec>
tenantMix()
{
    return {TenantSpec{"gnmt", gnmtApp(), 1.0},
            TenantSpec{"ds2", ds2App(), 1.0}};
}

struct SweepCell
{
    SchedPolicy policy = SchedPolicy::Fcfs;
    double loadFactor = 0.0; ///< offered load / batch-1 capacity
    double offeredRps = 0.0; ///< total across tenants
    ServeReport report;
};

struct ClosedCell
{
    unsigned concurrency = 0;
    ServeReport report;
};

std::vector<SweepCell> g_cells;
std::vector<ClosedCell> g_closed;
double g_capacityRps = 0.0;
std::string g_traceOut;        // --trace-out=: trace the overload cell
TraceSession g_trace;          // per-shard batch spans + request trees
RunSelfMetrics g_self;         // the run's own cost, into the preamble

ServeConfig
makeConfig(SchedPolicy policy, double batch_timeout_ns,
           const std::shared_ptr<ServiceTimeCache> &cache)
{
    ServeConfig config;
    config.system = servedSystem();
    config.tenants = tenantMix();
    config.queue.depth = static_cast<unsigned>(kQueueDepth);
    config.sched.policy = policy;
    config.sched.maxBatch = kMaxBatch;
    config.sched.batchTimeoutNs = batch_timeout_ns;
    config.timingCache = cache;
    // App-level latencies run to seconds under overload; widen the
    // histogram to 2 ms x 16384 = ~32 s so the tail stays resolvable.
    config.histBucketNs = 2'000'000;
    config.histBuckets = 16384;
    return config;
}

void
runSweep()
{
    setQuiet(true);
    if (!g_cells.empty())
        return;
    const auto wall_start = std::chrono::steady_clock::now();

    auto cache = std::make_shared<ServiceTimeCache>();

    // Calibrate: batch-1 service time of each tenant's app on the full
    // device defines the FCFS saturation point the sweep is relative to.
    ShardServiceModel probe(servedSystem(), 16, cache);
    const auto tenants = tenantMix();
    double mean_svc_ns = 0.0;
    for (const auto &t : tenants)
        mean_svc_ns += probe.serviceNs(t.app, 1);
    mean_svc_ns /= static_cast<double>(tenants.size());
    g_capacityRps = 1e9 / mean_svc_ns;

    const double horizon_ns = 300.0 * mean_svc_ns;
    const std::vector<double> loads = {0.5, 1.0, 2.0};
    const std::vector<SchedPolicy> policies = {
        SchedPolicy::Fcfs, SchedPolicy::BatchTimeout, SchedPolicy::FairShare};

    for (const SchedPolicy policy : policies) {
        for (const double load : loads) {
            // Split the offered load evenly across the tenants.
            const double per_tenant_rps =
                load * g_capacityRps / static_cast<double>(tenants.size());
            std::vector<ArrivalSpec> specs;
            for (unsigned t = 0; t < tenants.size(); ++t)
                specs.push_back(ArrivalSpec{t, per_tenant_rps});
            const auto arrivals = poissonArrivals(specs, horizon_ns, g_seed);

            SweepCell cell;
            cell.policy = policy;
            cell.loadFactor = load;
            cell.offeredRps = load * g_capacityRps;
            ServingEngine engine(makeConfig(policy, mean_svc_ns, cache));
            // Trace the most stressed batching cell: that is where
            // sampled span trees are worth reading.
            std::unique_ptr<RequestTracer> tracer;
            const bool traced = !g_traceOut.empty() &&
                                policy == SchedPolicy::BatchTimeout &&
                                load == 2.0;
            if (traced) {
                engine.setTrace(&g_trace);
                RequestTracerConfig rc;
                rc.seed = g_seed;
                tracer = std::make_unique<RequestTracer>(rc);
                engine.setRequestTracer(tracer.get());
            }
            cell.report = runOpenLoop(engine, arrivals);
            cell.report.reconcile();
            g_self.simulatedNs += engine.nowNs();
            if (traced)
                tracer->flush(g_trace);
            g_cells.push_back(std::move(cell));
        }
    }

    // Closed loop: sustainable throughput of the batching policy as the
    // per-tenant client concurrency grows.
    for (const unsigned conc : {1u, 4u, 16u}) {
        ClosedCell cell;
        cell.concurrency = conc;
        ServingEngine engine(
            makeConfig(SchedPolicy::BatchTimeout, mean_svc_ns, cache));
        cell.report = runClosedLoop(engine, conc, 60);
        cell.report.reconcile();
        g_self.simulatedNs += engine.nowNs();
        g_closed.push_back(std::move(cell));
    }

    g_self.wallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
    g_self.traceEventsRecorded = g_trace.recordedEvents();
    g_self.traceEventsDropped = g_trace.droppedEvents();
}

void
printTenantRow(const std::string &policy, double load,
               const TenantReport &t)
{
    printRow({policy, fmt(load, 1), t.name, std::to_string(t.submitted),
              std::to_string(t.rejected), fmt(t.throughputRps, 1),
              fmtNs(t.e2e.p50Ns), fmtNs(t.e2e.p95Ns), fmtNs(t.e2e.p99Ns)},
             10);
}

void
printResults()
{
    char seed_text[32];
    std::snprintf(seed_text, sizeof(seed_text), "0x%llx",
                  static_cast<unsigned long long>(g_seed));
    printHeader("Serving sweep: 2 tenants (GNMT+DS2), open-loop Poisson "
                "(seed " +
                std::string(seed_text) + ")");
    std::printf("batch-1 capacity: %.1f req/s; queue depth %u; max batch "
                "%u\n\n",
                g_capacityRps, static_cast<unsigned>(kQueueDepth),
                kMaxBatch);
    printRow({"policy", "load", "tenant", "submit", "reject", "rps", "p50",
              "p95", "p99"},
             10);
    for (const auto &c : g_cells) {
        for (const auto &t : c.report.tenants)
            printTenantRow(schedPolicyName(c.policy), c.loadFactor, t);
        printTenantRow(schedPolicyName(c.policy), c.loadFactor,
                       c.report.total);
    }

    printHeader("CSV");
    std::printf("policy,load,tenant,submitted,admitted,rejected,completed,"
                "batches,throughput_rps,queue_p50_ns,e2e_p50_ns,e2e_p95_ns,"
                "e2e_p99_ns,e2e_mean_ns\n");
    for (const auto &c : g_cells) {
        for (const auto &t : c.report.tenants) {
            std::printf("%s,%.2f,%s,%llu,%llu,%llu,%llu,%llu,%.2f,%.0f,"
                        "%.0f,%.0f,%.0f,%.0f\n",
                        schedPolicyName(c.policy), c.loadFactor,
                        t.name.c_str(),
                        static_cast<unsigned long long>(t.submitted),
                        static_cast<unsigned long long>(t.admitted),
                        static_cast<unsigned long long>(t.rejected),
                        static_cast<unsigned long long>(t.completed),
                        static_cast<unsigned long long>(t.batches),
                        t.throughputRps, t.queue.p50Ns, t.e2e.p50Ns,
                        t.e2e.p95Ns, t.e2e.p99Ns, t.e2e.meanNs);
        }
    }

    printHeader("JSON");
    std::printf("[\n");
    for (std::size_t i = 0; i < g_cells.size(); ++i) {
        const auto &c = g_cells[i];
        std::printf("  {\"policy\": \"%s\", \"load\": %.2f, \"total_rps\": "
                    "%.2f, \"rejected\": %llu, \"e2e_p50_ns\": %.0f, "
                    "\"e2e_p95_ns\": %.0f, \"e2e_p99_ns\": %.0f, "
                    "\"tenants\": [",
                    schedPolicyName(c.policy), c.loadFactor,
                    c.report.total.throughputRps,
                    static_cast<unsigned long long>(c.report.total.rejected),
                    c.report.total.e2e.p50Ns, c.report.total.e2e.p95Ns,
                    c.report.total.e2e.p99Ns);
        for (std::size_t t = 0; t < c.report.tenants.size(); ++t) {
            const auto &r = c.report.tenants[t];
            std::printf("{\"name\": \"%s\", \"rps\": %.2f, \"p99_ns\": "
                        "%.0f}%s",
                        r.name.c_str(), r.throughputRps, r.e2e.p99Ns,
                        t + 1 < c.report.tenants.size() ? ", " : "");
        }
        std::printf("]}%s\n", i + 1 < g_cells.size() ? "," : "");
    }
    std::printf("]\n");

    printHeader("Closed loop (batch policy, 60 requests/tenant)");
    printRow({"conc", "completed", "rps", "p50", "p95", "p99"}, 12);
    for (const auto &c : g_closed) {
        printRow({std::to_string(c.concurrency),
                  std::to_string(c.report.total.completed),
                  fmt(c.report.total.throughputRps, 1),
                  fmtNs(c.report.total.e2e.p50Ns),
                  fmtNs(c.report.total.e2e.p95Ns),
                  fmtNs(c.report.total.e2e.p99Ns)},
                 12);
    }

    std::printf("\nexpectation: at load 2.0 the batching policy amortises "
                "kernel launches and\nsustains higher throughput with fewer "
                "rejections than FCFS; fair share keeps\nthe two tenants' "
                "completed rates matched under overload.\n");
}

void
writeLatency(JsonWriter &w, const char *key, const LatencySummary &s)
{
    w.key(key).beginObject();
    w.field("mean_ns", s.meanNs);
    w.field("p50_ns", s.p50Ns);
    w.field("p95_ns", s.p95Ns);
    w.field("p99_ns", s.p99Ns);
    w.field("max_ns", s.maxNs);
    w.endObject();
}

void
writeTenant(JsonWriter &w, const TenantReport &t)
{
    w.beginObject();
    w.field("name", t.name);
    w.field("submitted", t.submitted);
    w.field("admitted", t.admitted);
    w.field("rejected", t.rejected);
    w.field("completed", t.completed);
    w.field("batches", t.batches);
    w.field("throughput_rps", t.throughputRps);
    writeLatency(w, "queue", t.queue);
    writeLatency(w, "e2e", t.e2e);
    w.endObject();
}

/** Machine-readable sweep results (BENCH_serving.json at the repo root). */
void
writeJsonReport(const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        PIMSIM_WARN("cannot open bench output '", path, "'");
        return;
    }
    JsonWriter w(os, /*pretty=*/true);
    w.beginObject();
    writeBenchPreamble(w, "serving", g_seed, false,
                       "multi-tenant serving: policy x load sweep on 1 "
                       "PIM-HBM stack",
                       &g_self);
    w.field("capacity_rps", g_capacityRps);
    w.key("open_loop").beginArray();
    for (const auto &c : g_cells) {
        w.beginObject();
        w.field("policy", schedPolicyName(c.policy));
        w.field("load_factor", c.loadFactor);
        w.field("offered_rps", c.offeredRps);
        w.key("total");
        writeTenant(w, c.report.total);
        w.key("tenants").beginArray();
        for (const auto &t : c.report.tenants)
            writeTenant(w, t);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("closed_loop").beginArray();
    for (const auto &c : g_closed) {
        w.beginObject();
        w.field("concurrency", c.concurrency);
        w.key("total");
        writeTenant(w, c.report.total);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

void
BM_Serving(benchmark::State &state)
{
    for (auto _ : state)
        runSweep();
    const auto &c = g_cells.at(static_cast<std::size_t>(state.range(0)));
    state.counters["offered_rps"] = c.offeredRps;
    state.counters["rps"] = c.report.total.throughputRps;
    state.counters["rejected"] =
        static_cast<double>(c.report.total.rejected);
    state.counters["p50_ns"] = c.report.total.e2e.p50Ns;
    state.counters["p95_ns"] = c.report.total.e2e.p95Ns;
    state.counters["p99_ns"] = c.report.total.e2e.p99Ns;
    state.SetLabel(std::string(schedPolicyName(c.policy)) + "/load_" +
                   fmt(c.loadFactor, 1));
}

} // namespace

int
main(int argc, char **argv)
{
    // Take our flags before google/benchmark sees (and rejects) them.
    BenchFlags flags{"BENCH_serving.json", g_traceOut, false, g_seed};
    parseBenchFlags(argc, argv, kFlagJsonOut | kFlagTraceOut | kFlagSeed,
                    flags);
    const std::string &json_out = flags.jsonOut;
    g_traceOut = flags.traceOut;
    g_seed = flags.seed;

    runSweep();
    for (std::size_t i = 0; i < g_cells.size(); ++i) {
        const auto &c = g_cells[i];
        benchmark::RegisterBenchmark(
            ("Serving/" + std::string(schedPolicyName(c.policy)) +
             "/load_" + fmt(c.loadFactor, 1))
                .c_str(),
            BM_Serving)
            ->Arg(static_cast<int>(i))
            ->Iterations(1);
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    printResults();
    if (!json_out.empty())
        writeJsonReport(json_out);
    if (!g_traceOut.empty() && !g_trace.writeFile(g_traceOut))
        return 1;
    return 0;
}
