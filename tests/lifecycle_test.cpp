/**
 * @file
 * Request-lifecycle tests. Each engine gets one scripted run with a
 * RequestTracer at head-sample 1.0 that reaches every terminal kind the
 * engine has; the run's report fields, its SLO observation stream and
 * its flushed trace JSON (and, where the engine has one, its stats
 * registry dump) are pinned to one FNV-1a digest, so any change
 * to terminal accounting, the SLO feed or the trace close shows up.
 * RequestLedger unit tests cover the SLO rule and the balance check.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster_engine.h"
#include "common/reqtrace.h"
#include "common/trace.h"
#include "llm/engine.h"
#include "serve/request_ledger.h"
#include "serve/serving_engine.h"

namespace pimsim {
namespace {

/** 64-bit FNV-1a over a run's observable outputs. */
class Fnv1a
{
  public:
    void bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ull;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v)
    {
        std::uint64_t b;
        std::memcpy(&b, &v, sizeof b);
        u64(b);
    }
    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    void latency(const serve::LatencySummary &s)
    {
        f64(s.meanNs);
        f64(s.p50Ns);
        f64(s.p95Ns);
        f64(s.p99Ns);
        f64(s.maxNs);
    }
    void slo(const std::vector<SloObservation> &obs)
    {
        u64(obs.size());
        for (const SloObservation &o : obs) {
            f64(o.tsNs);
            u64(o.good);
        }
    }
    /** Flush `tracer` into a fresh session and digest its JSON. */
    void traces(RequestTracer &tracer, TraceSession &session)
    {
        tracer.flush(session);
        std::ostringstream os;
        session.write(os);
        str(os.str());
        u64(tracer.tracesStarted());
        u64(tracer.tracesEnded());
        u64(tracer.mustKeepCount());
        u64(tracer.headSampledCount());
        u64(tracer.keptTraceIds().size());
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

SystemConfig
smallSystem()
{
    SystemConfig c = SystemConfig::pimHbmSystem();
    c.numStacks = 1; // 16 channels keeps tests fast
    c.geometry.rowsPerBank = 512;
    return c;
}

AppSpec
tinyApp(const std::string &name, unsigned dim = 256)
{
    LayerSpec fc;
    fc.kind = LayerSpec::Kind::Fc;
    fc.hidden = dim;
    fc.input = dim;
    fc.steps = 1;
    fc.pimEligible = true;

    AppSpec app;
    app.name = name;
    app.layers = {fc};
    return app;
}

// ------------------------------------------------------------------
// RequestLedger
// ------------------------------------------------------------------

using serve::RequestLedger;
using serve::Terminal;

TEST(RequestLedger, SloRuleJudgesEveryTerminal)
{
    RequestLedger ledger(kTracePidServing);
    ledger.addSlot("request a", 0);
    ledger.addSlot("request b", 1);
    for (int i = 0; i < 7; ++i)
        ledger.submit(i % 2, 0.0);

    // In time, exactly at the deadline, without one: good, not late.
    EXPECT_FALSE(ledger.finish(
        {.slot = 0, .arrivalNs = 0.0, .deadlineNs = 10.0, .endNs = 5.0}));
    EXPECT_FALSE(ledger.finish(
        {.slot = 1, .arrivalNs = 0.0, .deadlineNs = 10.0, .endNs = 10.0}));
    EXPECT_FALSE(ledger.finish({.slot = 0, .arrivalNs = 0.0, .endNs = 1e9}));
    // Past the deadline: late and bad.
    EXPECT_TRUE(ledger.finish(
        {.slot = 1, .arrivalNs = 0.0, .deadlineNs = 10.0, .endNs = 11.0}));
    // Ends that are not completions are bad and never late, even past
    // a deadline.
    EXPECT_FALSE(ledger.finish({.slot = 0,
                                .kind = Terminal::Shed,
                                .arrivalNs = 0.0,
                                .deadlineNs = 10.0,
                                .endNs = 0.0}));
    EXPECT_FALSE(ledger.finish({.slot = 1,
                                .kind = Terminal::TimedOut,
                                .arrivalNs = 0.0,
                                .deadlineNs = 10.0,
                                .endNs = 10.0}));
    EXPECT_FALSE(ledger.finish({.slot = 0,
                                .kind = Terminal::Failed,
                                .arrivalNs = 0.0,
                                .deadlineNs = 10.0,
                                .endNs = 20.0}));

    std::vector<bool> good;
    for (const SloObservation &o : ledger.takeSloObservations())
        good.push_back(o.good);
    EXPECT_EQ(good, (std::vector<bool>{true, true, true, false, false,
                                       false, false}));
    EXPECT_TRUE(ledger.takeSloObservations().empty());

    const serve::LedgerCounts a = ledger.counts(0);
    EXPECT_EQ(a.submitted, 4u);
    EXPECT_EQ(a.completed, 2u);
    EXPECT_EQ(a.shed, 1u);
    EXPECT_EQ(a.failed, 1u);
    EXPECT_EQ(a.sloViolations, 0u);
    const serve::LedgerCounts total = ledger.total();
    EXPECT_EQ(total.submitted, 7u);
    EXPECT_EQ(total.completed, 4u);
    EXPECT_EQ(total.timedOut, 1u);
    EXPECT_EQ(total.sloViolations, 1u);
    serve::assertBalanced(total, "test", "total");
}

TEST(RequestLedger, ErredLateCompletionIsAViolationObservedBad)
{
    RequestLedger ledger(kTracePidServing);
    ledger.addSlot("request a", 0);
    RequestTracer tracer;
    ledger.setTracer(&tracer);
    const RequestTraceContext ctx = ledger.submit(0, 0.0);
    ASSERT_TRUE(ctx.active());
    EXPECT_TRUE(ledger.finish({.arrivalNs = 0.0,
                               .deadlineNs = 10.0,
                               .endNs = 12.0,
                               .trace = ctx,
                               .erred = true}));

    const serve::LedgerCounts &c = ledger.counts(0);
    EXPECT_EQ(c.completed, 1u);
    EXPECT_EQ(c.sloViolations, 1u);
    const std::vector<SloObservation> obs = ledger.takeSloObservations();
    ASSERT_EQ(obs.size(), 1u);
    EXPECT_EQ(obs[0].tsNs, 12.0);
    EXPECT_FALSE(obs[0].good);
    // The trace closed as an erred (must-keep) request.
    EXPECT_EQ(tracer.tracesEnded(), 1u);
    EXPECT_EQ(tracer.mustKeepCount(), 1u);
    EXPECT_TRUE(tracer.kept(ctx.traceId));
}

TEST(RequestLedgerDeathTest, UnbalancedLedgerPanics)
{
    RequestLedger ledger(kTracePidCluster);
    ledger.addSlot("request", 0);
    ledger.submit(0, 0.0);
    ledger.submit(0, 1.0);
    ledger.finish({.kind = Terminal::Rejected});
    EXPECT_DEATH(serve::assertBalanced(ledger.total(), "cluster", "total"),
                 "accounting leak for 'total'");
}

RequestTracer
keepEverything()
{
    RequestTracerConfig rc;
    rc.headSampleRate = 1.0;
    return RequestTracer(rc);
}

// ------------------------------------------------------------------
// ServingEngine
// ------------------------------------------------------------------

/** Every PIM batch that starts inside [from, to) fails. */
class FailWindow : public serve::FaultModel
{
  public:
    FailWindow(double from, double to) : from_(from), to_(to) {}

    unsigned faultEvents(unsigned, double start_ns, double) override
    {
        return start_ns >= from_ && start_ns < to_ ? 1u : 0u;
    }

  private:
    double from_, to_;
};

/** One silent corruption on every channel at instant `at`. */
class SdcAt : public serve::SdcModel
{
  public:
    explicit SdcAt(double at) : at_(at) {}

    std::vector<serve::SdcEvent>
    sdcEvents(unsigned channel, double start_ns, double end_ns) override
    {
        if (at_ >= start_ns && at_ < end_ns)
            return {serve::SdcEvent{at_, channel, 0}};
        return {};
    }

  private:
    double at_;
};

void
digestTenant(Fnv1a &h, const serve::TenantReport &t)
{
    h.str(t.name);
    for (const std::uint64_t v :
         {t.submitted, t.admitted, t.rejected, t.completed, t.batches,
          t.shed, t.timedOut, t.retries, t.fallbackCompleted,
          t.sloViolations, t.silentlyWrong})
        h.u64(v);
    h.f64(t.servedNs);
    h.f64(t.throughputRps);
    h.latency(t.queue);
    h.latency(t.service);
    h.latency(t.e2e);
}

TEST(Lifecycle, ServingEngineReachesEveryTerminalKind)
{
    const auto cache = std::make_shared<serve::ServiceTimeCache>();
    const AppSpec app = tinyApp("tiny");
    const double svc = serve::ShardServiceModel(smallSystem(), 16, cache)
                           .serviceNs(app, 1);

    serve::ServeConfig config;
    config.system = smallSystem();
    config.timingCache = cache;
    config.queue.depth = 6;
    config.retry.maxRetries = 1;
    config.retry.baseBackoffNs = svc;
    config.retry.jitterFrac = 0.0;
    config.sdc.enabled = true;
    config.sdc.abft = false; // struck batches complete silently wrong
    serve::TenantSpec slo;
    slo.name = "slo";
    slo.app = app;
    slo.deadlineNs = 5.0 * svc;
    serve::TenantSpec bulk;
    bulk.name = "bulk";
    bulk.app = app;
    config.tenants = {slo, bulk};

    serve::ServingEngine engine(config);
    RequestTracer tracer = keepEverything();
    TraceSession session;
    engine.setTrace(&session);
    engine.setRequestTracer(&tracer);
    // Failures in [20, 40) svc retry once, then run on the host path;
    // the slower host path makes deadlines slip.
    FailWindow faults(20.0 * svc, 40.0 * svc);
    engine.setFaultModel(&faults);
    SdcAt sdc(70.5 * svc);
    engine.setSdcModel(&sdc);

    // A burst at t=0 overflows the queue and the deadline gate; then a
    // steady stream through the fault window and the corruption.
    for (unsigned i = 0; i < 12; ++i)
        engine.submit(i % 2, 0.0);
    for (unsigned i = 0; i < 200; ++i)
        engine.submit(i % 2, 10.0 * svc + 0.45 * svc * i);
    engine.drain();

    const serve::ServeReport r = engine.report();
    r.reconcile();
    EXPECT_GT(r.total.completed, 0u);
    EXPECT_GT(r.total.sloViolations, 0u);
    EXPECT_GT(r.total.fallbackCompleted, 0u);
    EXPECT_GT(r.total.silentlyWrong, 0u);
    EXPECT_GT(r.total.shed, 0u);
    EXPECT_GT(r.total.rejected, 0u);
    EXPECT_GT(r.total.timedOut, 0u);

    Fnv1a h;
    h.f64(r.horizonNs);
    for (const serve::TenantReport &t : r.tenants)
        digestTenant(h, t);
    digestTenant(h, r.total);
    for (const serve::ShardResilienceReport &s : r.shards) {
        h.u64(s.shard);
        h.u64(static_cast<std::uint64_t>(s.state));
        for (const std::uint64_t v : {s.opens, s.closes, s.probes,
                                      s.batchFaults})
            h.u64(v);
    }
    std::ostringstream stats;
    engine.system().statsRegistry().dumpJson(stats);
    h.str(stats.str());
    const std::vector<SloObservation> obs = engine.takeSloObservations();
    EXPECT_EQ(obs.size(), r.total.submitted);
    h.slo(obs);
    h.traces(tracer, session);
    EXPECT_EQ(h.value(), 0x07ff0e763a313627ull) << std::hex << h.value();
}

// ------------------------------------------------------------------
// LlmEngine
// ------------------------------------------------------------------

void
digestTenant(Fnv1a &h, const llm::LlmTenantReport &t)
{
    h.str(t.name);
    for (const std::uint64_t v :
         {t.submitted, t.admitted, t.rejected, t.shed, t.timedOut,
          t.completed, t.preemptions, t.sloViolations, t.tokensOut})
        h.u64(v);
    h.f64(t.goodputTokensPerSec);
    h.latency(t.ttft);
    h.latency(t.perToken);
    h.latency(t.e2e);
}

TEST(Lifecycle, LlmEngineReachesEveryTerminalKind)
{
    llm::LlmEngineConfig cfg;
    cfg.system = smallSystem();
    cfg.decoder = llm::DecoderSpec::tiny();
    cfg.batcher.maxBatch = 2;
    cfg.batcher.maxQueue = 4;
    cfg.timingCache = std::make_shared<serve::ServiceTimeCache>();
    // A 4-block cap seats one 3-block request at a time once both
    // grow: two members evict and requeue.
    cfg.tenants = {llm::LlmTenantSpec{"free", 0.0, 4},
                   llm::LlmTenantSpec{"slo", 0.0, 0}};

    // Calibrate the slo tenant's deadline on one uncontended request.
    double alone_ns = 0.0;
    {
        llm::LlmEngine probe(cfg);
        probe.submit(1, 0.0, 16, 8);
        probe.drain();
        alone_ns = probe.takeCompletions().at(0).completeNs;
    }
    cfg.tenants[1].deadlineNs = 3.0 * alone_ns;

    llm::LlmEngine engine(cfg);
    RequestTracer tracer = keepEverything();
    TraceSession session;
    engine.setTrace(&session);
    engine.setRequestTracer(&tracer);

    // Infeasible at any load: rejected.
    EXPECT_FALSE(engine.submit(0, 0.0, cfg.decoder.maxContextTokens, 8));
    // Hopeless against its deadline even alone: shed.
    EXPECT_FALSE(engine.submit(1, 0.0, 16, 1024));
    // Two growing members of the capped tenant force preemption.
    EXPECT_TRUE(engine.submit(0, 0.0, 48, 48));
    EXPECT_TRUE(engine.submit(0, 0.0, 48, 48));
    // The batch is full; these wait, the slo ones past their deadline.
    EXPECT_TRUE(engine.submit(1, 1.0, 16, 8));
    EXPECT_TRUE(engine.submit(1, 1.0, 16, 8));
    EXPECT_TRUE(engine.submit(0, 1.0, 16, 8));
    // The wait queue is full.
    EXPECT_FALSE(engine.submit(1, 2.0, 16, 8));
    engine.drain();

    const llm::LlmReport r = engine.report();
    r.reconcile();
    EXPECT_GT(r.total.completed, 0u);
    EXPECT_GT(r.total.preemptions, 0u);
    EXPECT_GT(r.total.shed, 0u);
    EXPECT_GE(r.total.rejected, 2u);
    EXPECT_GT(r.total.timedOut, 0u);

    Fnv1a h;
    h.f64(r.horizonNs);
    for (const llm::LlmTenantReport &t : r.tenants)
        digestTenant(h, t);
    digestTenant(h, r.total);
    for (const std::uint64_t v :
         {r.iterations, r.faultedIterations, r.kvBlocksAllocated,
          r.kvBlocksFreed, r.kvPeakResidentBlocks, r.kvAllocFailures})
        h.u64(v);
    h.f64(r.meanBatch);
    std::ostringstream stats;
    engine.writeStats(stats);
    h.str(stats.str());
    const std::vector<SloObservation> obs = engine.takeSloObservations();
    EXPECT_EQ(obs.size(), r.total.submitted);
    h.slo(obs);
    h.traces(tracer, session);
    EXPECT_EQ(h.value(), 0x7ef084fef1bc3b2full) << std::hex << h.value();
}

// ------------------------------------------------------------------
// ClusterEngine
// ------------------------------------------------------------------

/**
 * Host 2 straggles (hedges fire against it) and host 0 crashes for good
 * at `crash_ns` (the surviving capacity shrinks, so admission sheds).
 * Request ids in `doomed` lose every copy (attempts exhausted) and ids
 * divisible by 5 lose their first copy (failover).
 */
class ScriptedHostFaults : public serve::HostFaultModel
{
  public:
    ScriptedHostFaults(double crash_ns, std::set<std::uint64_t> doomed)
        : crashNs_(crash_ns), doomed_(std::move(doomed))
    {
    }

    bool hostCrashed(unsigned host, double, double end_ns) override
    {
        return host == 0 && end_ns >= crashNs_;
    }
    double hostSlowdown(unsigned host, double) override
    {
        return host == 2 ? 8.0 : 1.0;
    }
    bool linkDropped(unsigned, std::uint64_t transfer_id, double) override
    {
        // Transfer id = request id << 12 | prior attempts << 1 | hedge;
        // probes carry 0xffff in the top 16 bits.
        if ((transfer_id >> 48) == 0xffff)
            return false;
        const std::uint64_t id = transfer_id >> 12;
        return doomed_.count(id) != 0 ||
               (id % 5 == 0 && (transfer_id & 0xfff) == 0);
    }

  private:
    double crashNs_;
    std::set<std::uint64_t> doomed_;
};

TEST(Lifecycle, ClusterEngineReachesEveryTerminalKind)
{
    cluster::ClusterConfig cfg;
    cfg.system = smallSystem();
    cfg.numHosts = 3;
    cfg.stacksPerHost = 2;
    cfg.app = tinyApp("tiny-fc256");
    cfg.queueDepth = 6;
    cfg.maxAttempts = 2;
    cfg.hedge.enabled = true;
    cfg.hedge.minSamples = 4;
    cfg.router.health.probeIntervalNs = 1e15;
    const double est = cluster::ClusterEngine(cfg).attemptEstimateNs();
    cfg.deadlineNs = 3.0 * est;
    cfg.timeoutNs = 1.2 * est;

    cluster::ClusterEngine engine(cfg);
    RequestTracer tracer = keepEverything();
    TraceSession session;
    engine.setTrace(&session);
    engine.setRequestTracer(&tracer);
    ScriptedHostFaults faults(40.0 * est, {3, 17, 40});
    engine.setFaultModel(&faults);

    // Steady load with a burst that overflows the router queue while
    // all three hosts are up, then the same once host 0 is down, when
    // the admission estimate sheds first.
    std::vector<double> arrivals;
    for (unsigned i = 0; i < 75; ++i)
        arrivals.push_back(0.4 * est * i);
    for (unsigned i = 0; i < 20; ++i)
        arrivals.push_back(10.0 * est + 0.001 * est * i);
    for (unsigned i = 0; i < 75; ++i)
        arrivals.push_back(50.0 * est + 0.4 * est * i);
    for (unsigned i = 0; i < 20; ++i)
        arrivals.push_back(60.0 * est + 0.001 * est * i);
    std::sort(arrivals.begin(), arrivals.end());
    for (const double a : arrivals)
        engine.submit(a);
    engine.drain();

    const cluster::ClusterReport r = engine.report();
    r.reconcile();
    EXPECT_GT(r.completed, 0u);
    EXPECT_GT(r.shed, 0u);
    EXPECT_GT(r.rejected, 0u);
    EXPECT_GT(r.timedOut, 0u);
    EXPECT_GT(r.failed, 0u);
    EXPECT_GT(r.hedgesFired, 0u);
    EXPECT_GT(r.retries, 0u);

    Fnv1a h;
    h.str(r.toJson());
    const std::vector<SloObservation> obs = engine.takeSloObservations();
    EXPECT_EQ(obs.size(), r.submitted);
    h.slo(obs);
    h.traces(tracer, session);
    EXPECT_EQ(h.value(), 0x912b11c658d5fedaull) << std::hex << h.value();
}

} // namespace
} // namespace pimsim
