/**
 * @file
 * Cluster-tier tests: link occupancy, the four-state health detector,
 * host-level chaos faults, and the ClusterEngine's failover, hedging,
 * admission, accounting, and deterministic-replay guarantees.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "cluster/cluster_engine.h"
#include "cluster/host.h"
#include "cluster/interconnect.h"
#include "cluster/router.h"
#include "serve/chaos.h"
#include "serve/load_gen.h"

namespace pimsim::cluster {
namespace {

SystemConfig
smallSystem()
{
    SystemConfig c = SystemConfig::pimHbmSystem();
    c.numStacks = 1; // 16 channels keeps tests fast
    c.geometry.rowsPerBank = 512;
    return c;
}

AppSpec
tinyApp(unsigned dim = 256)
{
    LayerSpec fc;
    fc.kind = LayerSpec::Kind::Fc;
    fc.hidden = dim;
    fc.input = dim;
    fc.steps = 1;
    fc.pimEligible = true;

    AppSpec app;
    app.name = "tiny-fc" + std::to_string(dim);
    app.layers = {fc};
    return app;
}

ClusterConfig
smallCluster(unsigned hosts = 2, unsigned stacks = 1)
{
    ClusterConfig c;
    c.system = smallSystem();
    c.numHosts = hosts;
    c.stacksPerHost = stacks;
    c.app = tinyApp();
    return c;
}

// ------------------------------------------------------------------
// Link occupancy
// ------------------------------------------------------------------

TEST(Link, UncontendedTransferPaysSerializationPlusLatency)
{
    LinkConfig cfg;
    cfg.latencyNs = 100.0;
    cfg.bandwidthGBs = 1.0; // 1 byte/ns
    Link link(cfg);

    EXPECT_DOUBLE_EQ(link.uncontendedNs(500), 600.0);
    EXPECT_DOUBLE_EQ(link.transfer(500, 0.0), 600.0);
    EXPECT_DOUBLE_EQ(link.busyNs(), 500.0);
}

TEST(Link, BackToBackTransfersSerialize)
{
    LinkConfig cfg;
    cfg.latencyNs = 100.0;
    cfg.bandwidthGBs = 1.0;
    Link link(cfg);

    // Both enter at t=0: the second waits for the first's 500ns of
    // serialization, then pays its own plus propagation.
    EXPECT_DOUBLE_EQ(link.transfer(500, 0.0), 600.0);
    EXPECT_DOUBLE_EQ(link.transfer(500, 0.0), 1100.0);
    // A transfer entering after the link idles starts immediately.
    EXPECT_DOUBLE_EQ(link.transfer(500, 2000.0), 2600.0);
    EXPECT_EQ(link.transfers(), 3u);
    EXPECT_DOUBLE_EQ(link.busyNs(), 1500.0);
}

// ------------------------------------------------------------------
// Host stacks
// ------------------------------------------------------------------

TEST(HostModel, FreeStackSkipsBusyAndQuarantinedStacks)
{
    HostModel host(0, smallSystem(), 3, LinkConfig{}, nullptr);
    EXPECT_EQ(host.freeStack(), 0);
    host.occupy(0, 0.0, 1.0, 7);
    EXPECT_EQ(host.freeStack(), 1);
    host.quarantineStack(1);
    host.quarantineStack(1); // idempotent
    EXPECT_EQ(host.freeStack(), 2);
    host.occupy(2, 0.0, 1.0, 8);
    EXPECT_EQ(host.freeStack(), -1);

    // A busy stack quarantined mid-dispatch stays out once it frees.
    host.quarantineStack(0);
    host.release(0, 1.0);
    EXPECT_EQ(host.freeStack(), -1);
    EXPECT_EQ(host.activeStacks(), 1u);

    host.restoreStack(1);
    host.restoreStack(1); // idempotent
    EXPECT_EQ(host.freeStack(), 1);
    host.release(2, 1.0);
    host.restoreStack(0);
    EXPECT_EQ(host.freeStack(), 0);
    EXPECT_EQ(host.busyStacks(), 0u);
    EXPECT_EQ(host.activeStacks(), 3u);
}

// ------------------------------------------------------------------
// Health tracker state machine
// ------------------------------------------------------------------

HealthConfig
tightHealth()
{
    HealthConfig h;
    h.window = 4;
    h.minSamples = 2;
    h.suspectThreshold = 0.5;
    h.downThreshold = 1.0;
    h.recoverySuccesses = 2;
    return h;
}

TEST(HealthTracker, HealthySuspectDownRecoveringCycle)
{
    HealthTracker t{tightHealth()};
    EXPECT_EQ(t.state(), HealthState::Healthy);

    // One failure out of two -> 0.5 >= suspect threshold.
    t.record(true, 0.0);
    t.record(false, 1.0);
    EXPECT_EQ(t.state(), HealthState::Suspect);

    // All failures -> 1.0 >= down threshold.
    t.record(false, 2.0);
    t.record(false, 3.0);
    t.record(false, 4.0);
    EXPECT_EQ(t.state(), HealthState::Down);

    // While Down, a failed probe changes nothing; a success starts
    // probation, and any failure there sends it straight back Down.
    t.record(false, 5.0);
    EXPECT_EQ(t.state(), HealthState::Down);
    t.record(true, 6.0);
    EXPECT_EQ(t.state(), HealthState::Recovering);
    t.record(false, 7.0);
    EXPECT_EQ(t.state(), HealthState::Down);

    // Two consecutive successes complete the recovery.
    t.record(true, 8.0);
    t.record(true, 9.0);
    EXPECT_EQ(t.state(), HealthState::Recovering);
    t.record(true, 10.0);
    EXPECT_EQ(t.state(), HealthState::Healthy);

    EXPECT_EQ(t.entries(HealthState::Suspect), 1u);
    EXPECT_EQ(t.entries(HealthState::Down), 2u);
    EXPECT_EQ(t.entries(HealthState::Recovering), 2u);
    EXPECT_EQ(t.entries(HealthState::Healthy), 1u);
    EXPECT_EQ(t.transitions(), 6u);
}

TEST(HealthTracker, SuspectRecoversWhenWindowDilutes)
{
    HealthTracker t{tightHealth()};
    t.record(false, 0.0);
    t.record(true, 1.0);
    EXPECT_EQ(t.state(), HealthState::Suspect); // 1/2 failed
    // One more success dilutes the window under the threshold: trust
    // restored without a probe cycle.
    t.record(true, 2.0);
    EXPECT_EQ(t.state(), HealthState::Healthy);
}

TEST(HealthTracker, NoTransitionBelowMinSamples)
{
    HealthConfig h = tightHealth();
    h.minSamples = 3;
    HealthTracker t{h};
    t.record(false, 0.0);
    t.record(false, 1.0);
    EXPECT_EQ(t.state(), HealthState::Healthy); // only 2 samples
    t.record(false, 2.0);
    EXPECT_EQ(t.state(), HealthState::Down);
}

// ------------------------------------------------------------------
// Router eligibility and probing
// ------------------------------------------------------------------

TEST(ClusterRouter, DownHostsProbeAndSuspectsRefuseRetries)
{
    RouterConfig cfg;
    cfg.health = tightHealth();
    cfg.health.probeIntervalNs = 100.0;
    ClusterRouter r(cfg, 2);

    // Drive host 0 Down.
    for (int i = 0; i < 4; ++i)
        r.recordOutcome(0, false, static_cast<double>(i));
    EXPECT_EQ(r.state(0), HealthState::Down);
    EXPECT_FALSE(r.eligible(0, false));
    EXPECT_EQ(r.aliveHosts(), 1u);
    // Down was declared at t=1 (two samples suffice); the probe was
    // scheduled one interval later.
    EXPECT_DOUBLE_EQ(r.nextProbeNs(), 101.0);

    r.takeProbe(0);
    EXPECT_EQ(r.probesSent(0), 1u);
    r.recordOutcome(0, true, 103.0);
    EXPECT_EQ(r.state(0), HealthState::Recovering);
    EXPECT_TRUE(r.eligible(0, true)); // probation traffic allowed
    EXPECT_DOUBLE_EQ(r.nextProbeNs(), 203.0); // rescheduled

    // A Suspect host takes fresh work but never retries/hedges.
    r.recordOutcome(1, false, 0.0);
    r.recordOutcome(1, true, 1.0);
    EXPECT_EQ(r.state(1), HealthState::Suspect);
    EXPECT_TRUE(r.eligible(1, false));
    EXPECT_FALSE(r.eligible(1, true));
}

TEST(ClusterRouter, FailoverDisabledObservesButAlwaysRoutes)
{
    RouterConfig cfg;
    cfg.failover = false;
    cfg.health = tightHealth();
    ClusterRouter r(cfg, 2);
    for (int i = 0; i < 4; ++i)
        r.recordOutcome(0, false, static_cast<double>(i));
    EXPECT_EQ(r.state(0), HealthState::Down); // detector still sees it
    EXPECT_TRUE(r.eligible(0, true));         // but routing ignores it
    EXPECT_DOUBLE_EQ(r.nextProbeNs(), kNoEventNs); // and never probes
    EXPECT_EQ(r.nextRoundRobin(), 0u);
    EXPECT_EQ(r.nextRoundRobin(), 1u);
    EXPECT_EQ(r.nextRoundRobin(), 0u);
}

// ------------------------------------------------------------------
// Chaos host faults
// ------------------------------------------------------------------

TEST(ChaosHostFaults, CrashWindowsAndStragglerFactors)
{
    serve::ChaosConfig cfg;
    cfg.seed = 7;
    serve::ChaosCampaign chaos(cfg, 1);

    serve::HostFaultSpec crash;
    crash.kind = serve::HostFaultSpec::Kind::Crash;
    crash.host = 1;
    crash.startNs = 100.0;
    crash.endNs = 200.0;
    chaos.addHostFault(crash);

    serve::HostFaultSpec slow;
    slow.kind = serve::HostFaultSpec::Kind::Straggler;
    slow.host = 0;
    slow.startNs = 0.0;
    slow.endNs = 50.0;
    slow.factor = 8.0;
    chaos.addHostFault(slow);

    EXPECT_FALSE(chaos.hostCrashed(0, 100.0, 200.0)); // wrong host
    EXPECT_TRUE(chaos.hostCrashed(1, 150.0, 150.0));  // instant query
    EXPECT_TRUE(chaos.hostCrashed(1, 0.0, 101.0));    // overlaps start
    EXPECT_FALSE(chaos.hostCrashed(1, 200.0, 300.0)); // after revival

    EXPECT_DOUBLE_EQ(chaos.hostSlowdown(0, 25.0), 8.0);
    EXPECT_DOUBLE_EQ(chaos.hostSlowdown(0, 75.0), 1.0);
    EXPECT_DOUBLE_EQ(chaos.hostSlowdown(1, 25.0), 1.0);
}

TEST(ChaosHostFaults, FlakyLinkDrawsAreDeterministicPerTransfer)
{
    serve::ChaosConfig cfg;
    cfg.seed = 7;
    serve::ChaosCampaign chaos(cfg, 1);

    serve::HostFaultSpec flaky;
    flaky.kind = serve::HostFaultSpec::Kind::FlakyLink;
    flaky.host = 0;
    flaky.startNs = 0.0;
    flaky.endNs = 1e9;
    flaky.lossProb = 0.5;
    chaos.addHostFault(flaky);

    unsigned dropped = 0;
    for (std::uint64_t t = 0; t < 1000; ++t) {
        const bool d = chaos.linkDropped(0, t, 10.0);
        // Same transfer id, same answer, regardless of query order.
        EXPECT_EQ(chaos.linkDropped(0, t, 20.0), d);
        dropped += d ? 1u : 0u;
    }
    EXPECT_GT(dropped, 400u);
    EXPECT_LT(dropped, 600u);
    // Outside the window nothing drops.
    EXPECT_FALSE(chaos.linkDropped(0, 3, 2e9));
}

// ------------------------------------------------------------------
// Cluster engine
// ------------------------------------------------------------------

TEST(ClusterEngine, ServesAndReconcilesWithoutFaults)
{
    ClusterEngine eng(smallCluster(2, 2));
    const double gap = eng.attemptEstimateNs() / 2.0;
    for (int i = 0; i < 40; ++i)
        EXPECT_TRUE(eng.submit(static_cast<double>(i) * gap));
    eng.drain();

    const ClusterReport r = eng.report();
    r.reconcile();
    EXPECT_EQ(r.submitted, 40u);
    EXPECT_EQ(r.completed, 40u);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(r.healthTransitions, 0u);
    EXPECT_GT(r.e2e.p50Ns, 0.0);
    // Work spread across both hosts.
    EXPECT_GT(r.hosts[0].dispatches, 0u);
    EXPECT_GT(r.hosts[1].dispatches, 0u);
}

ClusterConfig
failoverCluster()
{
    ClusterConfig c = smallCluster(2, 2);
    c.maxAttempts = 3;
    c.router.health.window = 4;
    c.router.health.minSamples = 2;
    c.router.health.suspectThreshold = 0.5;
    c.router.health.downThreshold = 0.75;
    c.router.health.recoverySuccesses = 2;
    return c;
}

TEST(ClusterEngine, HostCrashFailsOverAndRecovers)
{
    ClusterConfig cfg = failoverCluster();
    ClusterEngine probe(cfg);
    const double est = probe.attemptEstimateNs();
    cfg.router.health.probeIntervalNs = 4.0 * est;

    ClusterEngine eng(cfg);
    serve::ChaosConfig ccfg;
    ccfg.seed = 11;
    serve::ChaosCampaign chaos(ccfg, 1);
    serve::HostFaultSpec crash;
    crash.kind = serve::HostFaultSpec::Kind::Crash;
    crash.host = 0;
    crash.startNs = 10.0 * est;
    crash.endNs = 60.0 * est;
    chaos.addHostFault(crash);
    eng.setFaultModel(&chaos);

    const double gap = est / 1.5;
    const int n = 200;
    for (int i = 0; i < n; ++i)
        eng.submit(static_cast<double>(i) * gap);
    eng.drain();

    const ClusterReport r = eng.report();
    r.reconcile();
    // Failover keeps everything flowing: timeouts on host 0 retried on
    // host 1, nothing lost.
    EXPECT_EQ(r.completed, r.submitted);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_GT(r.retries, 0u);
    // Host 0 was detected Down and came back.
    EXPECT_GE(r.hosts[0].entries[2], 1u); // down
    EXPECT_GE(r.hosts[0].entries[3], 1u); // recovering
    EXPECT_EQ(r.hosts[0].state, HealthState::Healthy);
    EXPECT_GT(r.hosts[0].probes, 0u);
}

TEST(ClusterEngine, FailoverDisabledLosesWhatTheDeadHostWasDealt)
{
    ClusterConfig cfg = failoverCluster();
    cfg.router.failover = false;
    cfg.maxAttempts = 1;
    ClusterEngine probe(cfg);
    const double est = probe.attemptEstimateNs();

    ClusterEngine eng(cfg);
    serve::ChaosConfig ccfg;
    ccfg.seed = 11;
    serve::ChaosCampaign chaos(ccfg, 1);
    serve::HostFaultSpec crash;
    crash.kind = serve::HostFaultSpec::Kind::Crash;
    crash.host = 0;
    crash.startNs = 10.0 * est;
    crash.endNs = 60.0 * est;
    chaos.addHostFault(crash);
    eng.setFaultModel(&chaos);

    const double gap = est / 1.5;
    for (int i = 0; i < 200; ++i)
        eng.submit(static_cast<double>(i) * gap);
    eng.drain();

    const ClusterReport r = eng.report();
    r.reconcile();
    // Round-robin keeps feeding the dead host; without retries every
    // one of those dispatches is lost.
    EXPECT_GT(r.failed, 0u);
    EXPECT_LT(r.completed, r.submitted);
}

TEST(ClusterEngine, HedgingCutsStragglerTailLatency)
{
    ClusterConfig cfg = smallCluster(3, 2);
    ClusterEngine probe(cfg);
    const double est = probe.attemptEstimateNs();

    serve::ChaosConfig ccfg;
    ccfg.seed = 5;
    serve::HostFaultSpec slow;
    slow.kind = serve::HostFaultSpec::Kind::Straggler;
    slow.host = 0;
    slow.startNs = 0.0;
    slow.endNs = 1e18;
    slow.factor = 20.0;

    const double gap = est * 1.5; // light load: hedges find capacity
    const int n = 300;

    double p99[2] = {0.0, 0.0};
    std::uint64_t hedges = 0;
    for (const bool hedged : {false, true}) {
        ClusterConfig c = cfg;
        c.hedge.enabled = hedged;
        c.hedge.minSamples = 16;
        ClusterEngine eng(c);
        serve::ChaosCampaign chaos(ccfg, 1);
        chaos.addHostFault(slow);
        eng.setFaultModel(&chaos);
        for (int i = 0; i < n; ++i)
            eng.submit(static_cast<double>(i) * gap);
        eng.drain();
        const ClusterReport r = eng.report();
        r.reconcile();
        EXPECT_EQ(r.completed, r.submitted);
        p99[hedged ? 1 : 0] = r.e2e.p99Ns;
        if (hedged)
            hedges = r.hedgesFired;
    }
    EXPECT_GT(hedges, 0u);
    EXPECT_LT(p99[1], p99[0]);
}

TEST(ClusterEngine, AdmissionShedsWhenCapacityCannotMeetDeadlines)
{
    ClusterConfig cfg = smallCluster(2, 1);
    ClusterEngine probe(cfg);
    const double est = probe.attemptEstimateNs();
    cfg.deadlineNs = 4.0 * est;
    cfg.queueDepth = 1000;

    ClusterEngine eng(cfg);
    // Overload at 4x capacity: most arrivals cannot make the deadline
    // and are shed at the door instead of timing out in the queue.
    const double gap = est / 8.0;
    for (int i = 0; i < 400; ++i)
        eng.submit(static_cast<double>(i) * gap);
    eng.drain();

    const ClusterReport r = eng.report();
    r.reconcile();
    EXPECT_GT(r.shed, 0u);
    EXPECT_GT(r.completed, 0u);
    // Admitted requests largely meet their deadline.
    EXPECT_LT(r.sloViolations, r.completed / 2);
}

TEST(ClusterEngine, SameSeedReplaysBitIdentical)
{
    ClusterConfig cfg = failoverCluster();
    cfg.hedge.enabled = true;
    ClusterEngine probe(cfg);
    const double est = probe.attemptEstimateNs();
    cfg.router.health.probeIntervalNs = 4.0 * est;

    serve::ChaosConfig ccfg;
    ccfg.seed = 42;
    serve::HostFaultSpec crash;
    crash.kind = serve::HostFaultSpec::Kind::Crash;
    crash.host = 1;
    crash.startNs = 20.0 * est;
    crash.endNs = 80.0 * est;
    serve::HostFaultSpec flaky;
    flaky.kind = serve::HostFaultSpec::Kind::FlakyLink;
    flaky.host = 0;
    flaky.startNs = 0.0;
    flaky.endNs = 1e18;
    flaky.lossProb = 0.05;

    std::string runs[2];
    for (int run = 0; run < 2; ++run) {
        ClusterEngine eng(cfg);
        serve::ChaosCampaign chaos(ccfg, 1);
        chaos.addHostFault(crash);
        chaos.addHostFault(flaky);
        eng.setFaultModel(&chaos);
        for (int i = 0; i < 300; ++i)
            eng.submit(static_cast<double>(i) * est / 1.5);
        eng.drain();
        runs[run] = eng.report().toJson();
    }
    EXPECT_EQ(runs[0], runs[1]);
    // The replay string includes health-state transition counts.
    EXPECT_NE(runs[0].find("health_transitions"), std::string::npos);
}

TEST(ClusterEngine, QueueBoundRejectsAndDeadlineExpiresQueued)
{
    ClusterConfig cfg = smallCluster(1, 1);
    cfg.admission = false; // force queue growth instead of shedding
    cfg.queueDepth = 4;
    ClusterEngine probe(cfg);
    const double est = probe.attemptEstimateNs();
    cfg.deadlineNs = 3.0 * est;

    ClusterEngine eng(cfg);
    unsigned accepted = 0;
    for (int i = 0; i < 50; ++i)
        accepted += eng.submit(static_cast<double>(i) * est / 10.0);
    eng.drain();

    const ClusterReport r = eng.report();
    r.reconcile();
    EXPECT_LT(accepted, 50u);
    EXPECT_GT(r.rejected, 0u);
    EXPECT_GT(r.timedOut, 0u);
}

/** Drops the first copy of each listed request; everything else lands. */
class DropRequests : public serve::HostFaultModel
{
  public:
    explicit DropRequests(std::vector<std::uint64_t> ids) : ids_(std::move(ids))
    {
    }
    bool hostCrashed(unsigned, double, double) override { return false; }
    double hostSlowdown(unsigned, double) override { return 1.0; }
    bool linkDropped(unsigned, std::uint64_t transfer_id, double) override
    {
        // Transfer id = request id << 12 | prior attempts << 1 | hedge.
        return std::find(ids_.begin(), ids_.end(), transfer_id >> 12) !=
                   ids_.end() &&
               (transfer_id & 0xfff) == 0;
    }

  private:
    std::vector<std::uint64_t> ids_;
};

TEST(ClusterEngine, ExpiredEntryBehindLiveRetryFreesItsQueueSlot)
{
    // Two one-stack hosts; one failure takes a host Down and no probe
    // comes back before the deadlines. R0 and R1 fail and requeue at
    // the front, R1 ahead of R0; R0 then expires behind the live R1,
    // and its slot must admit the next arrival at once.
    ClusterConfig cfg = smallCluster(2, 1);
    cfg.admission = false;
    cfg.queueDepth = 4;
    cfg.router.health.window = 4;
    cfg.router.health.minSamples = 1;
    cfg.router.health.downThreshold = 1.0;
    cfg.router.health.probeIntervalNs = 1e15;
    const double est = ClusterEngine(cfg).attemptEstimateNs();
    cfg.deadlineNs = 20.0 * est;

    ClusterEngine eng(cfg);
    DropRequests faults({0, 1});
    eng.setFaultModel(&faults);
    const std::vector<double> arrivals = {0.0, 0.1 * est, 0.2 * est,
                                          0.3 * est, 20.05 * est};
    for (const double a : arrivals)
        EXPECT_TRUE(eng.submit(a)) << "arrival at " << a / est << " est";
    eng.drain();

    const ClusterReport r = eng.report();
    r.reconcile();
    EXPECT_EQ(r.rejected, 0u);
    EXPECT_EQ(r.retries, 2u);
    EXPECT_EQ(r.timedOut, 5u);
    std::vector<double> expiries;
    for (const SloObservation &o : eng.takeSloObservations()) {
        EXPECT_FALSE(o.good);
        expiries.push_back(o.tsNs);
    }
    std::vector<double> deadlines;
    for (const double a : arrivals)
        deadlines.push_back(a + cfg.deadlineNs);
    std::sort(expiries.begin(), expiries.end());
    EXPECT_EQ(expiries, deadlines);
}

// ------------------------------------------------------------------
// Deep overload queue
// ------------------------------------------------------------------

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
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Forwards to a ChaosCampaign and logs every request copy the engine
 * asks about. The engine draws one link outcome per copy with transfer
 * id (request id << 12 | prior attempts << 1 | hedge); probes carry
 * 0xffff in the top 16 bits.
 */
class RecordingFaults : public serve::HostFaultModel
{
  public:
    struct CopyLog
    {
        double dispatchNs = 0.0;
        bool dropped = false;
        bool hedge = false;
        unsigned priorAttempts = 0;
    };

    RecordingFaults(serve::ChaosCampaign &chaos, std::size_t requests)
        : copies(requests), chaos_(chaos)
    {
    }

    bool hostCrashed(unsigned host, double start_ns, double end_ns) override
    {
        return chaos_.hostCrashed(host, start_ns, end_ns);
    }
    double hostSlowdown(unsigned host, double ns) override
    {
        return chaos_.hostSlowdown(host, ns);
    }
    bool linkDropped(unsigned host, std::uint64_t transfer_id,
                     double ns) override
    {
        const bool dropped = chaos_.linkDropped(host, transfer_id, ns);
        if ((transfer_id >> 48) != 0xffff) {
            copies.at(transfer_id >> 12).push_back(
                CopyLog{ns, dropped, (transfer_id & 1) != 0,
                        static_cast<unsigned>((transfer_id >> 1) & 0x7ff)});
        }
        return dropped;
    }

    std::vector<std::vector<CopyLog>> copies; ///< per request id

  private:
    serve::ChaosCampaign &chaos_;
};

TEST(ClusterEngine, DeepQueueOverloadExpiresAtDeadlines)
{
    // 4 hosts x 2 stacks at 1.3x load with a 3x burst, arrivals on a
    // half-attempt grid so groups of requests share an arrival instant
    // and therefore a deadline. The queue runs ~8k deep and fills to
    // its 10k bound in the burst; thousands of requests expire in it.
    ClusterConfig cfg = smallCluster(4, 2);
    cfg.admission = false;
    cfg.queueDepth = 10'000;
    cfg.maxAttempts = 3;
    cfg.hedge.enabled = true;
    cfg.hedge.minSamples = 16;
    const double est = ClusterEngine(cfg).attemptEstimateNs();
    // Off the arrival grid, so an expiry is an event of its own.
    cfg.deadlineNs = 1000.3 * est;

    const double capacity_rps = 8.0 * 1e9 / est;
    const double rate = 1.3 * capacity_rps;
    const double horizon_ns = 100'000.0 * 1e9 / rate;
    serve::BurstSpec burst;
    burst.startNs = 0.50 * horizon_ns;
    burst.endNs = 0.55 * horizon_ns;
    burst.factor = 3.0;
    std::vector<serve::Arrival> arrivals = serve::burstyPoissonArrivals(
        {serve::ArrivalSpec{0, rate}}, horizon_ns, 7, burst);
    const double grid = est / 2.0;
    for (serve::Arrival &a : arrivals)
        a.ns = std::ceil(a.ns / grid) * grid;
    ASSERT_GE(arrivals.size(), 100'000u);

    // A flaky link on host 0 fails copies, whose retries re-enter at
    // the queue front when every other stack is busy.
    serve::ChaosConfig ccfg;
    ccfg.seed = 3;
    serve::ChaosCampaign chaos(ccfg, 1);
    serve::HostFaultSpec flaky;
    flaky.kind = serve::HostFaultSpec::Kind::FlakyLink;
    flaky.host = 0;
    flaky.startNs = 0.0;
    flaky.endNs = 1e18;
    flaky.lossProb = 0.02;
    chaos.addHostFault(flaky);
    RecordingFaults faults(chaos, arrivals.size());

    ClusterEngine eng(cfg);
    eng.setFaultModel(&faults);
    std::vector<bool> accepted(arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i)
        accepted[i] = eng.submit(arrivals[i].ns);
    eng.drain();

    const ClusterReport r = eng.report();
    r.reconcile();
    const std::vector<SloObservation> obs = eng.takeSloObservations();
    const std::vector<ClusterCompletion> done = eng.takeCompletions();
    EXPECT_EQ(r.submitted, arrivals.size());
    EXPECT_GT(r.rejected, 0u);
    EXPECT_GT(r.timedOut, 5'000u);
    EXPECT_GT(r.retries, 0u);
    EXPECT_EQ(obs.size(), r.submitted);
    EXPECT_EQ(done.size(), r.completed);

    // Rebuild every bad observation's instant from the arrivals, the
    // completions and the logged copies. A request that never left the
    // queue expires exactly at its deadline; one whose every copy
    // failed is requeued when the last failure is observed and expires
    // at the later of that instant and its deadline, unless it spent
    // its attempts.
    std::vector<const ClusterCompletion *> completion(arrivals.size());
    for (const ClusterCompletion &c : done)
        completion.at(c.id) = &c;
    std::vector<double> expect_bad;
    std::uint64_t expect_timed_out = 0;
    std::uint64_t expect_failed = 0;
    std::uint64_t at_deadline = 0;
    for (std::size_t id = 0; id < arrivals.size(); ++id) {
        const double deadline = arrivals[id].ns + cfg.deadlineNs;
        if (!accepted[id]) {
            expect_bad.push_back(arrivals[id].ns);
            continue;
        }
        if (const ClusterCompletion *c = completion[id]) {
            EXPECT_EQ(c->deadlineNs, deadline);
            if (!c->metDeadline())
                expect_bad.push_back(c->completeNs);
            continue;
        }
        double requeued = 0.0;
        unsigned attempts = 0;
        for (const RecordingFaults::CopyLog &copy : faults.copies[id]) {
            ASSERT_TRUE(copy.dropped) << "request " << id;
            requeued = std::max(requeued, copy.dispatchNs + eng.timeoutNs());
            if (!copy.hedge)
                attempts = std::max(attempts, copy.priorAttempts + 1);
        }
        if (attempts >= cfg.maxAttempts) {
            ++expect_failed;
            expect_bad.push_back(requeued);
            continue;
        }
        ++expect_timed_out;
        at_deadline += requeued <= deadline;
        expect_bad.push_back(std::max(deadline, requeued));
    }
    EXPECT_EQ(r.timedOut, expect_timed_out);
    EXPECT_EQ(r.failed, expect_failed);
    EXPECT_GT(at_deadline, expect_timed_out / 2);

    std::vector<double> bad;
    for (const SloObservation &o : obs) {
        if (!o.good)
            bad.push_back(o.tsNs);
    }
    std::sort(bad.begin(), bad.end());
    std::sort(expect_bad.begin(), expect_bad.end());
    EXPECT_TRUE(bad == expect_bad) << bad.size() << " bad observations, "
                                   << expect_bad.size() << " expected";

    // Same-instant expiries finish in queue order: the whole output is
    // pinned to the digest of the original full-queue-scan engine.
    Fnv1a h;
    const std::string json = r.toJson();
    h.bytes(json.data(), json.size());
    for (const SloObservation &o : obs) {
        h.f64(o.tsNs);
        h.u64(o.good);
    }
    for (const ClusterCompletion &c : done) {
        h.u64(c.id);
        h.f64(c.arrivalNs);
        h.f64(c.completeNs);
        h.f64(c.deadlineNs);
        h.u64(c.host);
        h.u64(c.attempts);
        h.u64(c.hedgeWon);
    }
    EXPECT_EQ(h.value(), 0x3fbe575ff1eb2ce5ull) << std::hex << h.value();
}

} // namespace
} // namespace pimsim::cluster
