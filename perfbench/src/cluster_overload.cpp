/**
 * @file
 * `cluster-overload`: ClusterEngine on 1 thread, 4 hosts x 4 stacks
 * serving the FC-512 app at ~1.3x capacity with a router queue thousands
 * deep and one host-crash window.
 *
 * The whole run needs one service-time cache entry, so host time goes to
 * the cluster event loop, whose next-event search scans every active
 * request and the whole queue. Submits are timed in fixed chunks.
 */

#include <algorithm>

#include "cluster/cluster_engine.h"
#include "perfbench.h"
#include "serve/chaos.h"
#include "serve/load_gen.h"

namespace perfbench {
namespace {

using namespace pimsim;
using namespace pimsim::cluster;

constexpr unsigned kThreads = 1;
constexpr double kLoad = 1.3;
/** Submits per timed chunk. */
constexpr std::size_t kChunk = 64;

class ClusterOverload : public Workload
{
  public:
    explicit ClusterOverload(const Options &o) : o_(o)
    {
        LayerSpec fc;
        fc.kind = LayerSpec::Kind::Fc;
        fc.hidden = 512;
        fc.input = 512;
        fc.steps = 2;
        config_.system = SystemConfig::pimHbmSystem();
        config_.system.numStacks = 1;
        config_.numHosts = 4;
        config_.stacksPerHost = 4;
        config_.app = AppSpec{"cluster-fc512", {fc}};
        config_.queueDepth = 4096;
        config_.cache = std::make_shared<serve::ServiceTimeCache>();
        requests_ = o.smoke ? 4000 : 100'000;
    }

    unsigned simThreads() const override { return kThreads; }
    const char *opName() const override { return "one submitted request"; }

    void
    prepare() override
    {
        ClusterEngine probe(config_);
        const double est_ns = probe.attemptEstimateNs();
        capacityRps_ = config_.numHosts * config_.stacksPerHost * 1e9 / est_ns;
        // Generous deadline: a full queue drains well within it, so the
        // queue stays thousands deep instead of being shed.
        config_.deadlineNs = 2000.0 * est_ns;
        config_.router.health.probeIntervalNs = 8.0 * est_ns;
    }

    void
    setupRound(std::uint64_t seed) override
    {
        engine_.reset();
        chaos_.reset();
        completions_ = {};
        const double rate = kLoad * capacityRps_;
        const double horizon_ns = static_cast<double>(requests_) * 1e9 / rate;
        // Draw past the nominal horizon and keep exactly requests_.
        arrivals_ = serve::poissonArrivals({serve::ArrivalSpec{0, rate}},
                                           2.0 * horizon_ns, seed);
        arrivals_.resize(requests_);
        engine_ = std::make_unique<ClusterEngine>(config_);
        serve::ChaosConfig cc;
        cc.seed = roundSeed(seed, 0xc1a5);
        chaos_ = std::make_unique<serve::ChaosCampaign>(cc, 1);
        serve::HostFaultSpec crash;
        crash.kind = serve::HostFaultSpec::Kind::Crash;
        crash.host = 0;
        crash.startNs = 0.35 * horizon_ns;
        crash.endNs = 0.65 * horizon_ns;
        chaos_->addHostFault(crash);
        engine_->setFaultModel(chaos_.get());
        Digest in;
        for (const serve::Arrival &a : arrivals_)
            in.add(a.ns);
        inputDigest_ = in.value();
    }

    std::uint64_t
    runRound(Spans *spans) override
    {
        const std::size_t n = arrivals_.size();
        for (std::size_t first = 0; first < n; first += kChunk) {
            if (spans)
                spans->beginOp();
            Scope s(spans, "cluster.submit");
            for (std::size_t i = first; i < std::min(n, first + kChunk); ++i)
                engine_->submit(std::max(arrivals_[i].ns, engine_->nowNs()));
        }
        if (spans)
            spans->endOp();
        {
            Scope s(spans, "cluster.drain");
            engine_->drain();
        }
        report_ = engine_->report();
        completions_ = engine_->takeCompletions();
        return n;
    }

    std::uint64_t
    checkRound() override
    {
        const ClusterReport &r = report_;
        std::uint64_t expect_submitted = arrivals_.size();
        if (o_.corrupt)
            ++expect_submitted;
        std::uint64_t bad = 0;
        for (const ClusterCompletion &c : completions_) {
            if (c.completeNs < c.arrivalNs || c.host >= config_.numHosts ||
                c.attempts < 1)
                ++bad;
        }
        const std::uint64_t terminal =
            r.completed + r.shed + r.rejected + r.timedOut + r.failed;
        bad += absDiff(terminal, expect_submitted) +
               absDiff(r.submitted, expect_submitted) +
               absDiff(completions_.size(), r.completed);
        if (bad == 0)
            r.reconcile();
        return std::min<std::uint64_t>(bad, arrivals_.size());
    }

    void
    countMetrics(Metrics &out) override
    {
        out["cluster.completed"] = static_cast<double>(report_.completed);
        out["cluster.rejected"] = static_cast<double>(report_.rejected);
        out["cluster.timed_out"] = static_cast<double>(report_.timedOut);
        out["cluster.failed"] = static_cast<double>(report_.failed);
        out["cluster.retries"] = static_cast<double>(report_.retries);
        out["cluster.cache_entries"] =
            static_cast<double>(config_.cache->size());
    }

    double inputDigest() const override { return inputDigest_; }

  private:
    Options o_;
    ClusterConfig config_;
    std::uint64_t requests_ = 0;
    double capacityRps_ = 0.0;
    double inputDigest_ = 0.0;

    std::vector<serve::Arrival> arrivals_;
    std::unique_ptr<serve::ChaosCampaign> chaos_;
    std::unique_ptr<ClusterEngine> engine_;
    ClusterReport report_;
    std::vector<ClusterCompletion> completions_;
};

} // namespace

std::unique_ptr<Workload>
makeClusterOverload(const Options &options)
{
    return std::make_unique<ClusterOverload>(options);
}

} // namespace perfbench
