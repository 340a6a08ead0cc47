/**
 * @file
 * `serve-cold`: ServingEngine with GNMT + DS2 tenants on 2 simulator
 * threads, every cell from a fresh ServiceTimeCache (as app_server does
 * on every run).
 *
 * Batch-timeout scheduling on sharded channels with circuit breakers; a
 * fixed chaos fault rate with no PIM retry budget sends every struck
 * batch to HostFallbackModel. One round is three cells: offered load
 * below, at and above batch-1 capacity. The event loop is nearly free;
 * host time goes to service-time cache misses, i.e. full functional
 * device simulation whose only output read is the service time.
 */

#include <algorithm>
#include <iterator>

#include "perfbench.h"
#include "serve/chaos.h"
#include "serve/load_gen.h"
#include "serve/serving_engine.h"

namespace perfbench {
namespace {

using namespace pimsim;
using namespace pimsim::serve;

constexpr unsigned kThreads = 2;
constexpr double kLoads[] = {0.5, 1.0, 2.0};

struct Cell
{
    std::shared_ptr<ServiceTimeCache> cache;
    std::unique_ptr<ChaosCampaign> chaos;
    std::unique_ptr<ServingEngine> engine;
    std::vector<Arrival> arrivals;
    ServeReport report;
    std::vector<ServeRequest> completions;
};

class ServeCold : public Workload
{
  public:
    explicit ServeCold(const Options &o) : o_(o)
    {
        config_.system = SystemConfig::pimHbmSystem();
        config_.system.numStacks = 1;
        if (o.smoke) {
            LayerSpec fc;
            fc.kind = LayerSpec::Kind::Fc;
            fc.hidden = 256;
            fc.input = 512;
            config_.tenants = {TenantSpec{"fc-a", AppSpec{"FCa", {fc}}, 1.0},
                               TenantSpec{"fc-b", AppSpec{"FCb", {fc, fc}},
                                          1.0}};
            requestsPerCell_ = 40;
        } else {
            config_.tenants = {TenantSpec{"gnmt", gnmtApp(), 1.0},
                               TenantSpec{"ds2", ds2App(), 1.0}};
            requestsPerCell_ = 240;
        }
        config_.shardChannels = true;
        config_.sched.policy = SchedPolicy::BatchTimeout;
        config_.sched.maxBatch = 4;
        config_.histBucketNs = 2'000'000;
        config_.histBuckets = 16384;
        config_.retry.maxRetries = 0;
        config_.breaker.enabled = true;
        config_.simThreads = kThreads;
    }

    unsigned simThreads() const override { return kThreads; }
    const char *opName() const override { return "one submitted request"; }

    void
    prepare() override
    {
        // Batch-1 capacity of the shared device, as app_server measures
        // it; a separate cache keeps every cell cold.
        ShardServiceModel probe(config_.system, config_.system.numChannels(),
                                std::make_shared<ServiceTimeCache>());
        probe.setSimThreads(kThreads);
        double mean_svc_ns = 0.0;
        for (const TenantSpec &t : config_.tenants)
            mean_svc_ns += probe.serviceNs(t.app, 1);
        mean_svc_ns /= static_cast<double>(config_.tenants.size());
        config_.sched.batchTimeoutNs = mean_svc_ns;
        for (TenantSpec &t : config_.tenants)
            t.deadlineNs = 10.0 * mean_svc_ns;
        capacityRps_ = 1e9 / mean_svc_ns;
        faultsPerSec_ = 1e9 / mean_svc_ns / 8.0;
    }

    void
    setupRound(std::uint64_t seed) override
    {
        cells_.clear();
        Digest in;
        for (std::size_t i = 0; i < std::size(kLoads); ++i) {
            Cell c;
            c.cache = std::make_shared<ServiceTimeCache>();
            ServeConfig config = config_;
            config.timingCache = c.cache;
            c.engine = std::make_unique<ServingEngine>(config);
            ChaosConfig chaos;
            chaos.faultsPerSec = faultsPerSec_;
            chaos.seed = roundSeed(seed, 100 + i);
            c.chaos = std::make_unique<ChaosCampaign>(
                chaos, c.engine->plan().numShards());
            c.engine->setFaultModel(c.chaos.get());
            const double rate = kLoads[i] * capacityRps_;
            std::vector<ArrivalSpec> specs;
            for (unsigned t = 0; t < c.engine->numTenants(); ++t)
                specs.push_back(ArrivalSpec{
                    t, rate / static_cast<double>(c.engine->numTenants())});
            // Draw past the nominal horizon and keep exactly the first
            // requestsPerCell_, so every cell does the same work.
            const double horizon_ns =
                2.0 * static_cast<double>(requestsPerCell_) * 1e9 / rate;
            c.arrivals = poissonArrivals(specs, horizon_ns, roundSeed(seed, i));
            c.arrivals.resize(requestsPerCell_);
            for (const Arrival &a : c.arrivals) {
                in.add(a.ns);
                in.add(std::uint64_t{a.tenant});
            }
            cells_.push_back(std::move(c));
        }
        inputDigest_ = in.value();
    }

    std::uint64_t
    runRound(Spans *spans) override
    {
        std::uint64_t ops = 0;
        for (Cell &c : cells_) {
            // Calls that grew the cache simulated the device; the rest
            // are event-loop work.
            const auto timed = [&](const char *loop, const char *miss,
                                   const auto &call) {
                Scope s(spans, loop);
                const std::size_t before = c.cache->size();
                call();
                if (c.cache->size() > before)
                    s.rename(miss);
            };
            for (const Arrival &a : c.arrivals) {
                if (spans)
                    spans->beginOp();
                timed("serve.advance.loop", "serve.advance.miss",
                      [&] { c.engine->advanceTo(a.ns); });
                timed("serve.submit.loop", "serve.submit.miss",
                      [&] { c.engine->submit(a.tenant, a.ns); });
                ++ops;
            }
            if (spans)
                spans->endOp();
            timed("serve.advance.loop", "serve.advance.miss",
                  [&] { c.engine->drain(); });
            c.report = c.engine->report();
            c.completions = c.engine->takeCompletions();
            // Free the cell's systems before the next cell, as separate
            // app_server runs would.
            c.engine.reset();
            c.chaos.reset();
        }
        return ops;
    }

    std::uint64_t
    checkRound() override
    {
        std::uint64_t failed = 0;
        bool corrupt = o_.corrupt;
        for (Cell &c : cells_) {
            const TenantReport &t = c.report.total;
            std::uint64_t expect_submitted = c.arrivals.size();
            if (corrupt) {
                ++expect_submitted;
                corrupt = false;
            }
            std::uint64_t bad = 0;
            for (const ServeRequest &r : c.completions) {
                if (!(r.arrivalNs <= r.dispatchNs &&
                      r.dispatchNs <= r.completeNs) ||
                    r.tenant >= config_.tenants.size())
                    ++bad;
            }
            const std::uint64_t terminal =
                t.completed + t.shed + t.timedOut + t.rejected;
            bad += absDiff(terminal, expect_submitted) +
                   absDiff(t.submitted, expect_submitted) +
                   absDiff(c.completions.size(), t.completed);
            if (bad == 0)
                c.report.reconcile();
            failed += std::min<std::uint64_t>(bad, c.arrivals.size());
        }
        return failed;
    }

    void
    countMetrics(Metrics &out) override
    {
        std::uint64_t completed = 0, rejected = 0, shed = 0, timed_out = 0,
                      fallback = 0, misses = 0;
        for (const Cell &c : cells_) {
            const TenantReport &t = c.report.total;
            completed += t.completed;
            rejected += t.rejected;
            shed += t.shed;
            timed_out += t.timedOut;
            fallback += t.fallbackCompleted;
            misses += c.cache->size();
        }
        out["serve.completed"] = static_cast<double>(completed);
        out["serve.rejected"] = static_cast<double>(rejected);
        out["serve.shed"] = static_cast<double>(shed);
        out["serve.timed_out"] = static_cast<double>(timed_out);
        out["serve.host_fallback"] = static_cast<double>(fallback);
        out["serve.cache_misses"] = static_cast<double>(misses);
        // The at-capacity cell.
        out["serve.sim_e2e_p99_ms"] = cells_[1].report.total.e2e.p99Ns / 1e6;
    }

    double inputDigest() const override { return inputDigest_; }

  private:
    Options o_;
    ServeConfig config_;
    std::uint64_t requestsPerCell_ = 0;
    double capacityRps_ = 0.0;
    double faultsPerSec_ = 0.0;
    double inputDigest_ = 0.0;
    std::vector<Cell> cells_;
};

} // namespace

std::unique_ptr<Workload>
makeServeCold(const Options &options)
{
    return std::make_unique<ServeCold>(options);
}

} // namespace perfbench
