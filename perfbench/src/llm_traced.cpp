/**
 * @file
 * `llm-traced`: LlmEngine continuous batching on one stack with the
 * tiny decoder, decode-heavy lengths at ~1.1x request capacity, with
 * tail-sampled request tracing (1% head sampling) and the Chrome trace
 * written inside the timed phase.
 *
 * The service-time cache is warmed once before timing, so rounds spend
 * their host time in the decode-iteration event loop (millions of cache
 * lookups) and in trace flush/export.
 */

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "common/reqtrace.h"
#include "common/trace.h"
#include "llm/engine.h"
#include "llm/trace_gen.h"
#include "perfbench.h"
#include "serve/load_gen.h"
#include "serve/service_model.h"

namespace perfbench {
namespace {

using namespace pimsim;
using namespace pimsim::llm;

constexpr unsigned kThreads = 1;
constexpr double kLoad = 1.1;

class LlmTraced : public Workload
{
  public:
    explicit LlmTraced(const Options &o) : o_(o)
    {
        config_.system = SystemConfig::pimHbmSystem();
        config_.system.numStacks = 1;
        config_.decoder = DecoderSpec::tiny();
        config_.batcher.policy = BatchPolicy::Continuous;
        config_.batcher.maxBatch = 8;
        config_.timingCache = std::make_shared<serve::ServiceTimeCache>();
        config_.simThreads = kThreads;
        // No deadline: must-keep traces are then only rejections and
        // preemptions, so the exported volume tracks the decode work
        // instead of how far a round drifts into overload.
        config_.tenants = {LlmTenantSpec{"prod", 0.0, 0}};
        // app_llm's decode-heavy mix: short prompts, long generations.
        traffic_.tenant = 0;
        traffic_.prompt = serve::LengthConfig{64.0, 0.6, 8, 256};
        traffic_.output = serve::LengthConfig{192.0, 0.6, 16, 640};
        requests_ = o.smoke ? 150 : 3000;
        tracePath_ = o.outDir + "/llm-traced-trace.json";
    }

    unsigned simThreads() const override { return kThreads; }
    const char *opName() const override { return "one submitted request"; }

    void
    prepare() override
    {
        // app_llm's calibration: device time one mean-length request
        // demands (prefill plus decode at full-batch FFN amortisation).
        serve::ShardServiceModel model(config_.system,
                                       config_.system.numChannels(),
                                       config_.timingCache);
        const DecoderSpec &spec = config_.decoder;
        const serve::LengthSampler prompt(traffic_.prompt);
        const serve::LengthSampler output(traffic_.output);
        const unsigned ctx = static_cast<unsigned>(prompt.analyticMean());
        const unsigned bucket = ctxBucket(ctx, config_.prefillGranule);
        const double prefill_ns =
            model.serviceNs(decodeFfnApp(spec), bucket) +
            model.serviceNs(
                decodeAttnApp(spec, ctxBucket(ctx, config_.ctxGranule)),
                std::max(1u, bucket / 2));
        const unsigned mid_ctx =
            static_cast<unsigned>(ctx + 0.5 * output.analyticMean());
        const unsigned batch = config_.batcher.maxBatch;
        const double tok_ns =
            model.serviceNs(decodeFfnApp(spec), batch) / batch +
            model.serviceNs(
                decodeAttnApp(spec, ctxBucket(mid_ctx, config_.ctxGranule)),
                1);
        traffic_.ratePerSec =
            kLoad * 1e9 / (prefill_ns + output.analyticMean() * tok_ns);

        // Warm the shared cache with a short run of the same traffic
        // shape, so timed rounds measure the loop, not device misses.
        // Its own fixed seed keeps the preparation cost the same for
        // every --seed.
        LlmEngine warm(config_);
        runOpenLoop(warm, drawLlmTrace({traffic_}, horizonNs(requests_ / 4),
                                       0x3a73));
    }

    void
    setupRound(std::uint64_t seed) override
    {
        engine_.reset();
        tracer_.reset();
        trace_.reset();
        // Draw past the nominal horizon and keep exactly requests_.
        arrivals_ =
            drawLlmTrace({traffic_}, 2.0 * horizonNs(requests_), seed);
        arrivals_.resize(requests_);
        engine_ = std::make_unique<LlmEngine>(config_);
        trace_ = std::make_unique<TraceSession>();
        engine_->setTrace(trace_.get());
        RequestTracerConfig rc;
        rc.headSampleRate = 0.01;
        rc.seed = seed;
        tracer_ = std::make_unique<RequestTracer>(rc);
        engine_->setRequestTracer(tracer_.get());
        Digest in;
        for (const LlmArrival &a : arrivals_) {
            in.add(a.ns);
            in.add(std::uint64_t{a.promptTokens} << 32 | a.outputTokens);
        }
        inputDigest_ = in.value();
    }

    std::uint64_t
    runRound(Spans *spans) override
    {
        for (const LlmArrival &a : arrivals_) {
            if (spans)
                spans->beginOp();
            const double at = std::max(a.ns, engine_->nowNs());
            {
                Scope s(spans, "llm.advance");
                engine_->advanceTo(at);
            }
            Scope s(spans, "llm.submit");
            engine_->submit(a.tenant, at, a.promptTokens, a.outputTokens);
        }
        if (spans)
            spans->endOp();
        {
            Scope s(spans, "llm.advance");
            engine_->drain();
        }
        report_ = engine_->report();
        completions_ = engine_->takeCompletions();
        {
            Scope s(spans, "trace.flush");
            tracer_->flush(*trace_);
        }
        Scope s(spans, "trace.write");
        written_ = trace_->writeFile(tracePath_);
        return arrivals_.size();
    }

    std::uint64_t
    checkRound() override
    {
        const LlmTenantReport &t = report_.total;
        std::uint64_t expect_submitted = arrivals_.size();
        if (o_.corrupt)
            ++expect_submitted;
        std::uint64_t bad = 0;
        for (const LlmRequest &r : completions_) {
            if (r.completeNs < r.arrivalNs || r.firstTokenNs < r.arrivalNs ||
                r.decoded != r.outputTokens)
                ++bad;
        }
        const std::uint64_t terminal =
            t.completed + t.shed + t.timedOut + t.rejected;
        bad += absDiff(terminal, expect_submitted) +
               absDiff(t.submitted, expect_submitted) +
               absDiff(completions_.size(), t.completed) +
               absDiff(report_.kvBlocksAllocated, report_.kvBlocksFreed);
        if (bad == 0)
            report_.reconcile();

        // Trace checks: every bad terminal is kept, nothing dropped, and
        // the file written in the timed phase is valid JSON. A bad trace
        // fails every request of the round.
        const std::uint64_t floor =
            t.rejected + t.shed + t.timedOut + t.sloViolations;
        traceBytes_ = 0;
        bool trace_ok = written_ && tracer_->mustKeepCount() >= floor &&
                        trace_->droppedEvents() == 0 &&
                        tracer_->eventsTruncated() == 0;
        if (trace_ok) {
            std::ifstream is(tracePath_, std::ios::binary);
            std::ostringstream text;
            text << is.rdbuf();
            const std::string json = text.str();
            traceBytes_ = json.size();
            trace_ok = validateJson(json);
        }
        if (!trace_ok)
            return arrivals_.size();
        return std::min<std::uint64_t>(bad, arrivals_.size());
    }

    void
    countMetrics(Metrics &out) override
    {
        out["llm.iterations"] = static_cast<double>(report_.iterations);
        out["llm.mean_batch"] = report_.meanBatch;
        out["llm.kv_peak_blocks"] =
            static_cast<double>(report_.kvPeakResidentBlocks);
        out["llm.preemptions"] =
            static_cast<double>(report_.total.preemptions);
        out["llm.cache_entries"] =
            static_cast<double>(config_.timingCache->size());
        out["trace.events"] = static_cast<double>(trace_->recordedEvents());
        out["trace.dropped"] = static_cast<double>(trace_->droppedEvents());
        out["trace.kept_traces"] =
            static_cast<double>(tracer_->keptTraceIds().size());
        out["trace.bytes"] = static_cast<double>(traceBytes_);
    }

    double inputDigest() const override { return inputDigest_; }

  private:
    double
    horizonNs(std::uint64_t requests) const
    {
        return static_cast<double>(requests) * 1e9 / traffic_.ratePerSec;
    }

    Options o_;
    LlmEngineConfig config_;
    LlmTrafficSpec traffic_;
    std::uint64_t requests_ = 0;
    std::string tracePath_;
    double inputDigest_ = 0.0;

    std::vector<LlmArrival> arrivals_;
    std::unique_ptr<LlmEngine> engine_;
    std::unique_ptr<TraceSession> trace_;
    std::unique_ptr<RequestTracer> tracer_;
    LlmReport report_;
    std::vector<LlmRequest> completions_;
    bool written_ = false;
    std::uint64_t traceBytes_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeLlmTraced(const Options &options)
{
    return std::make_unique<LlmTraced>(options);
}

} // namespace perfbench
