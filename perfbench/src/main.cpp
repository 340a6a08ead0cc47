/**
 * @file
 * Entry point of one benchmark workload process.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out DIR] [--smoke] [--corrupt]
 *   perfbench --list-metrics
 *
 * Prints a header, every metric by name with its unit, and as the last
 * line one JSON object {"correct", "attempted", "failed", "metrics"}:
 * the end-to-end metrics of an untraced run (--trace 0), or the
 * per-layer metrics of a traced run (--trace 1). Exits 1 when any
 * correctness check failed, 2 on bad arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/logging.h"
#include "perfbench.h"

using namespace perfbench;

namespace {

/** Round set-ups timed before the timed phase (setup_s is their median). */
constexpr int kSetupRepeats = 5;

#ifdef PERFBENCH_BUILD_TYPE
constexpr const char *kBuildType = PERFBENCH_BUILD_TYPE;
#else
constexpr const char *kBuildType = "unknown";
#endif

void
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s --workload kernels|serve-cold|llm-traced|"
                 "cluster-overload\n"
                 "          --seed N --seconds S --trace 0|1 [--out DIR] "
                 "[--smoke] [--corrupt]\n"
                 "       %s --list-metrics\n",
                 prog, prog);
}

bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    if (text[0] == '-' || text[0] == '\0')
        return false;
    out = std::strtoull(text, &end, 10);
    return *end == '\0';
}

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "kernels")
        return makeKernels(o);
    if (o.workload == "serve-cold")
        return makeServeCold(o);
    if (o.workload == "llm-traced")
        return makeLlmTraced(o);
    if (o.workload == "cluster-overload")
        return makeClusterOverload(o);
    return nullptr;
}

/** Per-layer timings: mean self seconds per traced round. */
void
layerTimings(const Spans &spans, double rounds, Metrics &m)
{
    const auto self = spans.selfSeconds();
    const auto get = [&](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second / rounds;
    };
    m["stack.app_s"] = get("stack.app");
    m["stack.blas_s"] = get("stack.blas");
    m["host.model_s"] = get("host.model");
    m["sim.stream_s"] = get("sim.stream");
    if (m["sim.stream_s"] > 0.0)
        m["sim.cycles_per_s"] = m["sim.cycles"] / m["sim.stream_s"];

    m["serve.miss_advance_s"] = get("serve.advance.miss");
    m["serve.loop_advance_s"] = get("serve.advance.loop");
    m["serve.advance_s"] =
        m["serve.miss_advance_s"] + m["serve.loop_advance_s"];
    m["serve.miss_submit_s"] = get("serve.submit.miss");
    m["serve.submit_s"] = m["serve.miss_submit_s"] + get("serve.submit.loop");
    if (m["serve.cache_misses"] > 0.0)
        m["serve.s_per_miss"] =
            (m["serve.miss_advance_s"] + m["serve.miss_submit_s"]) /
            m["serve.cache_misses"];

    m["llm.advance_s"] = get("llm.advance");
    m["llm.submit_s"] = get("llm.submit");
    m["trace.flush_s"] = get("trace.flush");
    m["trace.write_s"] = get("trace.write");

    m["cluster.submit_s"] = get("cluster.submit");
    m["cluster.drain_s"] = get("cluster.drain");
    const auto chunks = spans.durations("cluster.submit");
    if (!chunks.empty()) {
        m["cluster.chunk_ms.p50"] = 1e3 * quantile(chunks, 0.50);
        m["cluster.chunk_ms.p99"] = 1e3 * quantile(chunks, 0.99);
    }
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const Metrics &m, MetricKind kind)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    const char *sep = "";
    for (const MetricSpec &spec : metricCatalog()) {
        if (spec.kind != kind)
            continue;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    spec.name, m.at(spec.name), spec.unit);
        sep = ", ";
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    pimsim::setQuiet(true);
    Options o;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        std::uint64_t v = 0;
        if (arg == "--list-metrics") {
            for (const MetricSpec &s : metricCatalog())
                std::printf("%s %s %s\n", s.name, s.unit,
                            s.kind == MetricKind::EndToEnd ? "end_to_end"
                                                           : "per_layer");
            return 0;
        } else if (arg == "--workload" && has_value) {
            o.workload = argv[++i];
        } else if (arg == "--seed" && has_value &&
                   parseUnsigned(argv[++i], v)) {
            o.seed = v;
            have_seed = true;
        } else if (arg == "--seconds" && has_value &&
                   parseUnsigned(argv[++i], v) && v >= 1 && v <= 600) {
            o.seconds = static_cast<double>(v);
            have_seconds = true;
        } else if (arg == "--trace" && has_value &&
                   parseUnsigned(argv[++i], v) && v <= 1) {
            o.trace = v == 1;
            have_trace = true;
        } else if (arg == "--out" && has_value) {
            o.outDir = argv[++i];
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else if (arg == "--corrupt") {
            o.corrupt = true;
        } else {
            std::fprintf(stderr, "%s: bad argument '%s'\n", argv[0],
                         arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    std::unique_ptr<Workload> w = makeWorkload(o);
    if (w == nullptr || !have_seed || !have_seconds || !have_trace) {
        usage(argv[0]);
        return 2;
    }

    const unsigned nproc = std::thread::hardware_concurrency();
    std::printf("perfbench workload=%s op=\"%s\" seed=%llu seconds=%g "
                "trace=%d smoke=%d nproc=%u sim_threads=%u build_type=%s\n",
                o.workload.c_str(), w->opName(),
                static_cast<unsigned long long>(o.seed), o.seconds,
                o.trace ? 1 : 0, o.smoke ? 1 : 0, nproc, w->simThreads(),
                kBuildType);
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
    std::fprintf(stderr, "perfbench: warning: unoptimised build (%s); "
                 "host timings are not comparable\n", kBuildType);
#endif
    if (nproc < w->simThreads())
        std::fprintf(stderr, "perfbench: warning: nproc %u is below the "
                     "workload's %u simulator threads\n", nproc,
                     w->simThreads());

    // One-time preparation plus the median of repeated round set-ups.
    double t = nowSeconds();
    w->prepare();
    const double prepare_s = nowSeconds() - t;
    std::vector<double> setups;
    const auto setup = [&](std::uint64_t round) {
        const double t0 = nowSeconds();
        w->setupRound(roundSeed(o.seed, round));
        setups.push_back(nowSeconds() - t0);
    };
    for (int k = 0; k < kSetupRepeats; ++k)
        setup(0);

    Metrics m;
    for (const MetricSpec &s : metricCatalog())
        m[s.name] = 0.0;
    m["bench.prepare_s"] = prepare_s;
    m["bench.input_digest"] = w->inputDigest();

    // Timed phase: whole rounds until the next one would overrun. A
    // traced run does every round twice on the same inputs, untraced
    // then traced, so the difference is the tracing overhead.
    Spans spans;
    std::uint64_t attempted = 0, failed = 0;
    double run_s = 0.0, traced_s = 0.0, cpu_s = 0.0;
    std::vector<double> rates; // ops per second of each untraced round
    std::uint64_t rounds = 0;
    const double phase_start = nowSeconds();
    for (;;) {
        if (rounds > 0)
            setup(rounds);
        const double cpu0 = cpuSeconds();
        t = nowSeconds();
        const std::uint64_t ops = w->runRound(nullptr);
        const double round_s = nowSeconds() - t;
        run_s += round_s;
        rates.push_back(static_cast<double>(ops) / round_s);
        cpu_s += cpuSeconds() - cpu0;
        attempted += ops;
        failed += w->checkRound();
        if (o.trace) {
            setup(rounds);
            spans.setEnabled(true);
            spans.endOp();
            t = nowSeconds();
            {
                Scope root(&spans, "bench.round");
                attempted += w->runRound(&spans);
            }
            traced_s += nowSeconds() - t;
            spans.setEnabled(false);
            failed += w->checkRound();
            if (rounds == 0)
                w->countMetrics(m);
        } else if (rounds == 0) {
            w->countMetrics(m);
        }
        // The high-water mark after set-up and one round: later rounds
        // repeat the same work, but allocator fragmentation would make
        // the figure grow with the number of rounds a run fits.
        if (++rounds == 1)
            m["peak_rss_mb"] = peakRssMb();
        const double elapsed = nowSeconds() - phase_start;
        if (elapsed + 0.5 * elapsed / static_cast<double>(rounds) >=
            o.seconds)
            break;
    }

    m["ops_per_s"] = median(rates);
    m["setup_s"] = prepare_s + median(setups);
    m["error_rate"] =
        static_cast<double>(failed) / static_cast<double>(attempted);
    m["bench.cpu_util"] = cpu_s / run_s;
    if (o.trace) {
        const double n = static_cast<double>(rounds);
        m["bench.round_s"] = traced_s / n;
        m["bench.trace_overhead"] = (traced_s - run_s) / run_s;
        layerTimings(spans, n, m);
        const std::string path =
            o.outDir + "/" + o.workload + "-spans.json";
        if (!spans.writeChromeTrace(path))
            std::fprintf(stderr, "perfbench: cannot write '%s'\n",
                         path.c_str());
        else
            std::printf("spans written to %s\n", path.c_str());
    } else {
        m["bench.round_s"] = run_s / static_cast<double>(rounds);
    }

    std::printf("rounds %llu, attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (const MetricSpec &s : metricCatalog())
        std::printf("metric %s %.17g %s\n", s.name, m.at(s.name), s.unit);
    const bool correct = failed == 0;
    printResult(correct, attempted, failed, m,
                o.trace ? MetricKind::PerLayer : MetricKind::EndToEnd);
    std::fflush(stdout);
    return correct ? 0 : 1;
}
