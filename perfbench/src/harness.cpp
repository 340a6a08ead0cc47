/**
 * @file
 * Harness pieces shared by every workload: metric catalog, clocks,
 * statistics, digests and benchmark-side spans.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "common/json.h"
#include "perfbench.h"

namespace perfbench {

const std::vector<MetricSpec> &
metricCatalog()
{
    constexpr auto E = MetricKind::EndToEnd;
    constexpr auto L = MetricKind::PerLayer;
    static const std::vector<MetricSpec> catalog = {
        {"ops_per_s", "1/s", E},
        {"setup_s", "s", E},
        {"peak_rss_mb", "MB", E},

        {"error_rate", "ratio", L},
        {"bench.cpu_util", "ratio", L},
        {"bench.trace_overhead", "ratio", L},
        {"bench.round_s", "s", L},
        {"bench.prepare_s", "s", L},
        {"bench.input_digest", "hash", L},

        {"stack.app_s", "s", L},
        {"stack.blas_s", "s", L},
        {"stack.blas_calls", "count", L},
        {"host.model_s", "s", L},
        {"sim.stream_s", "s", L},
        {"sim.cycles_per_s", "1/s", L},
        {"sim.cycles", "count", L},
        {"sim.mem_requests", "count", L},
        {"dram.act", "count", L},
        {"dram.rd", "count", L},
        {"dram.wr", "count", L},
        {"dram.ref", "count", L},
        {"mem.row_hit_rate", "ratio", L},
        {"mem.queue_depth_mean", "requests", L},
        {"pim.trigger", "count", L},
        {"pim.bus_cycles", "count", L},
        {"reliability.faults_planted", "count", L},
        {"reliability.ecc_corrected", "count", L},
        {"model.digest", "hash", L},
        {"model.paper_b1_log_err", "ln", L},

        {"serve.advance_s", "s", L},
        {"serve.miss_advance_s", "s", L},
        {"serve.loop_advance_s", "s", L},
        {"serve.submit_s", "s", L},
        {"serve.miss_submit_s", "s", L},
        {"serve.cache_misses", "count", L},
        {"serve.s_per_miss", "s", L},
        {"serve.completed", "count", L},
        {"serve.rejected", "count", L},
        {"serve.shed", "count", L},
        {"serve.timed_out", "count", L},
        {"serve.host_fallback", "count", L},
        {"serve.sim_e2e_p99_ms", "ms", L},

        {"llm.advance_s", "s", L},
        {"llm.submit_s", "s", L},
        {"llm.iterations", "count", L},
        {"llm.mean_batch", "requests", L},
        {"llm.kv_peak_blocks", "count", L},
        {"llm.preemptions", "count", L},
        {"llm.cache_entries", "count", L},

        {"trace.flush_s", "s", L},
        {"trace.write_s", "s", L},
        {"trace.events", "count", L},
        {"trace.dropped", "count", L},
        {"trace.kept_traces", "count", L},
        {"trace.bytes", "bytes", L},

        {"cluster.submit_s", "s", L},
        {"cluster.drain_s", "s", L},
        {"cluster.chunk_ms.p50", "ms", L},
        {"cluster.chunk_ms.p99", "ms", L},
        {"cluster.completed", "count", L},
        {"cluster.rejected", "count", L},
        {"cluster.timed_out", "count", L},
        {"cluster.failed", "count", L},
        {"cluster.retries", "count", L},
        {"cluster.cache_entries", "count", L},
    };
    return catalog;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
quantile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::min(values.size() - 1, rank > 0 ? rank - 1 : 0)];
}

std::uint64_t
roundSeed(std::uint64_t seed, std::uint64_t round)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (round + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
Digest::bytes(const void *data, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
}

void
Digest::add(std::uint64_t v)
{
    bytes(&v, sizeof(v));
}

double
Digest::value() const
{
    return static_cast<double>(h_ & ((1ULL << 53) - 1));
}

Spans::Spans() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t
Spans::sinceOrigin() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int
Spans::open(const char *name)
{
    if (!enabled_)
        return -1;
    const int parent = openStack_.empty() ? -1 : openStack_.back();
    spans_.push_back(Span{name, op_, parent, sinceOrigin(), 0});
    const int index = static_cast<int>(spans_.size() - 1);
    openStack_.push_back(index);
    return index;
}

void
Spans::close(int index, const char *rename)
{
    if (index < 0)
        return;
    Span &s = spans_[static_cast<std::size_t>(index)];
    s.endNs = sinceOrigin();
    if (rename != nullptr)
        s.name = rename;
    // Scopes nest, so the span being closed is the innermost open one.
    if (!openStack_.empty() && openStack_.back() == index)
        openStack_.pop_back();
}

std::map<std::string, double>
Spans::selfSeconds() const
{
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] += s.endNs - s.startNs;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        self[s.name] +=
            static_cast<double>(s.endNs - s.startNs - childNs[i]) * 1e-9;
    }
    return self;
}

std::vector<double>
Spans::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (name == s.name)
            out.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-9);
    }
    return out;
}

bool
Spans::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    pimsim::JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.key("traceEvents").beginArray();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        w.beginObject();
        w.field("name", s.name);
        w.field("cat", "perfbench");
        w.field("ph", "X");
        w.field("ts", static_cast<double>(s.startNs) * 1e-3);
        w.field("dur", static_cast<double>(s.endNs - s.startNs) * 1e-3);
        w.field("pid", 1);
        w.field("tid", 1);
        w.key("args").beginObject();
        w.field("op", s.op);
        w.field("span", static_cast<std::uint64_t>(i));
        w.field("parent", s.parent);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.field("displayTimeUnit", "ms");
    w.endObject();
    os << "\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
