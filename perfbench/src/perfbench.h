/**
 * @file
 * Shared harness of the repository benchmark: run options, the metric
 * catalog, benchmark-side spans, and the workload interface.
 *
 * Every workload runs in its own process. A run is one-time preparation
 * (calibration, cache warm-up), several repeated round set-ups, then a
 * timed phase of whole rounds. Spans are recorded by the benchmark
 * around each call it makes into a library layer; the library itself is
 * not instrumented.
 */

#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options of one workload process. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny inputs for the benchmark's own tests. */
    bool smoke = false;
    /** Corrupt one golden output, to prove the checks can fail. */
    bool corrupt = false;
    /** Directory for trace files the run writes. */
    std::string outDir = ".";
};

/** End-to-end metrics are gated; per-layer metrics explain them. */
enum class MetricKind
{
    EndToEnd,
    PerLayer,
};

struct MetricSpec
{
    const char *name;
    const char *unit;
    MetricKind kind;
};

/** Every metric the benchmark prints, in print order. */
const std::vector<MetricSpec> &metricCatalog();

/** Monotonic wall clock in seconds. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** User + system CPU seconds of this process (all threads). */
double cpuSeconds();

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/** Median of a non-empty sample. */
double median(std::vector<double> values);

/** Value at quantile q in [0, 1] (nearest rank) of a non-empty sample. */
double quantile(std::vector<double> values, double q);

/** |a - b| of two counts. */
inline std::uint64_t
absDiff(std::uint64_t a, std::uint64_t b)
{
    return a > b ? a - b : b - a;
}

/** Seed of round `round` of a run seeded with `seed` (splitmix64). */
std::uint64_t roundSeed(std::uint64_t seed, std::uint64_t round);

/**
 * FNV-1a digest, truncated to 53 bits so it prints exactly as a JSON
 * number.
 */
class Digest
{
  public:
    void bytes(const void *data, std::size_t size);
    void add(double v);
    void add(std::uint64_t v);
    void add(const std::string &s) { bytes(s.data(), s.size()); }
    double value() const;

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Spans recorded around the benchmark's calls into library layers. A
 * span has a name, start, end, the span that encloses it, and the id of
 * the operation it belongs to. Kept in memory; written at the end.
 */
class Spans
{
  public:
    Spans();

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Start a new operation: spans opened from now on carry its id.
     *  Id 0 marks spans outside any operation (round roots). */
    void beginOp() { op_ = ++lastOp_; }
    void endOp() { op_ = 0; }

    /** Open a span; returns its index (-1 when disabled). */
    int open(const char *name);
    /** Close span `index`, optionally renaming it (attribution known
     *  only after the call, e.g. whether it filled a cache). */
    void close(int index, const char *rename = nullptr);

    /** Self seconds by span name: duration minus time covered by
     *  direct children. */
    std::map<std::string, double> selfSeconds() const;
    /** Durations in seconds of every span named `name`. */
    std::vector<double> durations(const std::string &name) const;

    /** Chrome trace-event JSON (opens in Perfetto). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        std::uint64_t op;
        int parent;
        std::int64_t startNs;
        std::int64_t endNs;
    };

    std::int64_t sinceOrigin() const;

    bool enabled_ = false;
    std::uint64_t op_ = 0;
    std::uint64_t lastOp_ = 0;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> openStack_;
};

/** RAII span; a no-op when `spans` is null or disabled. */
class Scope
{
  public:
    Scope(Spans *spans, const char *name)
        : spans_(spans != nullptr && spans->enabled() ? spans : nullptr),
          index_(spans_ != nullptr ? spans_->open(name) : -1)
    {
    }
    ~Scope()
    {
        if (spans_ != nullptr)
            spans_->close(index_, rename_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Name the span gets when it closes. */
    void rename(const char *name) { rename_ = name; }

  private:
    Spans *spans_;
    int index_;
    const char *rename_ = nullptr;
};

/** Metric values of one run, by catalog name. */
using Metrics = std::map<std::string, double>;

/**
 * One workload. The harness calls prepare() once, setupRound() before
 * every round (and several times before the first), runRound() inside
 * the timed phase, and checkRound() after it, outside the timing.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Simulator worker threads this workload uses. */
    virtual unsigned simThreads() const = 0;
    /** What one operation is, for the printed header. */
    virtual const char *opName() const = 0;

    /** One-time preparation: calibration and cache warm-up. */
    virtual void prepare() {}
    /** Build systems and engines and draw the round's seeded inputs. */
    virtual void setupRound(std::uint64_t seed) = 0;
    /** The timed work; returns the operations attempted. `spans` is
     *  null in untraced rounds. */
    virtual std::uint64_t runRound(Spans *spans) = 0;
    /** Correctness checks; returns the number of failed operations. */
    virtual std::uint64_t checkRound() = 0;
    /** Exact counts and model outputs of the round just checked. */
    virtual void countMetrics(Metrics &out) = 0;
    /** Digest of the round's generated inputs. */
    virtual double inputDigest() const = 0;
};

std::unique_ptr<Workload> makeKernels(const Options &options);
std::unique_ptr<Workload> makeServeCold(const Options &options);
std::unique_ptr<Workload> makeLlmTraced(const Options &options);
std::unique_ptr<Workload> makeClusterOverload(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H
