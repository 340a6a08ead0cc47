/**
 * @file
 * Shared helpers for the benchmark harnesses: system construction,
 * paper-style table printing, the shared command-line flags and the
 * in-binary acceptance checks.
 */

#ifndef PIMSIM_BENCH_BENCH_COMMON_H
#define PIMSIM_BENCH_BENCH_COMMON_H

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "host/host_model.h"
#include "sim/system.h"
#include "stack/app_runner.h"
#include "stack/blas.h"

namespace pimsim::bench {

/** A complete evaluation setup: system + host model (+ PIM BLAS). */
struct Setup
{
    std::unique_ptr<PimSystem> system;
    std::unique_ptr<HostModel> host;
    std::unique_ptr<PimBlas> blas;
    std::unique_ptr<AppRunner> runner;
};

inline Setup
makeSetup(const SystemConfig &config)
{
    Setup s;
    s.system = std::make_unique<PimSystem>(config);
    s.host = std::make_unique<HostModel>(*s.system);
    if (config.withPim())
        s.blas = std::make_unique<PimBlas>(*s.system);
    s.runner = std::make_unique<AppRunner>(*s.host, s.blas.get());
    return s;
}

/** Fixed-width row printer for paper-style tables. */
inline void
printRow(const std::vector<std::string> &cells, int width = 12)
{
    for (const auto &c : cells)
        std::printf("%-*s", width, c.c_str());
    std::printf("\n");
}

inline std::string
fmt(double value, int precision = 2)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

inline std::string
fmtNs(double ns)
{
    char buf[64];
    if (ns >= 1e6)
        std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
    else if (ns >= 1e3)
        std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.0f ns", ns);
    return buf;
}

inline void
printHeader(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/** The command-line flags the benches share; fields start at the
 *  bench's defaults. */
struct BenchFlags
{
    std::string jsonOut{};  ///< --json-out=PATH ("" writes no JSON)
    std::string traceOut{}; ///< --trace-out=PATH ("" records no trace)
    bool smoke = false;     ///< --smoke: reduced sizes for CI
    std::uint64_t seed = 0; ///< --seed=N, a decimal integer
};

/** Which BenchFlags a bench takes (bit set). */
enum : unsigned
{
    kFlagJsonOut = 1u << 0,
    kFlagTraceOut = 1u << 1,
    kFlagSmoke = 1u << 2,
    kFlagSeed = 1u << 3,
};

/**
 * Move the flags named in `accepted` from argv into `flags`, keeping
 * every other argument in order for google/benchmark (argc shrinks to
 * match). A --seed= that is not a plain decimal integer prints a
 * message and exits with status 2.
 */
inline void
parseBenchFlags(int &argc, char **argv, unsigned accepted, BenchFlags &flags)
{
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if ((accepted & kFlagJsonOut) && arg.starts_with("--json-out=")) {
            flags.jsonOut = arg.substr(11);
        } else if ((accepted & kFlagTraceOut) &&
                   arg.starts_with("--trace-out=")) {
            flags.traceOut = arg.substr(12);
        } else if ((accepted & kFlagSmoke) && arg == "--smoke") {
            flags.smoke = true;
        } else if ((accepted & kFlagSeed) && arg.starts_with("--seed=")) {
            const std::string_view text = arg.substr(7);
            const char *end = text.data() + text.size();
            const auto [ptr, ec] =
                std::from_chars(text.data(), end, flags.seed);
            if (text.empty() || ec != std::errc() || ptr != end) {
                std::fprintf(stderr,
                             "%s: bad --seed '%s': expected a "
                             "non-negative decimal integer\n",
                             argv[0], text.data());
                std::exit(2);
            }
        } else {
            argv[kept++] = argv[i];
        }
    }
    argc = kept;
}

/** Descriptions of the in-binary acceptance checks that failed. */
inline std::vector<std::string> g_failures;

/** Record one in-binary acceptance check. */
inline void
check(bool ok, const std::string &what)
{
    if (!ok)
        g_failures.push_back(what);
}

} // namespace pimsim::bench

#endif // PIMSIM_BENCH_BENCH_COMMON_H
