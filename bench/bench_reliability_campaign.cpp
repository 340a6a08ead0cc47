/**
 * @file
 * Reliability campaign: fault-injection sweeps over the full software
 * stack (Section VIII's on-die ECC discussion, taken to its logical
 * end-to-end conclusion).
 *
 * For each injection rate and ECC setting, a PIM-HBM system runs a
 * sequence of element-wise kernels while the FaultInjector plants
 * transient flips, stuck-at cells, burst errors and PIM register faults
 * between kernels, and the controllers' patrol scrubbers walk the
 * touched rows. Every kernel result is compared bit-exactly against the
 * host golden reference, separating three outcomes:
 *
 *  - corrected:     ECC repaired the fault (demand access or scrub);
 *  - recovered:     the runtime saw an uncorrectable error or faulted
 *                   unit and retried / fell back to the host — the
 *                   caller still gets the right answer;
 *  - SDC:           silent data corruption — the output is wrong and
 *                   nothing reported an error (the ECC-off hazard).
 *
 * Identical seeds produce identical fault sequences and counts, so a
 * sweep is exactly reproducible. Results are printed as a table, as
 * CSV, and as a JSON array.
 *
 * Flags:
 *   --json-out=FILE  result file (default BENCH_reliability.json; ""
 *                    disables)
 */

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "reliability/fault_injector.h"
#include "stack/reference.h"

using namespace pimsim;
using namespace pimsim::bench;

namespace {

constexpr std::uint64_t kSeed = 0x5eedc0de;
constexpr unsigned kKernels = 8;        ///< PIM kernels per cell
constexpr std::size_t kElements = 4096; ///< element-wise problem size
constexpr Cycle kStepCycles = 2000;     ///< cycles between injections
constexpr unsigned kStepsPerKernel = 4; ///< injection steps between kernels

struct CampaignCell
{
    double rate = 0.0; ///< expected DRAM transient faults per step
    bool ecc = false;

    std::uint64_t injected = 0;
    std::uint64_t corrected = 0;     ///< demand + scrub ECC corrections
    std::uint64_t uncorrectable = 0; ///< detected-uncorrectable events
    std::uint64_t scrubCorrected = 0;
    std::uint64_t scrubUncorrectable = 0;
    std::uint64_t retries = 0;
    std::uint64_t fallbacks = 0;
    unsigned kernels = 0;
    unsigned exact = 0; ///< kernels whose output matched golden bit-exactly
    unsigned sdc = 0;   ///< wrong output with no error reported

    double successRate() const
    {
        return kernels ? static_cast<double>(exact) / kernels : 1.0;
    }
};

/** The fault mix, scaled by one knob: mostly transients, some stuck-at
 *  cells, occasional SEC-DED-defeating bursts and register flips. */
FaultRates
mixAt(double rate)
{
    FaultRates r;
    r.dramTransient = rate;
    r.dramStuck = rate / 4;
    r.dramBurst = rate / 8;
    r.pimGrf = rate / 16;
    r.pimSrf = rate / 16;
    r.pimCrf = rate / 16;
    return r;
}

CampaignCell
runCell(double rate, bool ecc)
{
    SystemConfig cfg = SystemConfig::pimHbmSystem();
    cfg.numStacks = 1;
    cfg.geometry.onDieEcc = ecc;
    cfg.controller.scrubEnabled = ecc; // scrubbing needs the code words
    cfg.controller.scrubInterval = kStepCycles / 2;
    cfg.controller.scrubBurstsPerStep = 64;

    PimSystem system(cfg);
    PimBlas blas(system);
    FaultInjector injector(system, mixAt(rate), kSeed);

    // One fixed problem; the golden answer never changes.
    Rng data(kSeed ^ 0xda7a);
    Fp16Vector a(kElements), b(kElements);
    for (auto &v : a)
        v = data.nextFp16();
    for (auto &v : b)
        v = data.nextFp16();
    const Fp16Vector golden = refAdd(a, b);

    CampaignCell cell;
    cell.rate = rate;
    cell.ecc = ecc;
    for (unsigned k = 0; k < kKernels; ++k) {
        Fp16Vector out;
        const BlasTiming t = blas.add(a, b, out);
        ++cell.kernels;
        cell.retries += t.retries;
        cell.fallbacks += t.hostFallback ? 1 : 0;

        bool exact = out.size() == golden.size();
        for (std::size_t i = 0; exact && i < golden.size(); ++i)
            exact = out[i].bits() == golden[i].bits();
        if (exact)
            ++cell.exact;
        else
            ++cell.sdc; // wrong answer, nothing reported: silent corruption

        // Let simulated time pass: the injector plants faults and the
        // controllers' scrubbers patrol the touched rows.
        injector.runCampaign(kStepCycles, kStepsPerKernel);
    }

    cell.injected = injector.counts().total();
    cell.corrected = system.errorLog().corrected();
    cell.uncorrectable = system.errorLog().uncorrectable();
    cell.scrubCorrected = system.totalCtrlStat("scrub.corrected");
    cell.scrubUncorrectable = system.totalCtrlStat("scrub.uncorrectable");
    return cell;
}

const std::vector<double> kRates = {0.0, 0.5, 2.0, 8.0};
std::vector<CampaignCell> g_cells;

void
runSweep()
{
    setQuiet(true);
    for (const bool ecc : {true, false})
        for (const double rate : kRates)
            g_cells.push_back(runCell(rate, ecc));
}

void
printResults()
{
    printHeader("Reliability campaign: fault injection across the stack "
                "(seed 0x5eedc0de)");
    printRow({"rate", "ecc", "injected", "corrected", "uncorr", "scrubbed",
              "retries", "fallback", "sdc", "success"},
             10);
    for (const auto &c : g_cells) {
        printRow({fmt(c.rate, 1), c.ecc ? "on" : "off",
                  std::to_string(c.injected), std::to_string(c.corrected),
                  std::to_string(c.uncorrectable),
                  std::to_string(c.scrubCorrected),
                  std::to_string(c.retries), std::to_string(c.fallbacks),
                  std::to_string(c.sdc),
                  fmt(100.0 * c.successRate(), 1) + "%"},
                 10);
    }

    printHeader("CSV");
    std::printf("rate,ecc,injected,corrected,uncorrectable,"
                "scrub_corrected,scrub_uncorrectable,retries,fallbacks,"
                "kernels,exact,sdc,success_rate\n");
    for (const auto &c : g_cells) {
        std::printf("%.3f,%d,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%u,%u,%u,"
                    "%.4f\n",
                    c.rate, c.ecc ? 1 : 0,
                    static_cast<unsigned long long>(c.injected),
                    static_cast<unsigned long long>(c.corrected),
                    static_cast<unsigned long long>(c.uncorrectable),
                    static_cast<unsigned long long>(c.scrubCorrected),
                    static_cast<unsigned long long>(c.scrubUncorrectable),
                    static_cast<unsigned long long>(c.retries),
                    static_cast<unsigned long long>(c.fallbacks),
                    c.kernels, c.exact, c.sdc, c.successRate());
    }

    printHeader("JSON");
    std::printf("[\n");
    for (std::size_t i = 0; i < g_cells.size(); ++i) {
        const auto &c = g_cells[i];
        std::printf("  {\"rate\": %.3f, \"ecc\": %s, \"injected\": %llu, "
                    "\"corrected\": %llu, \"uncorrectable\": %llu, "
                    "\"scrub_corrected\": %llu, \"retries\": %llu, "
                    "\"fallbacks\": %llu, \"kernels\": %u, \"sdc\": %u, "
                    "\"success_rate\": %.4f}%s\n",
                    c.rate, c.ecc ? "true" : "false",
                    static_cast<unsigned long long>(c.injected),
                    static_cast<unsigned long long>(c.corrected),
                    static_cast<unsigned long long>(c.uncorrectable),
                    static_cast<unsigned long long>(c.scrubCorrected),
                    static_cast<unsigned long long>(c.retries),
                    static_cast<unsigned long long>(c.fallbacks),
                    c.kernels, c.sdc, c.successRate(),
                    i + 1 < g_cells.size() ? "," : "");
    }
    std::printf("]\n");

    std::printf("\nexpectation: with ECC on, faults either correct "
                "(demand/scrub) or surface as\nuncorrectable and recover "
                "via retry/host-fallback (success 100%%); with ECC off,\n"
                "stuck-at and burst faults pass silently into results "
                "(SDC > 0 at high rates).\n");
}

/** Machine-readable sweep results (BENCH_reliability.json at the repo
 *  root). */
void
writeReport(JsonWriter &w)
{
    writeBenchPreamble(w, "reliability", kSeed, false,
                       "fault-injection campaign: error rate x ECC");
    w.field("kernels_per_cell", kKernels);
    w.field("elements", kElements);
    w.key("cells").beginArray();
    for (const auto &c : g_cells) {
        w.beginObject();
        w.field("rate", c.rate);
        w.field("ecc", c.ecc);
        w.field("injected", c.injected);
        w.field("corrected", c.corrected);
        w.field("uncorrectable", c.uncorrectable);
        w.field("scrub_corrected", c.scrubCorrected);
        w.field("scrub_uncorrectable", c.scrubUncorrectable);
        w.field("retries", c.retries);
        w.field("fallbacks", c.fallbacks);
        w.field("kernels", c.kernels);
        w.field("exact", c.exact);
        w.field("sdc", c.sdc);
        w.field("success_rate", c.successRate());
        w.endObject();
    }
    w.endArray();
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchFlags flags = parseBenchFlags(argc, argv, kFlagJsonOut,
                                             {"BENCH_reliability.json"});
    runSweep();
    printResults();
    return writeJsonReport(flags.jsonOut, writeReport) ? 0 : 1;
}
