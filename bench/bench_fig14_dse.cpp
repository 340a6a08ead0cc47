/**
 * @file
 * Fig. 14: design-space exploration of three enhanced PIM
 * microarchitectures that did not fit the product constraints
 * (Section VII-D), evaluated like the paper with a DRAMSim2-style
 * upper-bound methodology (no host compute/launch costs modelled):
 *
 *  - PIM-HBM-2x:  double CRF/GRF/SRF resources (+24% die size)
 *  - PIM-HBM-2BA: one instruction reads EVEN and ODD bank at once
 *  - PIM-HBM-SRW: simultaneous column RD and WR (write-bus operand)
 *
 * Paper: ~40% / ~20% / ~10% geo-mean gain over PIM-HBM respectively;
 * 2BA helps ADD most, SRW helps GEMV (~25%).
 */

#include <cmath>
#include <map>

#include "bench_common.h"
#include "common/rng.h"
#include "stack/workloads.h"

using namespace pimsim;
using namespace pimsim::bench;

namespace {

struct DseRow
{
    std::string workload;
    // variant name -> speedup over the HBM baseline
    std::map<std::string, double> speedup;
};

std::vector<DseRow> g_rows;
std::map<std::string, double> g_geomean; // variant -> gain over base PIM

/**
 * Upper-bound PIM kernel time: no host compute or launch overheads are
 * charged (the paper's DRAMSim2 methodology), but the AAM-window
 * synchronisation stays — it is an architectural property of driving
 * PIM through an unmodified host, and it is exactly what the 2x
 * variant's deeper GRF relaxes.
 */
double
pimUpperBoundNs(Setup &setup, const MicroSpec &micro)
{
    Rng rng(0xd5e ^ micro.m ^ micro.elements);
    if (micro.kind == MicroKind::Gemv) {
        Fp16Vector w(std::size_t{micro.m} * micro.n), x(micro.n), y;
        for (auto &v : w)
            v = rng.nextFp16();
        for (auto &v : x)
            v = rng.nextFp16();
        return setup.blas->gemv(w, micro.m, micro.n, x, y).ns;
    }
    Fp16Vector a(micro.elements), out;
    for (auto &v : a)
        v = rng.nextFp16();
    if (micro.kind == MicroKind::Add) {
        Fp16Vector b(micro.elements);
        for (auto &v : b)
            v = rng.nextFp16();
        return setup.blas->add(a, b, out).ns;
    }
    Fp16Vector gamma(8), beta(8);
    for (auto &v : gamma)
        v = rng.nextFp16();
    for (auto &v : beta)
        v = rng.nextFp16();
    return setup.blas->bn(a, gamma, beta, out).ns;
}

void
runFig14()
{
    setQuiet(true);
    Setup hbm = makeSetup(SystemConfig::hbmSystem());

    std::map<std::string, SystemConfig> variants;
    variants["PIM-HBM"] = SystemConfig::pimHbmSystem();
    {
        SystemConfig c = SystemConfig::pimHbmSystem();
        c.pim = c.pim.withDoubleResources();
        variants["PIM-HBM-2x"] = c;
    }
    {
        SystemConfig c = SystemConfig::pimHbmSystem();
        c.pim = c.pim.withTwoBankAccess();
        variants["PIM-HBM-2BA"] = c;
    }
    {
        SystemConfig c = SystemConfig::pimHbmSystem();
        c.pim = c.pim.withSimultaneousRdWr();
        variants["PIM-HBM-SRW"] = c;
    }

    std::vector<MicroSpec> workloads = table6Microbenchmarks();
    for (const auto &bn : bnMicrobenchmarks())
        workloads.push_back(bn);

    std::map<std::string, Setup> setups;
    for (const auto &[name, cfg] : variants)
        setups.emplace(name, makeSetup(cfg));

    std::map<std::string, std::vector<double>> gains;
    for (const auto &micro : workloads) {
        DseRow row;
        row.workload = micro.name;
        const auto h = hbm.runner->runMicro(micro, 1);
        for (const auto &[name, cfg] : variants)
            row.speedup[name] =
                h.ns / pimUpperBoundNs(setups.at(name), micro);
        for (const auto &[name, cfg] : variants) {
            if (name != "PIM-HBM")
                gains[name].push_back(row.speedup[name] /
                                      row.speedup["PIM-HBM"]);
        }
        g_rows.push_back(row);
    }
    for (const auto &[name, gs] : gains) {
        double log_sum = 0;
        for (double g : gs)
            log_sum += std::log(g);
        g_geomean[name] = std::exp(log_sum / gs.size());
    }
}

void
printFig14()
{
    printHeader("Fig. 14: DSE speedups over HBM (upper-bound: no host "
                "compute/launch costs)");
    printRow({"workload", "PIM-HBM", "PIM-HBM-2x", "PIM-HBM-2BA",
              "PIM-HBM-SRW"},
             14);
    for (const auto &row : g_rows) {
        printRow({row.workload, fmt(row.speedup.at("PIM-HBM")),
                  fmt(row.speedup.at("PIM-HBM-2x")),
                  fmt(row.speedup.at("PIM-HBM-2BA")),
                  fmt(row.speedup.at("PIM-HBM-SRW"))},
                 14);
    }
    printHeader("Geo-mean gain over base PIM-HBM");
    for (const auto &[name, g] : g_geomean)
        printRow({name, fmt(g)}, 16);
    std::printf("\npaper: 2x ~1.4x geo-mean (+24%% die), 2BA ~1.2x (+60%% "
                "power, biggest on ADD),\nSRW ~1.1x (~1.25x on GEMV).\n");
}

} // namespace

int
main(int argc, char **argv)
{
    parseBenchFlags(argc, argv, 0);
    runFig14();
    printFig14();
    return 0;
}
