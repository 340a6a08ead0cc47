/**
 * @file
 * Fig. 13: average system power of DS2 over time, HBM vs PIM-HBM.
 *
 * The paper's point: PIM-HBM improves energy efficiency through both a
 * shorter run AND lower average power during the (dominant) LSTM
 * phases, where the host merely drives command streams instead of
 * spinning on memory stalls.
 */

#include "bench_common.h"
#include "energy/system_power.h"
#include "stack/workloads.h"

using namespace pimsim;
using namespace pimsim::bench;

namespace {

PowerTrace g_hbm_trace, g_pim_trace;
double g_hbm_ns = 0, g_pim_ns = 0;
double g_hbm_j = 0, g_pim_j = 0;

/** Build the per-layer phase schedule of DS2 on one system. */
std::vector<std::pair<double, double>>
ds2Phases(Setup &setup, bool pim_path, double *total_ns, double *total_j)
{
    SystemPowerModel power(EnergyModel{}, HostPowerParams{},
                           setup.system->numChannels());
    std::vector<std::pair<double, double>> phases;
    *total_ns = 0;
    *total_j = 0;
    for (const auto &layer : ds2App().layers) {
        AppSpec single;
        single.name = "layer";
        single.layers.push_back(layer);
        const AppRunResult run = setup.runner->runApp(single, 1);
        const SystemEnergy e = power.appEnergy(run, pim_path);
        phases.emplace_back(e.ns, e.avgPowerW());
        *total_ns += e.ns;
        *total_j += e.totalJ();
    }
    return phases;
}

void
runFig13()
{
    setQuiet(true);
    Setup hbm = makeSetup(SystemConfig::hbmSystem());
    Setup pim = makeSetup(SystemConfig::pimHbmSystem());

    const auto hbm_phases = ds2Phases(hbm, false, &g_hbm_ns, &g_hbm_j);
    const auto pim_phases = ds2Phases(pim, true, &g_pim_ns, &g_pim_j);

    const double sample = g_hbm_ns / 48.0; // ~48 samples for the longer run
    g_hbm_trace = SystemPowerModel::tracePhases(hbm_phases, sample);
    g_pim_trace = SystemPowerModel::tracePhases(pim_phases, sample);
}

void
printTrace(const char *name, const PowerTrace &trace)
{
    std::printf("%-8s", name);
    for (double w : trace.watts)
        std::printf(" %5.1f", w);
    std::printf("\n");
}

void
printFig13()
{
    printHeader("Fig. 13: DS2 average system power over time (W, sampled "
                "at equal intervals of the HBM run)");
    std::printf("sample interval: %s\n", fmtNs(g_hbm_trace.sampleNs).c_str());
    printTrace("HBM", g_hbm_trace);
    printTrace("PIM-HBM", g_pim_trace);
    std::printf("\nHBM:     total %s, energy %.2f J, avg %.1f W\n",
                fmtNs(g_hbm_ns).c_str(), g_hbm_j,
                g_hbm_j / g_hbm_ns * 1e9);
    std::printf("PIM-HBM: total %s, energy %.2f J, avg %.1f W\n",
                fmtNs(g_pim_ns).c_str(), g_pim_j,
                g_pim_j / g_pim_ns * 1e9);
    std::printf("\npaper: the PIM-HBM run is both shorter and at lower "
                "average power during the\nLSTM-dominated phases "
                "(Section VII-C).\n");
}

} // namespace

int
main(int argc, char **argv)
{
    parseBenchFlags(argc, argv, 0);
    runFig13();
    printFig13();
    return 0;
}
