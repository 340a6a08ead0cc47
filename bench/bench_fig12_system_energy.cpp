/**
 * @file
 * Fig. 12: relative power and energy of three systems — PROC-HBM (the
 * baseline processor + 4 HBM stacks), PIM-HBM (the same processor + 4
 * PIM-HBM stacks), and PROC-HBMx4 (a hypothetical processor with 16 HBM
 * stacks) — on GEMV, ADD, DS2, GNMT and AlexNet.
 *
 * Paper headlines: PIM-HBM is 8.25x more energy-efficient than PROC-HBM
 * on GEMV and 1.4x on ADD; 3.2x / 1.38x / 1.5x on DS2 / GNMT / AlexNet;
 * PROC-HBMx4 gains bandwidth but burns proportionally more power, so
 * its efficiency stays near PROC-HBM.
 */

#include <map>

#include "bench_common.h"
#include "energy/system_power.h"
#include "stack/workloads.h"

using namespace pimsim;
using namespace pimsim::bench;

namespace {

struct Entry
{
    std::string name;
    // per system: (ns, avg W, J)
    std::map<std::string, SystemEnergy> bySystem;
};

std::vector<Entry> g_entries;

SystemEnergy
measure(Setup &setup, const std::string &workload, unsigned batch,
        bool pim_path)
{
    AppRunResult run;
    bool matched = false;
    for (const auto &micro : table6Microbenchmarks()) {
        if (micro.name == workload) {
            run = setup.runner->runMicro(micro, batch);
            matched = true;
        }
    }
    if (!matched) {
        for (const auto &app : allApps()) {
            if (app.name == workload) {
                run = setup.runner->runApp(app, batch);
                matched = true;
            }
        }
    }
    PIMSIM_ASSERT(matched, "unknown workload ", workload);

    SystemPowerModel power(EnergyModel{}, HostPowerParams{},
                           setup.system->numChannels());
    return power.appEnergy(run, pim_path);
}

void
runFig12()
{
    setQuiet(true);
    Setup proc_hbm = makeSetup(SystemConfig::hbmSystem());
    Setup pim_hbm = makeSetup(SystemConfig::pimHbmSystem());
    Setup proc_hbm_x4 = makeSetup(SystemConfig::hbmX4System());

    const char *workloads[] = {"GEMV3", "ADD3", "DS2", "GNMT", "AlexNet"};
    for (const char *w : workloads) {
        Entry e;
        e.name = w;
        e.bySystem["PROC-HBM"] = measure(proc_hbm, w, 1, false);
        e.bySystem["PIM-HBM"] = measure(pim_hbm, w, 1, true);
        e.bySystem["PROC-HBMx4"] = measure(proc_hbm_x4, w, 1, false);
        g_entries.push_back(e);
    }
}

void
printFig12()
{
    printHeader("Fig. 12: relative power and energy (normalised to "
                "PROC-HBM)");
    printRow({"workload", "system", "time", "avg power", "rel power",
              "rel energy", "eff gain"},
             13);
    for (const auto &e : g_entries) {
        const auto &base = e.bySystem.at("PROC-HBM");
        for (const char *sys : {"PROC-HBM", "PIM-HBM", "PROC-HBMx4"}) {
            const auto &s = e.bySystem.at(sys);
            printRow({e.name, sys, fmtNs(s.ns),
                      fmt(s.avgPowerW(), 1) + " W",
                      fmt(s.avgPowerW() / base.avgPowerW()),
                      fmt(s.totalJ() / base.totalJ()),
                      fmt(base.totalJ() / s.totalJ())},
                     13);
        }
    }
    std::printf("\npaper: PIM-HBM energy-efficiency gains over PROC-HBM: "
                "GEMV 8.25x, ADD 1.4x,\nDS2 3.2x, GNMT 1.38x, AlexNet "
                "1.5x; PROC-HBMx4 stays near PROC-HBM.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    parseBenchFlags(argc, argv, 0);
    runFig12();
    printFig12();
    return 0;
}
