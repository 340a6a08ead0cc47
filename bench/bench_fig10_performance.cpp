/**
 * @file
 * Fig. 10: relative performance of the PIM-HBM system over the HBM
 * system for the Table VI microbenchmarks and the five applications at
 * batch sizes 1, 2 and 4, plus the host LLC miss rates and the
 * fence-removal study of Section VII-B.
 *
 * Paper headlines this harness reproduces in shape:
 *   GEMV B1 up to 11.2x, ADD B1 ~1.6x, DS2 3.5x, GNMT 1.5x,
 *   AlexNet 1.4x, ResNet ~1.0x; B4 flips GEMV to HBM-favoured;
 *   removing fences buys ~2x on the microbenchmarks.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <fstream>
#include <map>
#include <string>

#include "bench_common.h"
#include "common/json.h"
#include "stack/workloads.h"

using namespace pimsim;
using namespace pimsim::bench;

namespace {

struct Fig10Row
{
    std::string name;
    std::map<unsigned, double> speedup;     // batch -> PIM/HBM speedup
    std::map<unsigned, double> missRate;    // batch -> HBM LLC miss rate
    std::map<unsigned, double> hbmNs;
    std::map<unsigned, double> pimNs;
};

std::vector<Fig10Row> g_rows;
std::map<unsigned, double> g_nofence_geomean;

void
runFig10()
{
    setQuiet(true);
    Setup hbm = makeSetup(SystemConfig::hbmSystem());
    Setup pim = makeSetup(SystemConfig::pimHbmSystem());
    Setup pim_nofence = makeSetup(SystemConfig::pimHbmSystem());
    pim_nofence.blas->setUseFences(false);
    for (unsigned ch = 0; ch < pim_nofence.system->numChannels(); ++ch)
        pim_nofence.system->controller(ch).setOrderedWindow(1);

    const std::vector<unsigned> batches = {1, 2, 4};

    // Microbenchmarks.
    std::map<unsigned, std::vector<double>> fenced_gain;
    for (const auto &micro : table6Microbenchmarks()) {
        Fig10Row row;
        row.name = micro.name;
        for (unsigned b : batches) {
            const auto h = hbm.runner->runMicro(micro, b);
            const auto p = pim.runner->runMicro(micro, b);
            const auto pf = pim_nofence.runner->runMicro(micro, b);
            row.speedup[b] = h.ns / p.ns;
            row.missRate[b] = h.avgLlcMissRate;
            row.hbmNs[b] = h.ns;
            row.pimNs[b] = p.ns;
            fenced_gain[b].push_back(p.ns / pf.ns);
        }
        g_rows.push_back(row);
    }
    for (unsigned b : batches) {
        double log_sum = 0.0;
        for (double g : fenced_gain[b])
            log_sum += std::log(g);
        g_nofence_geomean[b] =
            std::exp(log_sum / fenced_gain[b].size());
    }

    // Applications.
    for (const auto &app : allApps()) {
        Fig10Row row;
        row.name = app.name;
        for (unsigned b : batches) {
            const auto h = hbm.runner->runApp(app, b);
            const auto p = pim.runner->runApp(app, b);
            row.speedup[b] = h.ns / p.ns;
            row.missRate[b] = h.avgLlcMissRate;
            row.hbmNs[b] = h.ns;
            row.pimNs[b] = p.ns;
        }
        g_rows.push_back(row);
    }
}

void
printFig10()
{
    printHeader("Fig. 10: relative performance (PIM-HBM vs HBM) and HBM "
                "LLC miss rates");
    printRow({"workload", "B1 speedup", "B2 speedup", "B4 speedup",
              "B1 miss%", "B2 miss%", "B4 miss%", "B1 HBM", "B1 PIM"});
    for (const auto &row : g_rows) {
        printRow({row.name, fmt(row.speedup.at(1)), fmt(row.speedup.at(2)),
                  fmt(row.speedup.at(4)),
                  fmt(100 * row.missRate.at(1), 0),
                  fmt(100 * row.missRate.at(2), 0),
                  fmt(100 * row.missRate.at(4), 0),
                  fmtNs(row.hbmNs.at(1)), fmtNs(row.pimNs.at(1))});
    }
    printHeader("Section VII-B fence study: microbenchmark geo-mean "
                "speedup of fence-free PIM over fenced PIM");
    printRow({"batch", "gain"});
    for (const auto &[b, g] : g_nofence_geomean)
        printRow({"B" + std::to_string(b), fmt(g)});
}

/** Machine-readable Fig. 10 results (BENCH_fig10.json at the repo root). */
void
writeJsonReport(const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        PIMSIM_WARN("cannot open bench output '", path, "'");
        return;
    }
    JsonWriter w(os, /*pretty=*/true);
    w.beginObject();
    // Seed 0: the fig10 workloads are fixed shapes, nothing is drawn.
    writeBenchPreamble(w, "fig10", 0, false,
                       "paper fig. 10: PIM speedup per workload x batch");
    w.key("rows").beginArray();
    for (const auto &row : g_rows) {
        w.beginObject();
        w.field("workload", row.name);
        w.key("batches").beginArray();
        for (const auto &[b, speedup] : row.speedup) {
            w.beginObject();
            w.field("batch", b);
            w.field("speedup", speedup);
            w.field("hbm_llc_miss", row.missRate.at(b));
            w.field("hbm_ns", row.hbmNs.at(b));
            w.field("pim_ns", row.pimNs.at(b));
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("nofence_geomean").beginArray();
    for (const auto &[b, g] : g_nofence_geomean) {
        w.beginObject();
        w.field("batch", b);
        w.field("gain", g);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

void
BM_Fig10(benchmark::State &state)
{
    for (auto _ : state) {
        if (g_rows.empty())
            runFig10();
    }
    const auto &row = g_rows.at(static_cast<std::size_t>(state.range(0)));
    state.counters["speedup_b1"] = row.speedup.at(1);
    state.counters["speedup_b2"] = row.speedup.at(2);
    state.counters["speedup_b4"] = row.speedup.at(4);
    state.counters["hbm_llc_miss_b1"] = row.missRate.at(1);
    state.SetLabel(row.name);
}

} // namespace

int
main(int argc, char **argv)
{
    // Take our flags before google/benchmark sees (and rejects) them.
    BenchFlags flags{"BENCH_fig10.json"};
    parseBenchFlags(argc, argv, kFlagJsonOut, flags);
    const std::string &json_out = flags.jsonOut;

    runFig10();
    for (std::size_t i = 0; i < g_rows.size(); ++i) {
        benchmark::RegisterBenchmark(("Fig10/" + g_rows[i].name).c_str(),
                                     BM_Fig10)
            ->Arg(static_cast<int>(i))
            ->Iterations(1);
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    printFig10();
    if (!json_out.empty())
        writeJsonReport(json_out);
    return 0;
}
