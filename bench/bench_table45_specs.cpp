/**
 * @file
 * Tables IV and V: the PIM execution-unit and PIM-HBM device
 * specifications, derived from the simulator's configuration objects
 * (so a config change shows up here immediately), checked against the
 * published numbers.
 */

#include "bench_common.h"
#include "pim/pim_config.h"

using namespace pimsim;
using namespace pimsim::bench;

namespace {

void
printTables()
{
    const SystemConfig sys = SystemConfig::pimHbmSystem();
    const PimConfig &pim = sys.pim;
    const HbmTiming &t = sys.timing;

    printHeader("Table IV: PIM execution unit");
    printRow({"# of MUL/ADD FPUs",
              std::to_string(pim.lanes) + "/" + std::to_string(pim.lanes)},
             34);
    printRow({"Datapath width",
              "256 bits (16 bits x " + std::to_string(pim.lanes) +
                  " lanes)"},
             34);
    printRow({"Operating frequency",
              fmt(t.coreGHz() * 1000, 0) + " MHz (bus/4)"},
             34);
    printRow({"Throughput",
              fmt(PimConfig::unitGflops(0.3, pim.lanes), 1) +
                  " GFLOPS at 300 MHz"},
             34);
    printRow({"Equivalent gate count",
              std::to_string(PimConfig::kGateCount) + " (only logic)"},
             34);
    printRow({"Instruction registers",
              "32b x " + std::to_string(pim.crfEntries) + " (CRF)"},
             34);
    printRow({"Vector registers",
              "256b x " + std::to_string(2 * pim.grfPerHalf) + " (GRF)"},
             34);
    printRow({"Scalar registers",
              "16b x " + std::to_string(2 * pim.srfPerFile) + " (SRF)"},
             34);
    printRow({"Area", fmt(PimConfig::kAreaMm2, 3) + " mm^2"}, 34);

    printHeader("Table V: PIM-HBM device (one stack)");
    const double on_chip =
        sys.onChipBandwidthGBs() / sys.numStacks; // per stack
    const double off_chip =
        sys.offChipBandwidthGBs() / sys.numStacks;
    printRow({"Ext. clocking frequency", fmt(t.busGHz(), 1) + " GHz"}, 34);
    printRow({"Timing parameters", "Same as HBM2"}, 34);
    printRow({"# of pCHs", std::to_string(sys.geometry.pchPerStack)}, 34);
    printRow({"# of banks per pCH",
              std::to_string(sys.geometry.banksPerPch())},
             34);
    printRow({"# of PIM exe. units per pCH",
              std::to_string(pim.unitsPerPch)},
             34);
    printRow({"On-chip compute bandwidth",
              fmt(on_chip / 1000.0, 3) + " TB/s"},
             34);
    printRow({"Off-chip I/O bandwidth", fmt(off_chip, 1) + " GB/s"}, 34);
    printRow({"Capacity (modelled geometry)",
              fmt(static_cast<double>(sys.geometry.bytesPerStack()) /
                      (1ull << 30),
                  1) + " GB"},
             34);

    printHeader("Section VI system (4 stacks + 60-CU processor)");
    printRow({"Total off-chip bandwidth",
              fmt(sys.offChipBandwidthGBs() / 1000.0, 3) + " TB/s "
              "(paper: 1.229 TB/s)"},
             34);
    printRow({"Total on-chip compute bandwidth",
              fmt(sys.onChipBandwidthGBs() / 1000.0, 3) + " TB/s "
              "(paper: 4.915 TB/s)"},
             34);
}

} // namespace

int
main(int argc, char **argv)
{
    parseBenchFlags(argc, argv, 0);
    printTables();
    return 0;
}
