/**
 * @file
 * Fig. 11: power breakdown of HBM vs PIM-HBM over back-to-back DRAM RD
 * commands (2.4 Gbps pins). The paper's findings reproduced here:
 *
 *  - PIM-HBM draws only ~5.4% more power than HBM while sustaining 4x
 *    the on-chip bandwidth;
 *  - the internal global I/O bus and most of the PHY stop toggling in
 *    AB-PIM mode, paying for the 4x bank activity;
 *  - gating the residual buffer-die I/O toggle would put PIM-HBM ~10%
 *    *below* HBM (Section VII-C).
 */

#include "bench_common.h"
#include "common/rng.h"
#include "energy/probe.h"
#include "host/host_model.h"
#include "stack/pim_program.h"

using namespace pimsim;
using namespace pimsim::bench;

namespace {

struct BreakdownResult
{
    EnergyBreakdown energy;
    double ns = 0.0;
    double bandwidthGBs = 0.0;

    double powerMw() const { return energy.total() / ns; }
};

/** Back-to-back reads on a standard HBM channel (no request scaling so
 *  the probe's event counts line up with the elapsed interval). */
BreakdownResult
hbmReadStream(std::uint64_t bursts)
{
    SystemConfig cfg = SystemConfig::hbmSystem();
    cfg.numStacks = 1;
    PimSystem sys(cfg);
    HostModel host(sys);
    ActivityProbe probe(sys);
    const double ns =
        host.simulateStreamNs(bursts * kBurstBytes, /*write_fraction=*/0.0);
    ChannelActivity a = probe.delta();
    a.elapsedNs = ns * sys.numChannels();

    BreakdownResult r;
    r.ns = ns * sys.numChannels(); // per-channel-ns normalisation
    r.energy = EnergyModel().channelEnergy(a);
    // Per pseudo channel, to match the PIM-side metric.
    r.bandwidthGBs = static_cast<double>(bursts) * kBurstBytes / ns /
                     sys.numChannels();
    return r;
}

/**
 * Back-to-back AB-PIM MAC triggers: the paper's Fig. 11 measurement
 * streams column RD commands into one open row while every PIM unit
 * executes a MAC per trigger. Built directly on the low-level program
 * API (no fences, no row switches) to isolate steady-state power.
 */
BreakdownResult
pimMacStream(std::uint64_t triggers, bool gate_buffer_io)
{
    SystemConfig cfg = SystemConfig::pimHbmSystem();
    cfg.numStacks = 1;
    PimSystem sys(cfg);
    PimChannel *pim = sys.controller(0).pim();
    const PimConfMap conf = pim->confMap();

    // Microkernel: MAC GRF_B[aam] += EVEN_BANK * GRF_A[aam], forever.
    std::vector<PimInst> kernel = {
        PimInst::mac(OperandSpace::GrfB, 0, OperandSpace::EvenBank, 0,
                     OperandSpace::GrfA, 0, /*aam=*/true),
        PimInst::jump(1, 65535),
        PimInst::exit(),
    };

    ChannelProgram prog;
    ProgramBuilder builder(prog);
    builder.prechargeAll();
    builder.activate(conf.abmrRow);
    builder.precharge();
    builder.fence();
    // Load CRF words and arm AB-PIM.
    Burst crf{};
    for (unsigned i = 0; i < kernel.size(); ++i) {
        const std::uint32_t w = kernel[i].encode();
        for (unsigned b = 0; b < 4; ++b)
            crf[4 * i + b] =
                static_cast<std::uint8_t>((w >> (8 * b)) & 0xff);
    }
    builder.write(conf.configRow, 0, crf);
    Burst on{};
    on[0] = 1;
    const auto [op_row, op_col] = pim->configAddr(pim->opModeCol());
    builder.write(op_row, op_col, on);
    builder.prechargeAll();
    builder.fence();

    // The back-to-back trigger stream: one row, columns cycling.
    for (std::uint64_t i = 0; i < triggers; ++i)
        builder.read(/*row=*/0, static_cast<unsigned>(i % 32));
    builder.fence();
    builder.prechargeAll();
    Burst off{};
    builder.write(op_row, op_col, off);
    builder.prechargeAll();
    builder.activate(conf.sbmrRow);
    builder.precharge();
    builder.fence();

    ActivityProbe probe(sys);
    const PimRunResult run =
        runPimProgramReplicated(sys, prog, sys.numChannels());
    ChannelActivity act = probe.delta();
    act.elapsedNs = run.ns * sys.numChannels();

    EnergyParams params;
    params.gateBufferIo = gate_buffer_io;

    BreakdownResult r;
    r.ns = run.ns * sys.numChannels();
    r.energy = EnergyModel(params).channelEnergy(act);
    r.bandwidthGBs = static_cast<double>(act.pimBankReads +
                                         act.pimBankWrites) *
                     kBurstBytes / run.ns / sys.numChannels();
    return r;
}

BreakdownResult g_hbm, g_pim, g_pim_gated;

void
runFig11()
{
    g_hbm = hbmReadStream(260000);
    g_pim = pimMacStream(60000, false);
    g_pim_gated = pimMacStream(60000, true);
}

void
printFig11()
{
    auto print = [](const char *name, const BreakdownResult &r,
                    double base_power) {
        const EnergyBreakdown &e = r.energy;
        const double p = r.powerMw();
        std::printf("%-14s power=%7.1f mW/pCH (%.3fx)  bw=%7.1f GB/s\n",
                    name, p, p / base_power, r.bandwidthGBs);
        std::printf(
            "    background %4.1f%%  cell %4.1f%%  IOSA/dec %4.1f%%  "
            "global-bus %4.1f%%  PHY %4.1f%%  PIM %4.1f%%  ACT %4.1f%%  "
            "other %4.1f%%\n",
            100 * e.background / e.total(), 100 * e.cell / e.total(),
            100 * e.iosa / e.total(), 100 * e.globalBus / e.total(),
            100 * e.phy / e.total(), 100 * e.pimUnit / e.total(),
            100 * e.activation / e.total(), 100 * e.other / e.total());
    };

    printHeader("Fig. 11: power breakdown over back-to-back column "
                "commands (per pseudo channel)");
    const double base = g_hbm.powerMw();
    print("HBM (RD)", g_hbm, base);
    print("PIM-HBM", g_pim, base);
    print("PIM-HBM gated", g_pim_gated, base);
    std::printf("\npaper: PIM-HBM = 1.054x HBM at 4x on-chip bandwidth; "
                "gating the buffer-die\nI/O toggle would reach ~0.9x "
                "(Section VII-C).\n");
    std::printf("measured bandwidth ratio (on-chip PIM vs off-chip HBM): "
                "%.2fx\n",
                g_pim.bandwidthGBs / g_hbm.bandwidthGBs);
}

} // namespace

int
main(int argc, char **argv)
{
    parseBenchFlags(argc, argv, 0);
    setQuiet(true);
    runFig11();
    printFig11();
    return 0;
}
