/**
 * @file
 * Ablation studies for the design choices DESIGN.md calls out (not a
 * paper figure): how PIM kernel performance responds to
 *
 *  - the GRF depth (= the AAM reorder window and fence interval that
 *    Section IV-C ties to functional correctness),
 *  - the fence/barrier cost the host pays,
 *  - the number of PIM execution units per pseudo channel (the paper's
 *    "trade-off between cost and on-chip compute bandwidth",
 *    Section III-A).
 */

#include "bench_common.h"
#include "common/rng.h"
#include "stack/workloads.h"

using namespace pimsim;
using namespace pimsim::bench;

namespace {

double
gemvNs(const SystemConfig &cfg)
{
    PimSystem sys(cfg);
    PimBlas blas(sys);
    Rng rng(5);
    const unsigned m = 2048, n = 4096;
    Fp16Vector w(std::size_t{m} * n), x(n), y;
    for (auto &v : w)
        v = rng.nextFp16();
    for (auto &v : x)
        v = rng.nextFp16();
    return blas.gemv(w, m, n, x, y).ns;
}

double
addNs(const SystemConfig &cfg)
{
    PimSystem sys(cfg);
    PimBlas blas(sys);
    Rng rng(6);
    const std::size_t len = 2u << 20;
    Fp16Vector a(len), b(len), out;
    for (auto &v : a)
        v = rng.nextFp16();
    for (auto &v : b)
        v = rng.nextFp16();
    return blas.add(a, b, out).ns;
}

void
printAblations()
{
    setQuiet(true);

    printHeader("Ablation: GRF depth (AAM window / fence interval)");
    printRow({"grfPerHalf", "GEMV2 time", "ADD1 time"}, 14);
    for (unsigned depth : {4u, 8u, 16u}) {
        SystemConfig cfg = SystemConfig::pimHbmSystem();
        cfg.pim.grfPerHalf = depth;
        cfg.pim.crfEntries = 64; // room for the register map either way
        // The GEMV microkernel needs >= 8 GRF registers per half.
        printRow({std::to_string(depth),
                  depth >= 8 ? fmtNs(gemvNs(cfg)) : "-",
                  fmtNs(addNs(cfg))},
                 14);
    }

    printHeader("Ablation: fence cost (host barrier overhead)");
    printRow({"fenceNs", "GEMV2 time", "ADD1 time"}, 14);
    for (double fence : {0.0, 25.0, 100.0, 400.0}) {
        SystemConfig cfg = SystemConfig::pimHbmSystem();
        cfg.host.fenceNs = fence;
        printRow({fmt(fence, 0), fmtNs(gemvNs(cfg)), fmtNs(addNs(cfg))},
                 14);
    }

    printHeader("Ablation: HBM3-generation fast mode switch "
                "(Section VIII future work)");
    printRow({"mode protocol", "GEMV 256x256", "GEMV2", "ADD1"}, 16);
    {
        SystemConfig base = SystemConfig::pimHbmSystem();
        SystemConfig fast = SystemConfig::pimHbmSystem();
        fast.pim = fast.pim.withFastModeSwitch();
        auto small_gemv = [](const SystemConfig &cfg) {
            PimSystem sys(cfg);
            PimBlas blas(sys);
            Rng rng(11);
            Fp16Vector w(256 * 256), x(256), y;
            for (auto &v : w)
                v = rng.nextFp16();
            for (auto &v : x)
                v = rng.nextFp16();
            return blas.gemv(w, 256, 256, x, y).ns;
        };
        printRow({"ABMR/SBMR seq", fmtNs(small_gemv(base)),
                  fmtNs(gemvNs(base)), fmtNs(addNs(base))},
                 16);
        printRow({"register-only", fmtNs(small_gemv(fast)),
                  fmtNs(gemvNs(fast)), fmtNs(addNs(fast))},
                 16);
    }

    printHeader("Ablation: PIM units per pCH (cost vs bandwidth, "
                "Section III-A)");
    printRow({"units/pCH", "banks/unit", "ADD1 time"}, 14);
    for (unsigned units : {2u, 4u, 8u}) {
        SystemConfig cfg = SystemConfig::pimHbmSystem();
        cfg.pim.unitsPerPch = units;
        cfg.geometry.bankGroupsPerPch = units / 2;
        // Keep 2 banks per unit; fewer bank groups = fewer banks.
        printRow({std::to_string(units),
                  std::to_string(cfg.geometry.banksPerPch() / units),
                  fmtNs(addNs(cfg))},
                 14);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    parseBenchFlags(argc, argv, 0);
    printAblations();
    return 0;
}
