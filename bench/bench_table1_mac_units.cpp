/**
 * @file
 * Table I: relative area and energy/op of MAC units in a 20 nm DRAM
 * process (INT16/INT8x2/FP16/BFLOAT16/FP32), plus the structural model
 * estimate behind the trade-off discussion of Section III-C.
 */

#include "bench_common.h"
#include "energy/energy_model.h"

using namespace pimsim;
using namespace pimsim::bench;

namespace {

const MacFormat kFormats[] = {
    MacFormat::Int16Acc48, MacFormat::Int8Acc48, MacFormat::Int8Acc32,
    MacFormat::Fp16,       MacFormat::Bf16,      MacFormat::Fp32,
};

void
printTable1()
{
    printHeader("Table I: relative area and energy/op of MAC units "
                "(normalised to INT16 w/ 48-bit accumulator)");
    printRow({"format", "area", "energy/op", "model-area", "model-energy"},
             24);
    for (MacFormat f : kFormats) {
        const auto [area_est, energy_est] = macModelEstimate(f);
        printRow({macFormatName(f), fmt(macRelativeArea(f)),
                  fmt(macRelativeEnergy(f)), fmt(area_est),
                  fmt(energy_est)},
                 24);
    }
    std::printf("\nSection III-C takeaways checked by this harness:\n"
                "  - FP32 MACs are ~4x the area of INT16: impractical "
                "in-DRAM.\n"
                "  - BF16 is slightly smaller/more efficient than FP16, "
                "but FP16 is\n    natively supported by host software "
                "stacks, so the product ships FP16.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    parseBenchFlags(argc, argv, 0);
    printTable1();
    return 0;
}
