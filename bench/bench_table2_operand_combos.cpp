/**
 * @file
 * Table II: supported operations, operand sources/destinations, and the
 * number of legal combinations (MUL 32, ADD 40, MAC 14, MAD 28 -> 114
 * compute combinations; 24 data movements). Also dumps the Table III
 * instruction formats by example.
 */

#include "bench_common.h"
#include "pim/isa.h"

using namespace pimsim;
using namespace pimsim::bench;

namespace {

void
printTable2()
{
    printHeader("Table II: operand combinations per operation");
    printRow({"op", "combinations", "paper"}, 16);
    const std::pair<PimOpcode, unsigned> expected[] = {
        {PimOpcode::Mul, 32},
        {PimOpcode::Add, 40},
        {PimOpcode::Mac, 14},
        {PimOpcode::Mad, 28},
        {PimOpcode::Mov, 24},
    };
    unsigned compute_total = 0;
    for (const auto &[op, paper] : expected) {
        const unsigned count = countCombinations(op);
        printRow({pimOpcodeName(op), std::to_string(count),
                  std::to_string(paper)},
                 16);
        if (isArithmeticOpcode(op))
            compute_total += count;
    }
    std::printf("total compute combinations: %u (paper: 114)\n",
                compute_total);

    printHeader("Legal MAC combinations (SRC0, SRC1 -> DST)");
    for (const auto &combo : enumerateCompute(PimOpcode::Mac)) {
        std::printf("  MAC %s <- %s, %s\n", operandSpaceName(combo[2]),
                    operandSpaceName(combo[0]), operandSpaceName(combo[1]));
    }

    printHeader("Table III format examples (encode -> disassemble)");
    const PimInst examples[] = {
        PimInst::nop(4),
        PimInst::jump(3, 8),
        PimInst::exit(),
        PimInst::mov(OperandSpace::GrfA, 2, OperandSpace::EvenBank, 0,
                     /*relu=*/true),
        PimInst::fill(OperandSpace::GrfB, 1, OperandSpace::OddBank, 0,
                      /*aam=*/true),
        PimInst::add(OperandSpace::GrfA, 0, OperandSpace::GrfA, 0,
                     OperandSpace::SrfA, 0, true),
        PimInst::mul(OperandSpace::GrfB, 3, OperandSpace::EvenBank, 0,
                     OperandSpace::SrfM, 2),
        PimInst::mac(OperandSpace::GrfB, 0, OperandSpace::EvenBank, 0,
                     OperandSpace::GrfA, 5),
        PimInst::mad(OperandSpace::GrfA, 1, OperandSpace::OddBank, 0,
                     OperandSpace::SrfM, 4),
    };
    for (const auto &inst : examples) {
        std::printf("  0x%08x  %s\n", inst.encode(),
                    inst.disassemble().c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    parseBenchFlags(argc, argv, 0);
    printTable2();
    return 0;
}
