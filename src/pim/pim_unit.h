/**
 * @file
 * One PIM execution unit (Section IV, Fig. 4).
 *
 * A unit sits at the I/O boundary of a pair of banks (EVEN_BANK,
 * ODD_BANK), contains a 16-wide FP16 SIMD FPU, the CRF/GRF/SRF register
 * files, and a sequencer. In AB-PIM mode each DRAM column command
 * triggers exactly one non-control PIM instruction; JUMP and EXIT are
 * resolved at the fetch/decode stage for free ("zero-cycle JUMP",
 * Section III-C).
 */

#ifndef PIMSIM_PIM_PIM_UNIT_H
#define PIMSIM_PIM_PIM_UNIT_H

#include <string>
#include <vector>

#include "common/stats.h"
#include "dram/command.h"
#include "dram/pseudo_channel.h"
#include "pim/isa.h"
#include "pim/pim_config.h"
#include "pim/registers.h"

namespace pimsim {

/**
 * The SIMD FPU's row operations in number format `fmt`: widen the whole
 * row to float once, compute in float, round back once. Each lane is
 * bit-identical to fp16Add/fp16Mul/fp16Mac (bf16* in BF16 mode) — the
 * float add/mul of two 16-bit-significand values is exact, and the MAC
 * keeps the non-fused double rounding by rounding the product row to
 * format precision before the accumulate.
 */
LaneVector rowAdd(PimNumberFormat fmt, const LaneVector &a,
                  const LaneVector &b);
LaneVector rowMul(PimNumberFormat fmt, const LaneVector &a,
                  const LaneVector &b);
/** round(round(a * b) + acc) per lane. */
LaneVector rowMac(PimNumberFormat fmt, const LaneVector &a,
                  const LaneVector &b, const LaneVector &acc);

/** Execution state and datapath of one PIM unit. */
class PimUnit
{
  public:
    /**
     * @param config  unit configuration (register depths, DSE flags)
     * @param index   unit index within the pCH; serves flat banks
     *                (2*index, 2*index+1)
     * @param pch     owning pseudo channel (bank state + data)
     * @param stats   shared per-channel stat group (may be nullptr)
     */
    PimUnit(const PimConfig &config, unsigned index, PseudoChannel &pch,
            StatGroup *stats);

    /** Restart the microkernel: PPC = 0, loop counters cleared. */
    void resetProgram();

    /** True once EXIT has been fetched. */
    bool halted() const { return halted_; }

    /**
     * True if the sequencer hit an illegal instruction (a corrupted CRF
     * slot). The unit halts rather than executing garbage; the fault is
     * sticky until resetProgram().
     */
    bool faulted() const { return faulted_; }

    /** Current PIM program counter. */
    unsigned ppc() const { return ppc_; }

    /** Instructions executed since the last resetProgram(). */
    std::uint64_t executedCount() const { return executed_; }

    /**
     * Ground-truth silent-data-corruption exposures: planted register-
     * file faults whose poisoned value the datapath actually consumed
     * (an overwrite before use masks the plant; an illegal-instruction
     * fault is reported, not silent — neither counts). Cumulative over
     * the unit's lifetime, so campaigns can delta across kernels.
     */
    std::uint64_t sdcExposed() const { return sdcExposed_; }

    /**
     * Execute one trigger (a column command in AB-PIM mode). On a
     * timing-only channel (PseudoChannel::timingOnly) the sequencer
     * still runs (decode, NOP/JUMP/EXIT, executedCount()) and every
     * operand access is counted, but no operand is fetched, no lane
     * computed and no result written.
     *
     * @param type     Rd or Wr
     * @param col      column address of the command (feeds AAM indices and
     *                 bank operand addressing)
     * @param bus_data WR payload (nullptr for RD)
     */
    void trigger(CommandType type, unsigned col, const Burst *bus_data);

    PimRegisterFile &regs() { return regs_; }
    const PimRegisterFile &regs() const { return regs_; }

    unsigned evenBank() const { return evenBank_; }
    unsigned oddBank() const { return oddBank_; }

    const PimConfig &config() const { return config_; }

  private:
    /** Resolve zero-cycle control flow (JUMP/EXIT) at the current PPC. */
    void resolveControl();

    /** Fetch one 16-lane operand. */
    LaneVector fetchOperand(OperandSpace space, unsigned index,
                            CommandType type, unsigned col,
                            const Burst *bus_data, bool is_src1);

    /** True iff a bank-space operand comes off the WR data bus. */
    bool operandFromBus(CommandType type, bool is_src1) const;

    /** Count (and check) a bank-space operand access; returns the bank. */
    unsigned noteBankAccess(OperandSpace space,
                            const std::string &stat) const;

    /** Timing-only execute stage: count the accesses of `inst`. */
    void noteAccesses(const PimInst &inst, CommandType type);

    /** Write one 16-lane result. */
    void writeResult(OperandSpace space, unsigned index, unsigned col,
                     const LaneVector &value);

    /** Effective register index under AAM. */
    unsigned effectiveIndex(const PimInst &inst, unsigned encoded,
                            OperandSpace space, unsigned col) const;

    PimConfig config_;
    unsigned evenBank_;
    unsigned oddBank_;
    PseudoChannel &pch_;
    PimRegisterFile regs_;
    StatGroup *stats_;

    /** Raise an illegal-instruction fault and halt the unit. */
    void raiseIllegalInst(std::uint32_t word);

    /** Count one consumed register-file plant (see sdcExposed()). */
    void noteExposure();

    unsigned ppc_ = 0;
    bool halted_ = false;
    bool faulted_ = false;
    unsigned nopConsumed_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t sdcExposed_ = 0;
    std::vector<int> jumpRemaining_;
};

} // namespace pimsim

#endif // PIMSIM_PIM_PIM_UNIT_H
