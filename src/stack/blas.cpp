#include "stack/blas.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"
#include "common/logging.h"
#include "common/trace.h"
#include "energy/probe.h"
#include "pim/pim_channel.h"
#include "reliability/sdc_monitor.h"
#include "stack/reference.h"

namespace pimsim {

namespace {

/** Pack CRF instruction words into 32-byte config bursts (8 words each). */
std::vector<Burst>
packCrf(const std::vector<PimInst> &insts)
{
    std::vector<Burst> bursts(divCeil(insts.size(), 8), Burst{});
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const std::uint32_t word = insts[i].encode();
        Burst &b = bursts[i / 8];
        const std::size_t off = (i % 8) * 4;
        for (unsigned byte = 0; byte < 4; ++byte)
            b[off + byte] =
                static_cast<std::uint8_t>((word >> (8 * byte)) & 0xff);
    }
    return bursts;
}

/** Pack up to 16 scalars into one SRF-file burst. */
Burst
packSrf(const std::vector<Fp16> &values)
{
    Burst b{};
    for (std::size_t i = 0; i < values.size() && 2 * i + 1 < b.size(); ++i) {
        b[2 * i] = static_cast<std::uint8_t>(values[i].bits() & 0xff);
        b[2 * i + 1] = static_cast<std::uint8_t>(values[i].bits() >> 8);
    }
    return b;
}

/** Slice 16 FP16 values (zero-padded) into a burst. */
Burst
sliceBurst(const Fp16Vector &v, std::size_t start)
{
    Burst b{};
    for (std::size_t lane = 0; lane < kSimdLanes; ++lane) {
        const std::size_t idx = start + lane;
        if (idx < v.size()) {
            const Fp16Bits bits = v[idx].bits();
            b[2 * lane] = static_cast<std::uint8_t>(bits & 0xff);
            b[2 * lane + 1] = static_cast<std::uint8_t>(bits >> 8);
        }
    }
    return b;
}

/** Extract 16 FP16 lanes from a burst. */
void
unpackBurst(const Burst &b, std::size_t start, Fp16Vector &out)
{
    for (std::size_t lane = 0; lane < kSimdLanes; ++lane) {
        const std::size_t idx = start + lane;
        if (idx < out.size()) {
            out[idx] = Fp16::fromBits(static_cast<Fp16Bits>(
                b[2 * lane] | (static_cast<unsigned>(b[2 * lane + 1]) << 8)));
        }
    }
}

/** Burst of a single constant byte value in byte 0. */
Burst
flagBurst(std::uint8_t value)
{
    Burst b{};
    b[0] = value;
    return b;
}

} // namespace

bool
PimBlas::anyUnitFaulted() const
{
    for (unsigned ch = 0; ch < system_.numChannels(); ++ch) {
        const PimChannel *pim = system_.controller(ch).pim();
        if (pim && pim->anyUnitFaulted())
            return true;
    }
    return false;
}

void
PimBlas::elementwiseGolden(PimOpcode op, bool relu_move, const Fp16Vector &a,
                           const Fp16Vector *b, Fp16Vector &out) const
{
    if (op == PimOpcode::Add && b) {
        out = refAdd(a, *b);
    } else if (op == PimOpcode::Mul && b) {
        out = refMul(a, *b);
    } else if (op == PimOpcode::Mad) {
        // Recover the scalar groups from the staged SRF payloads.
        PIMSIM_ASSERT(srfM_ && srfA_, "BN fallback without SRF payloads");
        const LaneVector gm = burstToLanes(*srfM_);
        const LaneVector bt = burstToLanes(*srfA_);
        Fp16Vector gamma(8), beta(8);
        for (unsigned i = 0; i < 8; ++i) {
            gamma[i] = gm[i];
            beta[i] = bt[i];
        }
        const unsigned slots =
            system_.numChannels() * system_.config().pim.unitsPerPch;
        out = refBn(a, gamma, beta, slots);
    } else {
        out = relu_move ? refRelu(a) : a;
    }
}

PimBlas::PimBlas(PimSystem &system) : system_(system), driver_(system)
{
    PIMSIM_ASSERT(system.config().withPim(),
                  "PimBlas requires a PIM-HBM system");
    const auto conf =
        PimConfMap::forRows(system.config().geometry.rowsPerBank);
    configRow_ = conf.configRow;
    abmrRow_ = conf.abmrRow;
    sbmrRow_ = conf.sbmrRow;
}

void
PimBlas::setAbft(bool on)
{
    PIMSIM_ASSERT(!on || !system_.timingOnly(),
                  "ABFT verifies data; a timing-only system keeps none");
    abft_ = on;
}

void
PimBlas::setSdcMonitor(SdcMonitor *monitor)
{
    PIMSIM_ASSERT(!monitor || !system_.timingOnly(),
                  "an SdcMonitor attributes verified data; a timing-only "
                  "system keeps none");
    sdcMonitor_ = monitor;
}

void
PimBlas::requireMode(bool data) const
{
    if (data) {
        PIMSIM_ASSERT(!system_.timingOnly(),
                      "PIM BLAS data calls need a functional system; a "
                      "timing-only system takes the shape-only calls");
        return;
    }
    PIMSIM_ASSERT(system_.timingOnly(),
                  "shape-only PIM BLAS calls need a timing-only system");
    PIMSIM_ASSERT(!abft_ && !sdcMonitor_,
                  "ABFT and the SdcMonitor verify data; a timing-only "
                  "system keeps none");
}

void
PimBlas::runKernel(const ChannelProgram &program, BlasTiming &timing)
{
    ActivityProbe probe(system_);
    const PimRunResult run =
        runPimProgramReplicated(system_, program, system_.numChannels());
    const ChannelActivity activity = probe.delta();
    timing.ns += run.ns;
    timing.commands += run.commands;
    timing.fences += run.fences;
    timing.acts += activity.acts;
    timing.pimTriggers += activity.pimTriggers;
    timing.pimBankAccesses += activity.pimBankReads + activity.pimBankWrites;
    timing.pimOps += activity.pimOps;
}

void
PimBlas::appendPrologue(ProgramBuilder &builder,
                        const std::vector<PimInst> &microkernel,
                        const Burst *srf_m, const Burst *srf_a)
{
    PimChannel *pim = system_.controller(0).pim();
    PIMSIM_ASSERT(pim != nullptr, "no PIM logic attached");
    PIMSIM_ASSERT(microkernel.size() <= pim->config().crfEntries,
                  "microkernel exceeds CRF: ", microkernel.size());

    // Quiesce: any rows left open by preceding (host) traffic must be
    // closed before the mode transition (Fig. 3's entry condition).
    builder.prechargeAll();
    if (!pim->config().fastModeSwitch) {
        // SB -> AB: ACT + PRE to the ABMR row (Fig. 3).
        builder.activate(abmrRow_);
        builder.precharge();
        builder.fence();
    }

    // Load the microkernel and scalar registers through the config rows
    // (the controller opens the rows on demand).
    auto write_cfg = [&](unsigned flat_col, const Burst &data) {
        const auto [row, col] = pim->configAddr(flat_col);
        builder.write(row, col, data);
    };
    const auto bursts = packCrf(microkernel);
    for (unsigned i = 0; i < bursts.size(); ++i)
        write_cfg(i, bursts[i]);
    if (srf_m)
        write_cfg(pim->srfMCol(), *srf_m);
    if (srf_a)
        write_cfg(pim->srfACol(), *srf_a);

    // Arm AB-PIM and close the config row before data streaming.
    write_cfg(pim->opModeCol(), flagBurst(1));
    builder.prechargeAll();
    builder.fence();
}

void
PimBlas::appendEpilogue(ProgramBuilder &builder)
{
    PimChannel *pim = system_.controller(0).pim();
    builder.prechargeAll();
    builder.fence();
    const auto [op_row, op_col] = pim->configAddr(pim->opModeCol());
    builder.write(op_row, op_col, flagBurst(0));
    builder.prechargeAll();
    builder.fence();
    if (!pim->config().fastModeSwitch) {
        // AB -> SB: ACT + PRE to the SBMR row.
        builder.activate(sbmrRow_);
        builder.precharge();
        builder.fence();
    }
}

BlasTiming
PimBlas::elementwise(PimOpcode op, bool relu_move, std::uint64_t elements,
                     const Fp16Vector *a, const Fp16Vector *b,
                     Fp16Vector *out)
{
    const bool data = a != nullptr;
    requireMode(data);
    if (data) {
        PIMSIM_ASSERT(b == nullptr || b->size() == a->size(),
                      "operand length mismatch");
        out->assign(elements, Fp16());
    }
    if (elements == 0)
        return {};

    // BLAS calls are self-contained: operands are staged fresh each call,
    // so the row allocator restarts and rows are reused across calls.
    driver_.reset();

    const unsigned channels = system_.numChannels();
    const unsigned units = system_.config().pim.unitsPerPch;
    const unsigned window = system_.config().pim.aamWindow();
    const unsigned cols_per_group = 8;
    const unsigned groups_per_row = 2; // input cols 0..15, outputs 16..31
    // The output columns sit 16 above the inputs; AAM indices only line
    // up when 16 is a multiple of the GRF depth.
    PIMSIM_ASSERT(16 % system_.config().pim.grfPerHalf == 0,
                  "element-wise layout requires a GRF depth of 8 or 16");

    // Chunk q (16 elements) -> (row, colgroup*8+col, unit, channel) with
    // channel fastest so short vectors still use every channel.
    const std::uint64_t chunks = divCeil(elements, kSimdLanes);
    const std::uint64_t chunks_per_group =
        std::uint64_t{channels} * units * cols_per_group;
    const std::uint64_t groups = divCeil(chunks, chunks_per_group);
    const unsigned rows =
        static_cast<unsigned>(divCeil(groups, groups_per_row));

    BlasTiming timing;
    PimRowBlock block;
    if (driver_.allocRows(rows, block) != PimStatus::Ok) {
        PIMSIM_WARN("element-wise kernel cannot allocate ", rows,
                    " PIM rows (free ", driver_.freeRows(),
                    "); computing on the host");
        if (data)
            elementwiseGolden(op, relu_move, *a, b, *out);
        timing.hostFallback = true;
        return timing;
    }

    auto place = [&](std::uint64_t q) {
        struct Loc
        {
            unsigned ch, unit, row, col;
        };
        Loc loc;
        loc.ch = static_cast<unsigned>(q % channels);
        std::uint64_t rest = q / channels;
        loc.unit = static_cast<unsigned>(rest % units);
        rest /= units;
        const unsigned group = static_cast<unsigned>(rest / cols_per_group);
        loc.col = static_cast<unsigned>((group % groups_per_row) * 8 +
                                        rest % cols_per_group);
        loc.row = block.firstRow + group / groups_per_row;
        return loc;
    };

    // Microkernel. AAM indices walk the GRF with the column address.
    const unsigned total_groups =
        static_cast<unsigned>(groups_per_row * rows);
    std::vector<PimInst> kernel;
    const bool two_ops = op == PimOpcode::Add || op == PimOpcode::Mul;
    if (two_ops && system_.config().pim.dse.twoBankAccess) {
        // 2BA variant: one trigger reads both banks (Fig. 14).
        kernel = {
            PimInst::add(OperandSpace::GrfA, 0, OperandSpace::EvenBank, 0,
                         OperandSpace::OddBank, 0, /*aam=*/true),
            PimInst::jump(1, 8),
            PimInst::mov(OperandSpace::EvenBank, 0, OperandSpace::GrfA, 0,
                         false, /*aam=*/true),
            PimInst::jump(1, 8),
            PimInst::jump(4, total_groups),
            PimInst::exit(),
        };
        if (op == PimOpcode::Mul)
            kernel[0].opcode = PimOpcode::Mul;
    } else if (two_ops) {
        PimInst alu =
            op == PimOpcode::Add
                ? PimInst::add(OperandSpace::GrfA, 0, OperandSpace::GrfA, 0,
                               OperandSpace::OddBank, 0, true)
                : PimInst::mul(OperandSpace::GrfA, 0, OperandSpace::GrfA, 0,
                               OperandSpace::OddBank, 0, true);
        kernel = {
            PimInst::fill(OperandSpace::GrfA, 0, OperandSpace::EvenBank, 0,
                          true),
            PimInst::jump(1, 8),
            alu,
            PimInst::jump(1, 8),
            PimInst::mov(OperandSpace::EvenBank, 0, OperandSpace::GrfA, 0,
                         false, true),
            PimInst::jump(1, 8),
            PimInst::jump(6, total_groups),
            PimInst::exit(),
        };
    } else if (op == PimOpcode::Mad) {
        // Batch-norm: MAD streams the input once (Fig. 14's BN kernel).
        kernel = {
            PimInst::mad(OperandSpace::GrfA, 0, OperandSpace::EvenBank, 0,
                         OperandSpace::SrfM, 0, true),
            PimInst::jump(1, 8),
            PimInst::mov(OperandSpace::EvenBank, 0, OperandSpace::GrfA, 0,
                         false, true),
            PimInst::jump(1, 8),
            PimInst::jump(4, total_groups),
            PimInst::exit(),
        };
    } else {
        // ReLU data movement.
        kernel = {
            PimInst::fill(OperandSpace::GrfA, 0, OperandSpace::EvenBank, 0,
                          true),
            PimInst::jump(1, 8),
            PimInst::mov(OperandSpace::EvenBank, 0, OperandSpace::GrfA, 0,
                         relu_move, true),
            PimInst::jump(1, 8),
            PimInst::jump(4, total_groups),
            PimInst::exit(),
        };
    }

    // Per-channel command stream (identical structure on every channel).
    ChannelProgram prog;
    ProgramBuilder builder(prog);
    appendPrologue(builder, kernel, srfM_ ? &*srfM_ : nullptr,
                   srfA_ ? &*srfA_ : nullptr);

    unsigned since_fence = 0;
    auto emit = [&](bool is_write, unsigned row, unsigned col) {
        if (is_write)
            builder.write(row, col, Burst{});
        else
            builder.read(row, col);
        if (++since_fence == window) {
            if (useFences_)
                builder.fence();
            since_fence = 0;
        }
    };

    const bool two_bank = two_ops && system_.config().pim.dse.twoBankAccess;
    for (unsigned g = 0; g < total_groups; ++g) {
        const unsigned row = block.firstRow + g / groups_per_row;
        const unsigned base = (g % groups_per_row) * 8;
        if (two_ops && !two_bank) {
            for (unsigned j = 0; j < 8; ++j)
                emit(false, row, base + j); // FILL from even bank
            for (unsigned j = 0; j < 8; ++j)
                emit(false, row, base + j); // ALU with odd bank
        } else {
            for (unsigned j = 0; j < 8; ++j)
                emit(false, row, base + j); // single-input ALU / 2BA
        }
        for (unsigned j = 0; j < 8; ++j)
            emit(true, row, 16 + base + j); // MOV result to even bank
    }
    if (since_fence)
        builder.fence();
    appendEpilogue(builder);

    if (!data) {
        // Timing-only: nothing can fault or corrupt (no fault injector
        // attaches to such a system), so one run is the whole call.
        runKernel(prog, timing);
        return timing;
    }

    // Execute, retry on reported errors, fall back to the host when the
    // retry budget is spent (the Section VIII recovery policy).
    const std::uint64_t corr0 = system_.errorLog().corrected();
    const std::uint64_t uc_start = system_.errorLog().uncorrectable();
    for (unsigned attempt = 0; attempt <= maxRetries_; ++attempt) {
        const std::uint64_t uc0 = system_.errorLog().uncorrectable();

        // (Re)stage the operands. A retry rewrites them, which repairs
        // any transient corruption the region accumulated; stuck-at
        // defects survive the rewrite and keep the attempt failing.
        for (std::uint64_t q = 0; q < chunks; ++q) {
            const auto loc = place(q);
            driver_.preload(loc.ch, 2 * loc.unit, loc.row, loc.col,
                            sliceBurst(*a, q * kSimdLanes));
            if (b) {
                driver_.preload(loc.ch, 2 * loc.unit + 1, loc.row, loc.col,
                                sliceBurst(*b, q * kSimdLanes));
            }
        }

        runKernel(prog, timing);

        // Functional readback (the result stays resident for the next
        // layer; reading it back is verification, not timed kernel
        // work). The read passes through ECC, so result corruption that
        // happened after the kernel is detected here and lands in the
        // error log like any other demand access.
        for (std::uint64_t q = 0; q < chunks; ++q) {
            const auto loc = place(q);
            const Burst result =
                driver_.peek(loc.ch, 2 * loc.unit, loc.row, 16 + loc.col);
            unpackBurst(result, q * kSimdLanes, *out);
        }

        const bool faulted = anyUnitFaulted();
        const bool new_uc = system_.errorLog().uncorrectable() > uc0;
        if (!faulted && !new_uc) {
            timing.eccCorrected = system_.errorLog().corrected() - corr0;
            timing.eccUncorrectable =
                system_.errorLog().uncorrectable() - uc_start;
            return timing;
        }
        if (attempt < maxRetries_) {
            ++timing.retries;
            PIMSIM_WARN("element-wise PIM kernel reported ",
                        faulted ? "a faulted unit"
                                : "uncorrectable ECC errors",
                        "; retry ", timing.retries, "/", maxRetries_);
        }
    }

    PIMSIM_WARN("element-wise PIM kernel still failing after ",
                maxRetries_, " retries; falling back to host execution");
    elementwiseGolden(op, relu_move, *a, b, *out);
    timing.hostFallback = true;
    timing.eccCorrected = system_.errorLog().corrected() - corr0;
    timing.eccUncorrectable =
        system_.errorLog().uncorrectable() - uc_start;
    return timing;
}

void
PimBlas::traceKernel(const std::string &name, double start_ns)
{
    if (!trace_)
        return;
    trace_->setProcessName(kTracePidRuntime, "runtime");
    trace_->setThreadName(kTracePidRuntime, 1, "pim-kernels");
    trace_->span(kTracePidRuntime, 1, name, "blas", start_ns,
                 system_.nowNs() - start_ns);
}

BlasTiming
PimBlas::add(const Fp16Vector &a, const Fp16Vector &b, Fp16Vector &out)
{
    srfM_.reset();
    srfA_.reset();
    const double start = system_.nowNs();
    const BlasTiming t =
        elementwise(PimOpcode::Add, false, a.size(), &a, &b, &out);
    traceKernel("blas.add n" + std::to_string(a.size()), start);
    return t;
}

BlasTiming
PimBlas::mul(const Fp16Vector &a, const Fp16Vector &b, Fp16Vector &out)
{
    srfM_.reset();
    srfA_.reset();
    const double start = system_.nowNs();
    const BlasTiming t =
        elementwise(PimOpcode::Mul, false, a.size(), &a, &b, &out);
    traceKernel("blas.mul n" + std::to_string(a.size()), start);
    return t;
}

BlasTiming
PimBlas::relu(const Fp16Vector &a, Fp16Vector &out)
{
    srfM_.reset();
    srfA_.reset();
    const double start = system_.nowNs();
    const BlasTiming t =
        elementwise(PimOpcode::Mov, true, a.size(), &a, nullptr, &out);
    traceKernel("blas.relu n" + std::to_string(a.size()), start);
    return t;
}

BlasTiming
PimBlas::bn(const Fp16Vector &a, const Fp16Vector &gamma,
            const Fp16Vector &beta, Fp16Vector &out)
{
    PIMSIM_ASSERT(gamma.size() == 8 && beta.size() == 8,
                  "bn expects 8 scalar groups (replicate smaller sets)");
    srfM_ = packSrf(gamma);
    srfA_ = packSrf(beta);
    const double start = system_.nowNs();
    const BlasTiming t =
        elementwise(PimOpcode::Mad, false, a.size(), &a, nullptr, &out);
    traceKernel("blas.bn n" + std::to_string(a.size()), start);
    return t;
}

BlasTiming
PimBlas::addShape(std::uint64_t elements)
{
    srfM_.reset();
    srfA_.reset();
    const double start = system_.nowNs();
    const BlasTiming t =
        elementwise(PimOpcode::Add, false, elements, nullptr, nullptr,
                    nullptr);
    traceKernel("blas.add n" + std::to_string(elements), start);
    return t;
}

BlasTiming
PimBlas::bnShape(std::uint64_t elements)
{
    // The SRF scalars are written in the prologue whatever their values.
    srfM_ = Burst{};
    srfA_ = Burst{};
    const double start = system_.nowNs();
    const BlasTiming t =
        elementwise(PimOpcode::Mad, false, elements, nullptr, nullptr,
                    nullptr);
    traceKernel("blas.bn n" + std::to_string(elements), start);
    return t;
}

BlasTiming
PimBlas::gemv(const Fp16Vector &w, unsigned m, unsigned n,
              const Fp16Vector &x, Fp16Vector &y)
{
    PIMSIM_ASSERT(w.size() == std::size_t{m} * n, "W shape mismatch");
    PIMSIM_ASSERT(x.size() == n, "x length mismatch");
    y.assign(m, Fp16());
    return gemvKernel(m, n, &w, &x, &y);
}

BlasTiming
PimBlas::gemvShape(unsigned m, unsigned n)
{
    return gemvKernel(m, n, nullptr, nullptr, nullptr);
}

BlasTiming
PimBlas::gemvKernel(unsigned m, unsigned n, const Fp16Vector *w,
                    const Fp16Vector *x, Fp16Vector *y)
{
    const bool data = w != nullptr;
    requireMode(data);
    if (m == 0 || n == 0)
        return {};
    const double start = system_.nowNs();
    const std::string span_name =
        "blas.gemv m" + std::to_string(m) + " n" + std::to_string(n);

    driver_.reset();

    const unsigned channels = system_.numChannels();
    const unsigned units = system_.config().pim.unitsPerPch;
    const unsigned window = system_.config().pim.aamWindow();
    const unsigned slots = channels * units; // unit-pairs system-wide
    const bool srw = system_.config().pim.dse.simultaneousRdWr;
    PIMSIM_ASSERT(system_.config().pim.grfPerHalf >= 8,
                  "the GEMV microkernel needs >= 8 GRF registers per half");

    // Padded shapes: blocks of 128 inputs, passes of 2 rows per slot.
    const unsigned blocks = static_cast<unsigned>(divCeil(n, 128));
    const unsigned passes =
        static_cast<unsigned>(divCeil(m, std::uint64_t{2} * slots));

    // W rows per pass: each block holds 8 bursts per bank at one
    // 8-column window; 4 blocks fit a 32-column row.
    const unsigned w_rows_per_pass = divCeil(blocks, 4);
    const unsigned out_rows = divCeil(passes, 32u);

    BlasTiming timing;
    PimRowBlock wBlock;
    PimRowBlock outBlock;
    if (driver_.allocRows(passes * w_rows_per_pass, wBlock) !=
            PimStatus::Ok ||
        driver_.allocRows(out_rows, outBlock) != PimStatus::Ok) {
        PIMSIM_WARN("GEMV cannot allocate ",
                    passes * w_rows_per_pass + out_rows, " PIM rows (free ",
                    driver_.freeRows(), "); computing on the host");
        if (data)
            *y = refGemv(*w, m, n, *x);
        timing.hostFallback = true;
        traceKernel(span_name, start);
        return timing;
    }

    // ---- Functional preload of W ----
    // Global output row m' = 2 * (p * slots + slot) + k, slot = ch*U + u,
    // k = 0 (even bank) / 1 (odd bank). Block nb occupies columns
    // (nb % 4) * 8 .. +7 of W row (wBase + p*w_rows_per_pass + nb/4).
    auto preloadW = [&]() {
        for (unsigned p = 0; p < passes; ++p) {
            for (unsigned ch = 0; ch < channels; ++ch) {
                for (unsigned u = 0; u < units; ++u) {
                    const unsigned slot = ch * units + u;
                    for (unsigned k = 0; k < 2; ++k) {
                        const std::uint64_t mm =
                            2ull * (std::uint64_t{p} * slots + slot) + k;
                        if (mm >= m)
                            continue;
                        for (unsigned nb = 0; nb < blocks; ++nb) {
                            const unsigned row = wBlock.firstRow +
                                                 p * w_rows_per_pass +
                                                 nb / 4;
                            for (unsigned j = 0; j < 8; ++j) {
                                const std::uint64_t col_start =
                                    std::uint64_t{nb} * 128 + j * 16;
                                Burst burst{};
                                for (unsigned lane = 0; lane < kSimdLanes;
                                     ++lane) {
                                    const std::uint64_t idx =
                                        col_start + lane;
                                    if (idx < n) {
                                        const Fp16Bits bits =
                                            (*w)[mm * n + idx].bits();
                                        burst[2 * lane] = static_cast<
                                            std::uint8_t>(bits & 0xff);
                                        burst[2 * lane + 1] =
                                            static_cast<std::uint8_t>(
                                                bits >> 8);
                                    }
                                }
                                driver_.preload(ch, 2 * u + k, row,
                                                (nb % 4) * 8 + j, burst);
                            }
                        }
                    }
                }
            }
        }
    };

    // ---- Microkernel ----
    std::vector<PimInst> kernel;
    if (srw) {
        // SRW: each WR delivers the x chunk on the bus while reading the
        // W burst from the bank in the same trigger (Fig. 14).
        for (unsigned k = 0; k < 2; ++k) {
            kernel.push_back(PimInst::mac(
                OperandSpace::GrfB, k, OperandSpace::EvenBank, 0,
                k == 0 ? OperandSpace::EvenBank : OperandSpace::OddBank, 0));
            kernel.push_back(PimInst::jump(1, 8));
        }
        kernel.push_back(PimInst::jump(4, blocks));
    } else {
        kernel.push_back(PimInst::fill(OperandSpace::GrfA, 0,
                                       OperandSpace::EvenBank, 0,
                                       /*aam=*/true));
        kernel.push_back(PimInst::jump(1, 8));
        for (unsigned k = 0; k < 2; ++k) {
            for (unsigned j = 0; j < 8; ++j) {
                kernel.push_back(PimInst::mac(
                    OperandSpace::GrfB, k,
                    k == 0 ? OperandSpace::EvenBank : OperandSpace::OddBank,
                    0, OperandSpace::GrfA, j));
            }
        }
        kernel.push_back(PimInst::jump(18, blocks));
    }
    // Store the two accumulators and clear them for the next pass.
    kernel.push_back(PimInst::mov(OperandSpace::EvenBank, 0,
                                  OperandSpace::GrfB, 0));
    kernel.push_back(PimInst::mov(OperandSpace::GrfB, 0, OperandSpace::SrfA,
                                  0));
    kernel.push_back(PimInst::mov(OperandSpace::OddBank, 0,
                                  OperandSpace::GrfB, 1));
    kernel.push_back(PimInst::mov(OperandSpace::GrfB, 1, OperandSpace::SrfA,
                                  0));
    const unsigned loop_back = static_cast<unsigned>(kernel.size());
    kernel.push_back(PimInst::jump(loop_back, passes));
    kernel.push_back(PimInst::exit());

    // SRF_A[0] = 0 clears accumulators between passes.
    const Burst zero_srf{};
    // The x chunk a WR trigger carries (zero on a shape-only call: only
    // config-row data steers the device).
    auto x_burst = [&](std::uint64_t start) {
        return data ? sliceBurst(*x, start) : Burst{};
    };

    // ---- Command stream (identical on every channel) ----
    ChannelProgram prog;
    ProgramBuilder builder(prog);
    appendPrologue(builder, kernel, nullptr, &zero_srf);

    unsigned since_fence = 0;
    auto fence_tick = [&]() {
        if (++since_fence == window) {
            if (useFences_)
                builder.fence();
            since_fence = 0;
        }
    };

    for (unsigned p = 0; p < passes; ++p) {
        for (unsigned nb = 0; nb < blocks; ++nb) {
            const unsigned row = wBlock.firstRow + p * w_rows_per_pass +
                                 nb / 4;
            const unsigned base = (nb % 4) * 8;
            if (srw) {
                for (unsigned k = 0; k < 2; ++k) {
                    for (unsigned j = 0; j < 8; ++j) {
                        builder.write(
                            row, base + j,
                            x_burst(std::uint64_t{nb} * 128 + j * 16));
                        fence_tick();
                    }
                }
            } else {
                // x loads use columns 0..7 of the open row so the AAM
                // index (col % grfPerHalf) equals j for any GRF depth.
                for (unsigned j = 0; j < 8; ++j) {
                    builder.write(
                        row, j, x_burst(std::uint64_t{nb} * 128 + j * 16));
                    fence_tick();
                }
                for (unsigned k = 0; k < 2; ++k) {
                    for (unsigned j = 0; j < 8; ++j) {
                        builder.read(row, base + j);
                        fence_tick();
                    }
                }
            }
        }
        // Store + clear accumulators at the pass's output burst.
        const unsigned out_row = outBlock.firstRow + p / 32;
        const unsigned out_col = p % 32;
        builder.write(out_row, out_col, Burst{}); // MOV EVEN <- GRF_B[0]
        fence_tick();
        builder.read(out_row, out_col); // MOV GRF_B[0] <- SRF_A[0]
        fence_tick();
        builder.write(out_row, out_col, Burst{}); // MOV ODD <- GRF_B[1]
        fence_tick();
        builder.read(out_row, out_col); // MOV GRF_B[1] <- SRF_A[0]
        fence_tick();
    }
    if (since_fence)
        builder.fence();
    appendEpilogue(builder);

    const double partial_bytes = static_cast<double>(m) * kBurstBytes;
    const double stream_bw =
        system_.config().offChipBandwidthGBs() * 0.8; // GB/s ~= B/ns

    if (!data) {
        // Timing-only: one run, plus the analytic readback time the
        // data call charges for streaming the partials back.
        runKernel(prog, timing);
        timing.readbackNs += partial_bytes / stream_bw;
        traceKernel(span_name, start);
        return timing;
    }

    const std::uint64_t corr0 = system_.errorLog().corrected();
    const std::uint64_t uc_start = system_.errorLog().uncorrectable();
    for (unsigned attempt = 0; attempt <= maxRetries_; ++attempt) {
        const std::uint64_t uc0 = system_.errorLog().uncorrectable();
        preloadW();

        runKernel(prog, timing);

        // ---- Host readback and lane reduction ----
        // Each output burst holds 16 FP16 partial sums; the host streams
        // the partial buffers back (SB mode) and reduces. Timed
        // analytically as a full-bandwidth stream plus negligible
        // compute. The read passes through ECC like any demand access.
        for (std::uint64_t mm = 0; mm < m; ++mm) {
            const std::uint64_t pass_slot = mm / 2;
            const unsigned p = static_cast<unsigned>(pass_slot / slots);
            const unsigned slot = static_cast<unsigned>(pass_slot % slots);
            const unsigned ch = slot / units;
            const unsigned u = slot % units;
            const unsigned k = static_cast<unsigned>(mm % 2);
            const Burst partials = driver_.peek(
                ch, 2 * u + k, outBlock.firstRow + p / 32, p % 32);
            const LaneVector lanes = burstToLanes(partials);
            double sum = 0.0;
            for (const auto &lane : lanes)
                sum += static_cast<double>(lane.toFloat());
            (*y)[mm] = Fp16(static_cast<float>(sum));
        }
        timing.readbackNs += partial_bytes / stream_bw;

        const bool faulted = anyUnitFaulted();
        const bool new_uc = system_.errorLog().uncorrectable() > uc0;
        if (!faulted && !new_uc) {
            // Reported-error-free run: the only remaining hazard is a
            // silent corruption, which only the checksum can see.
            if (abft_)
                abftVerifyGemv(*w, m, n, *x, *y, blocks, timing);
            timing.eccCorrected = system_.errorLog().corrected() - corr0;
            timing.eccUncorrectable =
                system_.errorLog().uncorrectable() - uc_start;
            traceKernel(span_name, start);
            return timing;
        }
        if (attempt < maxRetries_) {
            ++timing.retries;
            PIMSIM_WARN("GEMV PIM kernel reported ",
                        faulted ? "a faulted unit"
                                : "uncorrectable ECC errors",
                        "; retry ", timing.retries, "/", maxRetries_);
        }
    }

    PIMSIM_WARN("GEMV PIM kernel still failing after ", maxRetries_,
                " retries; falling back to host execution");
    *y = refGemv(*w, m, n, *x);
    timing.hostFallback = true;
    timing.eccCorrected = system_.errorLog().corrected() - corr0;
    timing.eccUncorrectable = system_.errorLog().uncorrectable() - uc_start;
    traceKernel(span_name, start);
    return timing;
}

void
PimBlas::abftVerifyGemv(const Fp16Vector &w, unsigned m, unsigned n,
                        const Fp16Vector &x, Fp16Vector &y,
                        unsigned blocks, BlasTiming &timing)
{
    const unsigned channels = system_.numChannels();
    const unsigned units = system_.config().pim.unitsPerPch;
    const unsigned slots = channels * units;
    const unsigned passes =
        static_cast<unsigned>(divCeil(m, std::uint64_t{2} * slots));

    // ---- Tolerance band, from the fp16 rounding model ----
    // Each lane accumulates 8 MACs per block; every non-fused MAC rounds
    // the product and the add (2 roundings), and the host reduction's
    // final fp16 store adds one more relative + absolute rounding. With
    // eps = 2^-11 (round-to-nearest half-ulp) and delta = 2^-25 (half of
    // the smallest subnormal, covering underflow flushes), first-order
    // accumulation theory bounds a tile's sum deviation by
    //   roundings * (eps * sum|w||x| + 16 * delta * rows).
    // kSafety absorbs the second-order terms and the double reduction.
    const double eps = 0x1p-11;
    const double delta = 0x1p-25;
    const double roundings = 16.0 * blocks + 2.0;
    const double kSafety = 4.0;

    // Two checksum rows per tile: the plain column sum s1 and the
    // index-weighted sum s2 (weight 1 + local row index). A pair of
    // in-tile errors cancelling in s1 cannot also cancel in s2, so any
    // corruption of at most two rows per tile is always caught.
    std::vector<double> xd(n), xa(n);
    bool x_finite = true;
    for (unsigned j = 0; j < n; ++j) {
        xd[j] = static_cast<double>(x[j].toFloat());
        xa[j] = std::fabs(xd[j]);
        x_finite = x_finite && std::isfinite(xd[j]);
    }

    struct TileVerdict
    {
        unsigned slot;
        bool tripped; ///< checksum band mismatch (vs. saturated partials)
    };
    std::vector<TileVerdict> flagged;
    std::vector<unsigned> cleanSlots;
    std::vector<double> s1(n), s2(n), a1(n), a2(n);

    const double now = system_.nowNs();
    for (unsigned slot = 0; slot < slots; ++slot) {
        std::fill(s1.begin(), s1.end(), 0.0);
        std::fill(s2.begin(), s2.end(), 0.0);
        std::fill(a1.begin(), a1.end(), 0.0);
        std::fill(a2.begin(), a2.end(), 0.0);
        double y1 = 0.0, y2 = 0.0, wsum = 0.0;
        unsigned rows = 0;
        bool finite = x_finite;
        for (unsigned p = 0; p < passes; ++p) {
            for (unsigned k = 0; k < 2; ++k) {
                const std::uint64_t mm =
                    2ull * (std::uint64_t{p} * slots + slot) + k;
                if (mm >= m)
                    continue;
                const double omega = 1.0 + 2.0 * p + k;
                for (unsigned j = 0; j < n; ++j) {
                    const double wv =
                        static_cast<double>(w[mm * n + j].toFloat());
                    const double wa = std::fabs(wv);
                    s1[j] += wv;
                    s2[j] += omega * wv;
                    a1[j] += wa;
                    a2[j] += omega * wa;
                    finite = finite && std::isfinite(wv);
                }
                const double yv = static_cast<double>(y[mm].toFloat());
                y1 += yv;
                y2 += omega * yv;
                finite = finite && std::isfinite(yv);
                wsum += omega;
                ++rows;
            }
        }
        if (rows == 0)
            continue;
        ++timing.abftChecks;
        double cs1 = 0.0, cs2 = 0.0, ca1 = 0.0, ca2 = 0.0;
        for (unsigned j = 0; j < n; ++j) {
            cs1 += s1[j] * xd[j];
            cs2 += s2[j] * xd[j];
            ca1 += a1[j] * xa[j];
            ca2 += a2[j] * xa[j];
        }
        if (!finite || !std::isfinite(cs1) || !std::isfinite(cs2)) {
            // Saturated partials carry no checksum information: a clean
            // overflow and a corruption look identical here, so the tile
            // goes straight to the golden compare.
            ++timing.abftUnverifiable;
            flagged.push_back({slot, false});
            continue;
        }
        const double tol1 =
            kSafety * roundings * (eps * ca1 + 16.0 * delta * rows);
        const double tol2 =
            kSafety * roundings * (eps * ca2 + 16.0 * delta * wsum);
        if (std::fabs(y1 - cs1) > tol1 || std::fabs(y2 - cs2) > tol2) {
            ++timing.abftMismatches;
            if (sdcMonitor_)
                sdcMonitor_->recordDetected(slot / units, slot % units,
                                            now);
            flagged.push_back({slot, true});
        } else {
            cleanSlots.push_back(slot);
        }
    }
    // Verification streams x and y through the host checker once.
    timing.abftNs += (static_cast<double>(m) + n) * 2.0 /
                     (system_.config().offChipBandwidthGBs() * 0.8);

    if (flagged.empty()) {
        if (sdcMonitor_) {
            for (unsigned slot : cleanSlots)
                sdcMonitor_->recordClean(slot / units, slot % units, now);
        }
        return;
    }

    // ---- Golden confirmation ----
    // refGemv reproduces the PIM datapath bit-exactly on a fault-free
    // run, so any bit difference inside a flagged tile is a confirmed
    // silent corruption; bit equality on a tripped band is a false alarm.
    const Fp16Vector golden = refGemv(w, m, n, x);
    bool corrupted_any = false;
    for (const TileVerdict &v : flagged) {
        bool corrupted = false;
        for (unsigned p = 0; p < passes && !corrupted; ++p) {
            for (unsigned k = 0; k < 2; ++k) {
                const std::uint64_t mm =
                    2ull * (std::uint64_t{p} * slots + v.slot) + k;
                if (mm < m && y[mm].bits() != golden[mm].bits()) {
                    corrupted = true;
                    break;
                }
            }
        }
        const unsigned ch = v.slot / units;
        const unsigned u = v.slot % units;
        if (corrupted) {
            ++timing.sdcConfirmed;
            corrupted_any = true;
            if (sdcMonitor_)
                sdcMonitor_->recordConfirmed(ch, u, now);
        } else if (v.tripped) {
            ++timing.sdcFalseAlarms;
            if (sdcMonitor_)
                sdcMonitor_->recordFalseAlarm(ch, u, now);
        } else if (sdcMonitor_) {
            // Saturated but bit-identical to golden: verified clean.
            sdcMonitor_->recordClean(ch, u, now);
        }
    }
    if (sdcMonitor_) {
        for (unsigned slot : cleanSlots)
            sdcMonitor_->recordClean(slot / units, slot % units, now);
    }
    if (corrupted_any) {
        PIMSIM_WARN("GEMV ABFT confirmed ", timing.sdcConfirmed,
                    " corrupted tile(s); returning the host golden result");
        y = golden;
        timing.hostFallback = true;
    }
}

} // namespace pimsim
