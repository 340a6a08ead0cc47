/**
 * @file
 * PIM execution unit and channel tests: mode FSM (Fig. 3), register-
 * mapped config access, instruction triggering, zero-cycle JUMP, AAM
 * reorder tolerance (Fig. 5), and the SIMD datapath.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <gtest/gtest.h>

#include "common/bf16.h"
#include "common/rng.h"
#include "dram/pseudo_channel.h"
#include "pim/pim_channel.h"
#include "pim/pim_unit.h"

namespace pimsim {
namespace {

HbmGeometry
smallGeom()
{
    HbmGeometry g;
    g.rowsPerBank = 256;
    return g;
}

struct PimFixture : public ::testing::Test
{
    PimFixture()
        : pch(smallGeom(), timing), pim(PimConfig{}, pch),
          conf(pim.confMap())
    {
    }

    Cycle
    issue(const Command &cmd)
    {
        now = pch.earliestIssue(cmd, now);
        last = pch.issue(cmd, now);
        return now;
    }

    void
    enterAb()
    {
        issue(Command::act(0, 0, conf.abmrRow));
        issue(Command::pre(0, 0));
        ASSERT_EQ(pim.mode(), PimMode::Ab);
    }

    void
    loadProgram(const std::vector<PimInst> &insts)
    {
        for (unsigned u = 0; u < pim.numUnits(); ++u) {
            for (unsigned i = 0; i < insts.size(); ++i)
                pim.unit(u).regs().setCrf(i, insts[i].encode());
        }
    }

    void
    armPim()
    {
        issue(Command::act(0, 0, conf.configRow));
        Burst on{};
        on[0] = 1;
        issue(Command::wr(0, 0, pim.opModeCol(), on));
        issue(Command::preAll());
        ASSERT_EQ(pim.mode(), PimMode::AbPim);
    }

    void
    disarmPim()
    {
        issue(Command::preAll());
        issue(Command::act(0, 0, conf.configRow));
        issue(Command::wr(0, 0, pim.opModeCol(), Burst{}));
        issue(Command::preAll());
        ASSERT_EQ(pim.mode(), PimMode::Ab);
    }

    LaneVector
    lanesOf(std::initializer_list<float> values)
    {
        LaneVector v;
        std::size_t i = 0;
        for (float f : values)
            v[i++] = Fp16(f);
        while (i < kSimdLanes)
            v[i++] = Fp16();
        return v;
    }

    HbmTiming timing;
    PseudoChannel pch;
    PimChannel pim;
    PimConfMap conf;
    Cycle now = 0;
    IssueResult last;
};

TEST_F(PimFixture, StartsInSbMode)
{
    EXPECT_EQ(pim.mode(), PimMode::Sb);
    EXPECT_FALSE(pch.allBankMode());
}

TEST_F(PimFixture, AbmrSequenceEntersAbMode)
{
    enterAb();
    EXPECT_TRUE(pch.allBankMode());
    EXPECT_EQ(pim.stats().counter("mode.enterAb"), 1u);
}

TEST_F(PimFixture, SbmrSequenceReturnsToSbMode)
{
    enterAb();
    issue(Command::act(0, 0, conf.sbmrRow));
    issue(Command::preAll());
    EXPECT_EQ(pim.mode(), PimMode::Sb);
    EXPECT_FALSE(pch.allBankMode());
}

TEST_F(PimFixture, OrdinaryActDoesNotChangeMode)
{
    issue(Command::act(0, 0, 10));
    issue(Command::pre(0, 0));
    EXPECT_EQ(pim.mode(), PimMode::Sb);
}

TEST_F(PimFixture, OpModeTogglesAbPim)
{
    enterAb();
    armPim();
    EXPECT_EQ(pim.mode(), PimMode::AbPim);
    disarmPim();
    EXPECT_EQ(pim.mode(), PimMode::Ab);
}

TEST_F(PimFixture, CrfWritesBroadcastToAllUnits)
{
    enterAb();
    issue(Command::act(0, 0, conf.configRow));
    // One burst carries CRF[0..7].
    std::vector<PimInst> insts;
    for (unsigned i = 0; i < 8; ++i)
        insts.push_back(PimInst::nop(i + 1));
    Burst burst{};
    for (unsigned i = 0; i < 8; ++i) {
        const std::uint32_t w = insts[i].encode();
        for (unsigned b = 0; b < 4; ++b)
            burst[4 * i + b] =
                static_cast<std::uint8_t>((w >> (8 * b)) & 0xff);
    }
    issue(Command::wr(0, 0, /*col=*/0, burst));
    for (unsigned u = 0; u < pim.numUnits(); ++u)
        for (unsigned i = 0; i < 8; ++i)
            EXPECT_EQ(pim.unit(u).regs().crf(i), insts[i].encode());
}

TEST_F(PimFixture, GrfConfigReadBack)
{
    enterAb();
    issue(Command::act(0, 0, conf.configRow));
    const LaneVector v = lanesOf({1.5f, -2.0f, 3.25f});
    issue(Command::wr(0, 0, pim.grfACol(3), lanesToBurst(v)));
    // Read back through the addressed bank (unit 1 = banks 2,3).
    issue(Command::rd(0, 2, pim.grfACol(3)));
    EXPECT_TRUE(last.intercepted);
    EXPECT_EQ(burstToLanes(last.data)[0].bits(), Fp16(1.5f).bits());
    EXPECT_EQ(burstToLanes(last.data)[1].bits(), Fp16(-2.0f).bits());
}

TEST_F(PimFixture, SrfConfigLoad)
{
    enterAb();
    issue(Command::act(0, 0, conf.configRow));
    Burst srf{};
    const Fp16 val(0.75f);
    srf[0] = static_cast<std::uint8_t>(val.bits() & 0xff);
    srf[1] = static_cast<std::uint8_t>(val.bits() >> 8);
    issue(Command::wr(0, 0, pim.srfMCol(), srf));
    for (unsigned u = 0; u < pim.numUnits(); ++u)
        EXPECT_EQ(pim.unit(u).regs().srf(0, 0).bits(), val.bits());
}

TEST_F(PimFixture, TriggeredMacComputesOnBankData)
{
    // Preload the even bank of every unit with known data at row 7.
    for (unsigned u = 0; u < pim.numUnits(); ++u) {
        LaneVector w;
        for (unsigned lane = 0; lane < kSimdLanes; ++lane)
            w[lane] = Fp16(0.25f * static_cast<float>(lane + u));
        pch.dataStore().write(2 * u, 7, 0, lanesToBurst(w));
    }

    loadProgram({
        PimInst::mac(OperandSpace::GrfB, 0, OperandSpace::EvenBank, 0,
                     OperandSpace::GrfA, 0),
        PimInst::exit(),
    });

    enterAb();
    // x broadcast into GRF_A[0] of every unit.
    issue(Command::act(0, 0, conf.configRow));
    const LaneVector x = broadcast(Fp16(2.0f));
    issue(Command::wr(0, 0, pim.grfACol(0), lanesToBurst(x)));
    Burst on{};
    on[0] = 1;
    issue(Command::wr(0, 0, pim.opModeCol(), on));
    issue(Command::preAll());

    issue(Command::act(0, 0, 7));
    issue(Command::rd(0, 0, 0)); // trigger: MAC
    EXPECT_TRUE(last.intercepted);

    for (unsigned u = 0; u < pim.numUnits(); ++u) {
        const LaneVector &acc = pim.unit(u).regs().grf(1, 0);
        for (unsigned lane = 0; lane < kSimdLanes; ++lane) {
            const Fp16 expect = fp16Mac(
                Fp16(0.25f * static_cast<float>(lane + u)), Fp16(2.0f),
                Fp16());
            EXPECT_EQ(acc[lane].bits(), expect.bits());
        }
        EXPECT_TRUE(pim.unit(u).halted());
    }
}

TEST_F(PimFixture, JumpRepeatsBodyExactly)
{
    loadProgram({
        PimInst::add(OperandSpace::GrfA, 0, OperandSpace::GrfA, 0,
                     OperandSpace::SrfA, 0),
        PimInst::jump(1, 5),
        PimInst::exit(),
    });
    enterAb();
    issue(Command::act(0, 0, conf.configRow));
    Burst srf{};
    const Fp16 one(1.0f);
    srf[0] = static_cast<std::uint8_t>(one.bits() & 0xff);
    srf[1] = static_cast<std::uint8_t>(one.bits() >> 8);
    issue(Command::wr(0, 0, pim.srfACol(), srf));
    Burst on{};
    on[0] = 1;
    issue(Command::wr(0, 0, pim.opModeCol(), on));
    issue(Command::preAll());

    issue(Command::act(0, 0, 3));
    for (unsigned i = 0; i < 5; ++i)
        issue(Command::rd(0, 0, i));

    // GRF_A[0] += 1 executed exactly 5 times.
    for (unsigned u = 0; u < pim.numUnits(); ++u) {
        EXPECT_EQ(pim.unit(u).regs().grf(0, 0)[0].bits(),
                  Fp16(5.0f).bits());
        EXPECT_TRUE(pim.unit(u).halted());
        EXPECT_EQ(pim.unit(u).executedCount(), 5u);
    }
}

TEST_F(PimFixture, NestedJumpLoops)
{
    // Inner x3 / outer x4: the body executes 12 times.
    loadProgram({
        PimInst::add(OperandSpace::GrfA, 0, OperandSpace::GrfA, 0,
                     OperandSpace::SrfA, 0),
        PimInst::jump(1, 3),
        PimInst::jump(2, 4),
        PimInst::exit(),
    });
    enterAb();
    issue(Command::act(0, 0, conf.configRow));
    Burst srf{};
    const Fp16 one(1.0f);
    srf[0] = static_cast<std::uint8_t>(one.bits() & 0xff);
    srf[1] = static_cast<std::uint8_t>(one.bits() >> 8);
    issue(Command::wr(0, 0, pim.srfACol(), srf));
    Burst on{};
    on[0] = 1;
    issue(Command::wr(0, 0, pim.opModeCol(), on));
    issue(Command::preAll());

    issue(Command::act(0, 0, 3));
    for (unsigned i = 0; i < 12; ++i)
        issue(Command::rd(0, 0, i % 8));
    EXPECT_EQ(pim.unit(0).regs().grf(0, 0)[0].bits(), Fp16(12.0f).bits());
    EXPECT_TRUE(pim.unit(0).halted());
}

TEST_F(PimFixture, MultiCycleNopConsumesTriggers)
{
    loadProgram({
        PimInst::nop(3),
        PimInst::add(OperandSpace::GrfA, 0, OperandSpace::GrfA, 0,
                     OperandSpace::SrfA, 0),
        PimInst::exit(),
    });
    enterAb();
    issue(Command::act(0, 0, conf.configRow));
    Burst srf{};
    const Fp16 one(1.0f);
    srf[0] = static_cast<std::uint8_t>(one.bits() & 0xff);
    srf[1] = static_cast<std::uint8_t>(one.bits() >> 8);
    issue(Command::wr(0, 0, pim.srfACol(), srf));
    Burst on{};
    on[0] = 1;
    issue(Command::wr(0, 0, pim.opModeCol(), on));
    issue(Command::preAll());
    issue(Command::act(0, 0, 3));

    for (unsigned i = 0; i < 3; ++i) {
        issue(Command::rd(0, 0, 0));
        EXPECT_EQ(pim.unit(0).regs().grf(0, 0)[0].bits(), Fp16().bits());
    }
    issue(Command::rd(0, 0, 0)); // 4th trigger executes the ADD
    EXPECT_EQ(pim.unit(0).regs().grf(0, 0)[0].bits(), Fp16(1.0f).bits());
}

TEST_F(PimFixture, WriteTriggerDeliversBusData)
{
    loadProgram({
        PimInst::fill(OperandSpace::GrfA, 2, OperandSpace::EvenBank, 0),
        PimInst::exit(),
    });
    enterAb();
    armPim();
    issue(Command::act(0, 0, 3));
    const LaneVector x = lanesOf({9.0f, -4.5f});
    issue(Command::wr(0, 0, 5, lanesToBurst(x)));
    for (unsigned u = 0; u < pim.numUnits(); ++u) {
        EXPECT_EQ(pim.unit(u).regs().grf(0, 2)[0].bits(), Fp16(9.0f).bits());
        EXPECT_EQ(pim.unit(u).regs().grf(0, 2)[1].bits(),
                  Fp16(-4.5f).bits());
    }
    // The bank itself was not written (AB-PIM consumes the command).
    EXPECT_EQ(pch.dataStore().read(0, 3, 5), Burst{});
}

TEST_F(PimFixture, MovReluFlushesNegativeLanes)
{
    loadProgram({
        PimInst::mov(OperandSpace::GrfB, 1, OperandSpace::GrfA, 0,
                     /*relu=*/true),
        PimInst::exit(),
    });
    enterAb();
    issue(Command::act(0, 0, conf.configRow));
    issue(Command::wr(0, 0, pim.grfACol(0),
                      lanesToBurst(lanesOf({1.0f, -1.0f, 0.5f, -0.5f}))));
    Burst on{};
    on[0] = 1;
    issue(Command::wr(0, 0, pim.opModeCol(), on));
    issue(Command::preAll());
    issue(Command::act(0, 0, 3));
    issue(Command::rd(0, 0, 0));

    const LaneVector &r = pim.unit(0).regs().grf(1, 1);
    EXPECT_EQ(r[0].bits(), Fp16(1.0f).bits());
    EXPECT_EQ(r[1].bits(), Fp16(0.0f).bits());
    EXPECT_EQ(r[2].bits(), Fp16(0.5f).bits());
    EXPECT_EQ(r[3].bits(), Fp16(0.0f).bits());
}

TEST_F(PimFixture, BankDestinationWritesThroughWriteDriver)
{
    loadProgram({
        PimInst::mov(OperandSpace::OddBank, 0, OperandSpace::GrfA, 1),
        PimInst::exit(),
    });
    enterAb();
    issue(Command::act(0, 0, conf.configRow));
    const LaneVector v = lanesOf({7.0f});
    issue(Command::wr(0, 0, pim.grfACol(1), lanesToBurst(v)));
    Burst on{};
    on[0] = 1;
    issue(Command::wr(0, 0, pim.opModeCol(), on));
    issue(Command::preAll());
    issue(Command::act(0, 0, 9));
    issue(Command::wr(0, 0, 6, Burst{})); // WR trigger, dst = odd bank
    for (unsigned u = 0; u < pim.numUnits(); ++u) {
        EXPECT_EQ(burstToLanes(
                      pch.dataStore().read(2 * u + 1, 9, 6))[0].bits(),
                  Fp16(7.0f).bits());
    }
}

TEST_F(PimFixture, MadUsesSrfPair)
{
    // GRF_A[aam] = EVEN_BANK * SRF_M[i] + SRF_A[i].
    for (unsigned u = 0; u < pim.numUnits(); ++u)
        pch.dataStore().write(2 * u, 4, 3,
                              lanesToBurst(broadcast(Fp16(3.0f))));
    loadProgram({
        PimInst::mad(OperandSpace::GrfA, 0, OperandSpace::EvenBank, 0,
                     OperandSpace::SrfM, 0, /*aam=*/true),
        PimInst::exit(),
    });
    enterAb();
    issue(Command::act(0, 0, conf.configRow));
    Burst srfm{};
    Burst srfa{};
    const Fp16 g(2.0f);
    const Fp16 b(0.5f);
    // Scalar index 3 (the AAM index of column 3).
    srfm[6] = static_cast<std::uint8_t>(g.bits() & 0xff);
    srfm[7] = static_cast<std::uint8_t>(g.bits() >> 8);
    srfa[6] = static_cast<std::uint8_t>(b.bits() & 0xff);
    srfa[7] = static_cast<std::uint8_t>(b.bits() >> 8);
    issue(Command::wr(0, 0, pim.srfMCol(), srfm));
    issue(Command::wr(0, 0, pim.srfACol(), srfa));
    Burst on{};
    on[0] = 1;
    issue(Command::wr(0, 0, pim.opModeCol(), on));
    issue(Command::preAll());
    issue(Command::act(0, 0, 4));
    issue(Command::rd(0, 0, 3)); // AAM index 3

    const Fp16 expect = fp16Mad(Fp16(3.0f), g, b);
    EXPECT_EQ(pim.unit(0).regs().grf(0, 3)[0].bits(), expect.bits());
}

TEST_F(PimFixture, AamToleratesReorderWithinWindow)
{
    // Fig. 5: with AAM, any permutation of the 8 column commands of one
    // GRF window produces the same architectural state.
    Rng rng(211);
    for (int trial = 0; trial < 8; ++trial) {
        PseudoChannel fresh(smallGeom(), timing);
        PimChannel fresh_pim(PimConfig{}, fresh);
        Cycle t = 0;
        auto issue_on = [&](const Command &cmd) {
            t = fresh.earliestIssue(cmd, t);
            fresh.issue(cmd, t);
        };

        for (unsigned u = 0; u < fresh_pim.numUnits(); ++u)
            for (unsigned c = 0; c < 8; ++c)
                fresh.dataStore().write(
                    2 * u, 2, c,
                    lanesToBurst(broadcast(Fp16(0.5f * (c + 1)))));

        for (unsigned u = 0; u < fresh_pim.numUnits(); ++u) {
            fresh_pim.unit(u).regs().setCrf(
                0, PimInst::fill(OperandSpace::GrfA, 0,
                                 OperandSpace::EvenBank, 0, true)
                       .encode());
            fresh_pim.unit(u).regs().setCrf(1,
                                            PimInst::jump(1, 8).encode());
            fresh_pim.unit(u).regs().setCrf(2, PimInst::exit().encode());
        }

        issue_on(Command::act(0, 0, fresh_pim.confMap().abmrRow));
        issue_on(Command::pre(0, 0));
        issue_on(Command::act(0, 0, fresh_pim.confMap().configRow));
        Burst on{};
        on[0] = 1;
        issue_on(Command::wr(0, 0, fresh_pim.opModeCol(), on));
        issue_on(Command::preAll());
        issue_on(Command::act(0, 0, 2));

        std::vector<unsigned> cols = {0, 1, 2, 3, 4, 5, 6, 7};
        for (std::size_t i = cols.size(); i > 1; --i)
            std::swap(cols[i - 1], cols[rng.nextBelow(i)]);
        for (unsigned c : cols)
            issue_on(Command::rd(0, 0, c));

        // Regardless of order, GRF_A[i] holds the column-i data.
        for (unsigned i = 0; i < 8; ++i) {
            EXPECT_EQ(fresh_pim.unit(0).regs().grf(0, i)[0].bits(),
                      Fp16(0.5f * (i + 1)).bits())
                << "trial " << trial << " reg " << i;
        }
    }
}

TEST_F(PimFixture, TriggersAfterExitAreCountedNotExecuted)
{
    loadProgram({PimInst::exit()});
    enterAb();
    armPim();
    issue(Command::act(0, 0, 3));
    issue(Command::rd(0, 0, 0));
    EXPECT_GE(pim.stats().counter("pim.triggerAfterExit"), 1u);
    EXPECT_EQ(pim.unit(0).executedCount(), 0u);
}

// ---------- SIMD row operations vs the per-lane oracle ----------

/**
 * FP16 patterns the conversion suite pins: signed zeros, subnormals and
 * the normal boundary, values whose sums and products land in the
 * 65504..65520 overflow band, max finite, +-inf and NaNs.
 */
const std::vector<Fp16Bits> kFp16Edges = {
    0x0000, 0x8000, 0x0001, 0x8001, 0x0002, 0x03ff, 0x83ff, 0x0400,
    0x3c00, 0xbc00, 0x3c03, 0x4800, 0x4a00, 0x4c00, 0x5bff, 0x5c00,
    0x7bfe, 0x7bff, 0xfbff, 0x7c00, 0xfc00, 0x7e00, 0xfe00, 0x7c01,
};

/** The same classes for BF16 (max finite is 0x7f7f). */
const std::vector<Fp16Bits> kBf16Edges = {
    0x0000, 0x8000, 0x0001, 0x8001, 0x007f, 0x0080, 0x3f80, 0xbf80,
    0x3f81, 0x7f00, 0x7f7e, 0x7f7f, 0xff7f, 0x7f80, 0xff80, 0x7fc0,
    0xffc0, 0x7f81,
};

Fp16
laneOracle(PimNumberFormat fmt, char op, Fp16 a, Fp16 b, Fp16 c)
{
    if (fmt == PimNumberFormat::Fp16) {
        switch (op) {
          case '+':
            return fp16Add(a, b);
          case '*':
            return fp16Mul(a, b);
          default:
            return fp16Mac(a, b, c);
        }
    }
    const Bf16 x = Bf16::fromBits(a.bits()), y = Bf16::fromBits(b.bits());
    Bf16 r;
    switch (op) {
      case '+':
        r = bf16Add(x, y);
        break;
      case '*':
        r = bf16Mul(x, y);
        break;
      default:
        r = bf16Mac(x, y, Bf16::fromBits(c.bits()));
        break;
    }
    return Fp16::fromBits(r.bits());
}

bool
isNan(PimNumberFormat fmt, Fp16 v)
{
    return fmt == PimNumberFormat::Fp16 ? v.isNan()
                                        : Bf16::fromBits(v.bits()).isNan();
}

/**
 * One lane of a row op must equal the per-lane oracle bit for bit. The
 * exception is a NaN result: IEEE 754 leaves open which payload an
 * operation on two NaNs (or an invalid operation) returns, and the row
 * loops and the scalar helpers compile to different operand orders, so
 * there only NaN-ness is pinned.
 */
void
expectLane(PimNumberFormat fmt, Fp16 got, Fp16 want, const char *what)
{
    if (isNan(fmt, want))
        EXPECT_TRUE(isNan(fmt, got)) << what << std::hex << got.bits();
    else
        EXPECT_EQ(got.bits(), want.bits()) << what;
}

/** Compare every lane of one row op against the per-lane oracle. */
void
expectRowMatchesLanes(PimNumberFormat fmt, const LaneVector &a,
                      const LaneVector &b, const LaneVector &c)
{
    const LaneVector add = rowAdd(fmt, a, b);
    const LaneVector mul = rowMul(fmt, a, b);
    const LaneVector mac = rowMac(fmt, a, b, c);
    for (std::size_t i = 0; i < kSimdLanes; ++i) {
        SCOPED_TRACE(::testing::Message()
                     << std::hex << "a=" << a[i].bits() << " b="
                     << b[i].bits() << " c=" << c[i].bits());
        expectLane(fmt, add[i], laneOracle(fmt, '+', a[i], b[i], c[i]),
                   "add ");
        expectLane(fmt, mul[i], laneOracle(fmt, '*', a[i], b[i], c[i]),
                   "mul ");
        expectLane(fmt, mac[i], laneOracle(fmt, 'm', a[i], b[i], c[i]),
                   "mac ");
    }
}

void
checkRowOpsAgainstOracle(PimNumberFormat fmt,
                         const std::vector<Fp16Bits> &edges)
{
    // Every (a, b, c) triple of edge patterns, 16 triples per row.
    std::vector<std::array<Fp16Bits, 3>> triples;
    for (Fp16Bits a : edges)
        for (Fp16Bits b : edges)
            for (Fp16Bits c : edges)
                triples.push_back({a, b, c});
    for (std::size_t t = 0; t < triples.size(); t += kSimdLanes) {
        LaneVector a{}, b{}, c{};
        for (std::size_t i = 0; i < kSimdLanes; ++i) {
            const auto &abc = triples[(t + i) % triples.size()];
            a[i] = Fp16::fromBits(abc[0]);
            b[i] = Fp16::fromBits(abc[1]);
            c[i] = Fp16::fromBits(abc[2]);
        }
        expectRowMatchesLanes(fmt, a, b, c);
    }

    // Random rows: any 16-bit pattern, or an edge pattern in a random
    // lane mix.
    Rng rng(fmt == PimNumberFormat::Fp16 ? 0x10e5 : 0xbf16);
    auto draw = [&] {
        return Fp16::fromBits(
            rng.nextBelow(4) == 0
                ? edges[rng.nextBelow(edges.size())]
                : static_cast<Fp16Bits>(rng.next() & 0xffffu));
    };
    for (int row = 0; row < 4000; ++row) {
        LaneVector a, b, c;
        for (std::size_t i = 0; i < kSimdLanes; ++i) {
            a[i] = draw();
            b[i] = draw();
            c[i] = draw();
        }
        expectRowMatchesLanes(fmt, a, b, c);
    }
}

TEST(PimRowOps, Fp16RowsMatchPerLaneArithmetic)
{
    checkRowOpsAgainstOracle(PimNumberFormat::Fp16, kFp16Edges);
}

TEST(PimRowOps, Bf16RowsMatchPerLaneArithmetic)
{
    checkRowOpsAgainstOracle(PimNumberFormat::Bf16, kBf16Edges);
}

TEST(PimRowOps, MacRoundsTheProductBeforeAccumulating)
{
    // a = b = 1 + 3*2^-10, c = -1. The exact a*b = 1 + 6*2^-10 + 9*2^-20
    // rounds to 1 + 6*2^-10, so the non-fused MAC gives exactly 6*2^-10.
    // A fused datapath would keep the 9*2^-20 tail and round
    // 6*2^-10 + 9*2^-20 to 6*2^-10 + 8*2^-20 instead.
    const Fp16 a = Fp16::fromBits(0x3c03);
    const Fp16 c = Fp16(-1.0f);
    const float non_fused = std::ldexp(6.0f, -10);
    const float fused = non_fused + std::ldexp(8.0f, -20);
    ASSERT_NE(Fp16(non_fused).bits(), Fp16(fused).bits());
    ASSERT_EQ(floatToFp16Bits(a.toFloat() * a.toFloat() + c.toFloat()),
              Fp16(fused).bits());

    const LaneVector mac = rowMac(PimNumberFormat::Fp16, broadcast(a),
                                  broadcast(a), broadcast(c));
    for (std::size_t i = 0; i < kSimdLanes; ++i) {
        EXPECT_EQ(mac[i].bits(), Fp16(non_fused).bits()) << "lane " << i;
        EXPECT_EQ(mac[i].bits(), fp16Mac(a, a, c).bits()) << "lane " << i;
    }
}

} // namespace
} // namespace pimsim
