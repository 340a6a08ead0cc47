/**
 * @file
 * Epoch-order equivalence: PimSystem runs each epoch channel by channel
 * (every channel drains its own events up to the epoch target) and then
 * merges the channels' ECC events in (cycle, channel) order. These
 * tests check that this order gives exactly what a global
 * target-by-target sweep gives — same stats registry dump, same trace
 * bytes, same error log counts and event order — with scrubbing and ECC
 * faults in flight (DESIGN.md §14).
 */

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/trace.h"
#include "reliability/fault_injector.h"
#include "sim/system.h"
#include "stack/blas.h"

namespace pimsim {
namespace {

/** Everything a run produces, stringified for exact comparison. */
struct Digest
{
    Cycle finalCycle = 0;
    std::uint64_t corrected = 0;
    std::uint64_t uncorrectable = 0;
    std::size_t errorEvents = 0;
    std::uint64_t scrubSteps = 0;
    std::string errorOrder; // recent(), one event per ';'-terminated entry
    std::string statsJson;
    std::string trace;

    bool operator==(const Digest &o) const = default;
};

/**
 * A system with on-die ECC, patrol scrubbing and a trace session, rows
 * touched through the real BLAS path, and a seeded fault campaign
 * planted in the arrays before the measured traffic starts. On top of
 * the campaign, every channel gets stuck cells in the first kHotCols
 * columns of row 0 of each bank group's bank 0, so demand reads on many
 * channels raise ECC events at interleaved cycles inside one epoch —
 * the case the (cycle, channel) merge exists for.
 */
struct Rig
{
    explicit Rig(std::uint64_t seed)
        : sys(config()), blas(sys)
    {
        sys.setTraceSession(&trace);
        blas.setTrace(&trace);
        Fp16Vector warm(1024, Fp16(1.0f)), out;
        blas.relu(warm, out);

        FaultRates rates;
        rates.dramTransient = 2.0;
        rates.dramStuck = 0.5;
        FaultInjector injector(sys, rates, seed ^ 0x7a11);
        injector.runCampaign(/*interval=*/500, /*steps=*/4);

        // Stuck at 1 on a bit every stored value here has at 0 (the warm
        // data and the zero write payloads), so each read errs.
        const HbmGeometry &g = sys.config().geometry;
        for (unsigned ch = 0; ch < sys.numChannels(); ++ch) {
            DataStore &store = sys.controller(ch).channel().dataStore();
            for (unsigned bg = 0; bg < g.bankGroupsPerPch; ++bg)
                for (unsigned col = 0; col < kHotCols; ++col)
                    store.setStuckBit(bg * g.banksPerBankGroup, 0, col,
                                      /*bit=*/0, /*value=*/true);
        }
    }

    static constexpr unsigned kHotCols = 8;

    static SystemConfig
    config()
    {
        SystemConfig cfg = SystemConfig::pimHbmSystem();
        cfg.numStacks = 1; // 16 channels keep the test fast
        cfg.geometry.onDieEcc = true;
        cfg.controller.scrubEnabled = true;
        cfg.controller.scrubInterval = 700;
        cfg.controller.scrubBurstsPerStep = 8;
        return cfg;
    }

    /** Enqueue a random burst of reads and writes across channels. */
    void
    enqueueBurst(Rng &rng)
    {
        const HbmGeometry &g = sys.config().geometry;
        const unsigned burst = 8 + static_cast<unsigned>(rng.nextBelow(24));
        for (unsigned i = 0; i < burst; ++i) {
            MemRequest r;
            r.type = rng.nextBelow(3) ? RequestType::Read
                                      : RequestType::Write;
            r.coord.bankGroup =
                static_cast<unsigned>(rng.nextBelow(g.bankGroupsPerPch));
            r.coord.row = static_cast<unsigned>(rng.nextBelow(4));
            r.coord.col = static_cast<unsigned>(rng.nextBelow(g.colsPerRow));
            r.id = nextId++;
            const unsigned ch =
                static_cast<unsigned>(rng.nextBelow(sys.numChannels()));
            (void)sys.tryEnqueue(ch, r);
        }
    }

    Digest
    digest()
    {
        for (unsigned ch = 0; ch < sys.numChannels(); ++ch)
            (void)sys.drain(ch);
        Digest d;
        const MemErrorLog &log = sys.errorLog();
        d.finalCycle = sys.now();
        d.corrected = log.corrected();
        d.uncorrectable = log.uncorrectable();
        d.errorEvents = log.recent().size();
        d.scrubSteps = sys.totalCtrlStat("scrub.steps");
        std::ostringstream order;
        for (const MemErrorEvent &e : log.recent()) {
            order << e.cycle << ':' << e.channel << ':' << e.bank << ':'
                  << e.row << ':' << e.col << ':'
                  << memErrorSeverityName(e.severity) << ':'
                  << memErrorOriginName(e.origin) << ';';
        }
        d.errorOrder = order.str();
        std::ostringstream stats;
        sys.dumpStatsJson(stats);
        d.statsJson = stats.str();
        std::ostringstream tr;
        trace.write(tr);
        d.trace = tr.str();
        return d;
    }

    TraceSession trace;
    PimSystem sys;
    PimBlas blas;
    std::uint64_t nextId = 1;
};

enum class Drive
{
    StepOnly,     ///< one global target per epoch, until idle
    RunUntilIdle, ///< one unbounded epoch per wave
};

/**
 * Waves of random traffic, each followed by a scrub-bearing advance()
 * and then driven to idle by `drive`. The random stream depends only on
 * `seed`, never on the drive mode.
 */
Digest
runToIdle(std::uint64_t seed, Drive drive)
{
    Rig rig(seed);
    Rng rng(seed);
    for (unsigned wave = 0; wave < 24; ++wave) {
        rig.enqueueBurst(rng);
        rig.sys.advance(50 + rng.nextBelow(900));
        rig.enqueueBurst(rng);
        if (drive == Drive::StepOnly) {
            while (rig.sys.step()) {
            }
        } else {
            rig.sys.runUntilIdle();
        }
    }
    return rig.digest();
}

/**
 * Waves of random traffic, each followed by advance(N) with scrubbing
 * on — either in one call or cut into small random slices that sum to
 * N. The slice sizes come from their own stream so the traffic is the
 * same either way.
 */
Digest
runAdvance(std::uint64_t seed, bool sliced)
{
    Rig rig(seed);
    Rng rng(seed);
    Rng slices(seed ^ 0x511ce);
    for (unsigned wave = 0; wave < 24; ++wave) {
        rig.enqueueBurst(rng);
        const Cycle n = 200 + rng.nextBelow(2000);
        if (!sliced) {
            rig.sys.advance(n);
            continue;
        }
        for (Cycle done = 0; done < n;) {
            const Cycle k = std::min<Cycle>(1 + slices.nextBelow(97),
                                            n - done);
            rig.sys.advance(k);
            done += k;
        }
    }
    return rig.digest();
}

TEST(EpochOrder, StepSweepMatchesRunUntilIdle)
{
    const Digest swept = runToIdle(0xcafe, Drive::StepOnly);
    const Digest drained = runToIdle(0xcafe, Drive::RunUntilIdle);
    EXPECT_GT(swept.finalCycle, 0u);
    EXPECT_GT(swept.errorEvents, 0u) // the campaign must actually bite
        << "fault campaign produced no ECC events; the comparison would "
           "not cover the merge";
    EXPECT_EQ(swept.finalCycle, drained.finalCycle);
    EXPECT_EQ(swept.corrected, drained.corrected);
    EXPECT_EQ(swept.uncorrectable, drained.uncorrectable);
    EXPECT_EQ(swept.errorEvents, drained.errorEvents);
    EXPECT_EQ(swept.errorOrder, drained.errorOrder);
    EXPECT_EQ(swept.statsJson, drained.statsJson);
    EXPECT_EQ(swept.trace, drained.trace);
}

TEST(EpochOrder, OneAdvanceMatchesSlicedAdvances)
{
    const Digest whole = runAdvance(0xbeef, /*sliced=*/false);
    const Digest sliced = runAdvance(0xbeef, /*sliced=*/true);
    EXPECT_GT(whole.errorEvents, 0u);
    EXPECT_GT(whole.scrubSteps, 0u);
    EXPECT_EQ(whole.finalCycle, sliced.finalCycle);
    EXPECT_EQ(whole.corrected, sliced.corrected);
    EXPECT_EQ(whole.uncorrectable, sliced.uncorrectable);
    EXPECT_EQ(whole.errorEvents, sliced.errorEvents);
    EXPECT_EQ(whole.errorOrder, sliced.errorOrder);
    EXPECT_EQ(whole.statsJson, sliced.statsJson);
    EXPECT_EQ(whole.trace, sliced.trace);
}

TEST(EpochOrder, DistinctSeedsDiffer)
{
    // The workload is not degenerate: two seeds give different runs,
    // while each seed reproduces itself.
    const Digest a1 = runToIdle(1, Drive::RunUntilIdle);
    const Digest a2 = runToIdle(1, Drive::RunUntilIdle);
    const Digest b = runToIdle(2, Drive::RunUntilIdle);
    EXPECT_EQ(a1, a2);
    EXPECT_NE(a1.statsJson, b.statsJson);
}

} // namespace
} // namespace pimsim
