#include "reliability/fault_injector.h"

#include <vector>

#include "common/logging.h"
#include "dram/datastore.h"
#include "pim/pim_channel.h"
#include "sim/system.h"

namespace pimsim {

FaultInjector::FaultInjector(PimSystem &system, const FaultRates &rates,
                             std::uint64_t seed)
    : system_(system), rates_(rates), rng_(seed), stats_("faultInjector")
{
    requireFunctional();
}

void
FaultInjector::requireFunctional() const
{
    // Faults corrupt stored data and register files; a timing-only
    // system keeps no data, so an injected fault could never be seen.
    PIMSIM_ASSERT(!system_.timingOnly(),
                  "a FaultInjector needs a functional system, not a "
                  "timing-only one");
}

unsigned
FaultInjector::drawCount(double rate)
{
    if (rate <= 0.0)
        return 0;
    const auto whole = static_cast<unsigned>(rate);
    const double frac = rate - whole;
    return whole + (rng_.nextDouble() < frac ? 1u : 0u);
}

bool
FaultInjector::pickDramBurst(unsigned &channel, unsigned &bank,
                             unsigned &row, unsigned &col)
{
    // Weight channels by their allocated-row count so faults land
    // uniformly over touched storage, not uniformly over channels.
    const unsigned channels = system_.numChannels();
    std::vector<std::size_t> rowCount(channels, 0);
    std::size_t total = 0;
    for (unsigned ch = 0; ch < channels; ++ch) {
        rowCount[ch] =
            system_.controller(ch).channel().dataStore().allocatedRows()
                .size();
        total += rowCount[ch];
    }
    if (total == 0)
        return false;

    std::size_t pick = rng_.nextBelow(total);
    unsigned ch = 0;
    while (pick >= rowCount[ch]) {
        pick -= rowCount[ch];
        ++ch;
    }
    const auto rows =
        system_.controller(ch).channel().dataStore().allocatedRows();
    channel = ch;
    bank = rows[pick].first;
    row = rows[pick].second;
    col = static_cast<unsigned>(
        rng_.nextBelow(system_.config().geometry.colsPerRow));
    return true;
}

bool
FaultInjector::pickPimUnit(unsigned &channel, unsigned &unit)
{
    if (!system_.config().withPim())
        return false;
    channel = static_cast<unsigned>(rng_.nextBelow(system_.numChannels()));
    PimChannel *pim = system_.controller(channel).pim();
    if (!pim || pim->numUnits() == 0)
        return false;
    unit = static_cast<unsigned>(rng_.nextBelow(pim->numUnits()));
    return true;
}

void
FaultInjector::injectDramTransient()
{
    unsigned ch, bank, row, col;
    if (!pickDramBurst(ch, bank, row, col))
        return;
    const auto bit = static_cast<unsigned>(rng_.nextBelow(kBurstBytes * 8));
    system_.controller(ch).channel().dataStore().injectBitFlip(bank, row,
                                                               col, bit);
    ++counts_.dramTransient;
    stats_.add("dramTransient");
}

void
FaultInjector::injectDramStuck()
{
    unsigned ch, bank, row, col;
    if (!pickDramBurst(ch, bank, row, col))
        return;
    const auto bit = static_cast<unsigned>(rng_.nextBelow(kBurstBytes * 8));
    const bool value = (rng_.next() & 1) != 0;
    system_.controller(ch).channel().dataStore().setStuckBit(bank, row, col,
                                                             bit, value);
    ++counts_.dramStuck;
    stats_.add("dramStuck");
}

void
FaultInjector::injectDramBurst()
{
    unsigned ch, bank, row, col;
    if (!pickDramBurst(ch, bank, row, col))
        return;
    // Three flips clustered in an 8-bit span: guaranteed to put at least
    // two errors into one 64-bit ECC word, defeating SEC-DED.
    const auto base =
        static_cast<unsigned>(rng_.nextBelow(kBurstBytes * 8 - 8));
    DataStore &store = system_.controller(ch).channel().dataStore();
    unsigned planted = 0;
    unsigned offset = 0;
    while (planted < 3 && offset < 8) {
        if (planted == 0 || (rng_.next() & 1) != 0) {
            store.injectBitFlip(bank, row, col, base + offset);
            ++planted;
        }
        ++offset;
    }
    ++counts_.dramBurst;
    stats_.add("dramBurst");
}

void
FaultInjector::injectPimGrf()
{
    unsigned ch, unit;
    if (!pickPimUnit(ch, unit))
        return;
    PimRegisterFile &regs = system_.controller(ch).pim()->unit(unit).regs();
    const auto half = static_cast<unsigned>(rng_.nextBelow(2));
    const auto index =
        static_cast<unsigned>(rng_.nextBelow(regs.grfPerHalf()));
    const auto bit =
        static_cast<unsigned>(rng_.nextBelow(kSimdLanes * 16));
    regs.flipGrfBit(half, index, bit);
    ++counts_.pimGrf;
    stats_.add("pimGrf");
}

void
FaultInjector::injectPimSrf()
{
    unsigned ch, unit;
    if (!pickPimUnit(ch, unit))
        return;
    PimRegisterFile &regs = system_.controller(ch).pim()->unit(unit).regs();
    const auto file = static_cast<unsigned>(rng_.nextBelow(2));
    const auto index =
        static_cast<unsigned>(rng_.nextBelow(regs.srfPerFile()));
    const auto bit = static_cast<unsigned>(rng_.nextBelow(16));
    regs.flipSrfBit(file, index, bit);
    ++counts_.pimSrf;
    stats_.add("pimSrf");
}

void
FaultInjector::injectPimCrf()
{
    unsigned ch, unit;
    if (!pickPimUnit(ch, unit))
        return;
    PimRegisterFile &regs = system_.controller(ch).pim()->unit(unit).regs();
    const auto index =
        static_cast<unsigned>(rng_.nextBelow(regs.crfEntries()));
    const auto bit = static_cast<unsigned>(rng_.nextBelow(32));
    regs.flipCrfBit(index, bit);
    ++counts_.pimCrf;
    stats_.add("pimCrf");
}

bool
FaultInjector::injectUncorrectableBurst()
{
    requireFunctional();
    const std::uint64_t before = counts_.dramBurst;
    injectDramBurst();
    return counts_.dramBurst != before;
}

void
FaultInjector::step()
{
    requireFunctional();
    stats_.add("steps");
    for (unsigned n = drawCount(rates_.dramTransient); n > 0; --n)
        injectDramTransient();
    for (unsigned n = drawCount(rates_.dramStuck); n > 0; --n)
        injectDramStuck();
    for (unsigned n = drawCount(rates_.dramBurst); n > 0; --n)
        injectDramBurst();
    for (unsigned n = drawCount(rates_.pimGrf); n > 0; --n)
        injectPimGrf();
    for (unsigned n = drawCount(rates_.pimSrf); n > 0; --n)
        injectPimSrf();
    for (unsigned n = drawCount(rates_.pimCrf); n > 0; --n)
        injectPimCrf();
}

void
FaultInjector::runCampaign(Cycle interval, unsigned steps)
{
    PIMSIM_INFORM("fault campaign: ", steps, " steps every ", interval,
                  " cycles");
    for (unsigned s = 0; s < steps; ++s) {
        system_.advance(interval);
        step();
    }
}

} // namespace pimsim
