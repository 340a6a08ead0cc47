#include "dram/pseudo_channel.h"

#include <algorithm>
#include <ostream>

#include "common/logging.h"
#include "common/trace.h"

namespace pimsim {

PseudoChannel::PseudoChannel(const HbmGeometry &geom, const HbmTiming &timing,
                             std::string stat_name)
    : geom_(geom), timing_(timing), banks_(geom.banksPerPch()), data_(geom),
      nextRdPerBg_(geom.bankGroupsPerPch, 0),
      nextWrPerBg_(geom.bankGroupsPerPch, 0),
      nextActPerBg_(geom.bankGroupsPerPch, 0), stats_(std::move(stat_name))
{
}

std::vector<unsigned>
PseudoChannel::targetBanks(const Command &cmd) const
{
    std::vector<unsigned> targets;
    if (allBank_ || cmd.type == CommandType::PreA ||
        cmd.type == CommandType::Ref) {
        targets.resize(banks_.size());
        for (unsigned i = 0; i < banks_.size(); ++i)
            targets[i] = i;
    } else {
        targets.push_back(cmd.flatBank(geom_.banksPerBankGroup));
    }
    return targets;
}

Cycle
PseudoChannel::earliestAct(unsigned flat_bank, Cycle now) const
{
    const Bank &b = banks_[flat_bank];
    const unsigned bg = flat_bank / geom_.banksPerBankGroup;
    Cycle t = std::max(now, b.nextAct);
    if (!allBank_) {
        // tRRD / tFAW only constrain independent per-bank activates; an
        // AB-mode ACT is a single command opening all banks in lock-step.
        t = std::max(t, nextActGlobal_);
        t = std::max(t, nextActPerBg_[bg]);
        if (actWindow_.size() >= 4)
            t = std::max(t, actWindow_[actWindow_.size() - 4] + timing_.tFAW);
    }
    return t;
}

Cycle
PseudoChannel::earliestPre(unsigned flat_bank, Cycle now) const
{
    return std::max(now, banks_[flat_bank].nextPre);
}

Cycle
PseudoChannel::earliestCol(const Command &cmd, unsigned flat_bank,
                           Cycle now) const
{
    const Bank &b = banks_[flat_bank];
    const unsigned bg = flat_bank / geom_.banksPerBankGroup;
    Cycle t = now;
    if (cmd.type == CommandType::Rd) {
        t = std::max(t, b.nextRd);
        t = std::max(t, nextRdPerBg_[bg]);
        if (!allBank_)
            t = std::max(t, nextRdGlobal_);
        // Data-bus occupancy: RD data appears tCL after issue.
        if (busBusyUntil_ > timing_.tCL)
            t = std::max(t, busBusyUntil_ - timing_.tCL);
    } else {
        t = std::max(t, b.nextWr);
        t = std::max(t, nextWrPerBg_[bg]);
        if (!allBank_)
            t = std::max(t, nextWrGlobal_);
        if (busBusyUntil_ > timing_.tCWL)
            t = std::max(t, busBusyUntil_ - timing_.tCWL);
    }
    return t;
}

Cycle
PseudoChannel::earliestIssue(const Command &cmd, Cycle now) const
{
    Cycle t = now;
    const auto targets = targetBanks(cmd);
    switch (cmd.type) {
      case CommandType::Act:
        for (unsigned b : targets) {
            PIMSIM_ASSERT(banks_[b].state == BankState::Idle,
                          "ACT on active bank ", b);
            t = std::max(t, earliestAct(b, now));
        }
        break;
      case CommandType::Pre:
      case CommandType::PreA:
        for (unsigned b : targets) {
            if (banks_[b].state == BankState::Active)
                t = std::max(t, earliestPre(b, now));
        }
        break;
      case CommandType::Rd:
      case CommandType::Wr:
        for (unsigned b : targets) {
            PIMSIM_ASSERT(banks_[b].state == BankState::Active,
                          "column command on idle bank ", b);
            t = std::max(t, earliestCol(cmd, b, now));
        }
        break;
      case CommandType::Ref:
        PIMSIM_ASSERT(allBanksIdle(), "REF with open rows");
        for (const auto &b : banks_)
            t = std::max(t, b.nextAct);
        break;
    }
    return t;
}

void
PseudoChannel::applyAct(unsigned flat_bank, unsigned row, Cycle now)
{
    Bank &b = banks_[flat_bank];
    const unsigned bg = flat_bank / geom_.banksPerBankGroup;
    b.state = BankState::Active;
    b.openRow = row;
    b.nextRd = now + timing_.tRCDRD;
    b.nextWr = now + timing_.tRCDWR;
    b.nextPre = now + timing_.tRAS;
    b.nextAct = now + timing_.tRC;
    if (!allBank_) {
        nextActGlobal_ = std::max(nextActGlobal_, now + timing_.tRRDS);
        nextActPerBg_[bg] = std::max(nextActPerBg_[bg], now + timing_.tRRDL);
    }
}

void
PseudoChannel::applyPre(unsigned flat_bank, Cycle now)
{
    Bank &b = banks_[flat_bank];
    b.state = BankState::Idle;
    b.nextAct = std::max(b.nextAct, now + timing_.tRP);
}

void
PseudoChannel::applyCol(const Command &cmd, unsigned flat_bank, Cycle now)
{
    Bank &b = banks_[flat_bank];
    const unsigned bg = flat_bank / geom_.banksPerBankGroup;
    if (cmd.type == CommandType::Rd) {
        nextRdPerBg_[bg] = now + timing_.tCCDL;
        if (!allBank_)
            nextRdGlobal_ = now + timing_.tCCDS;
        b.nextPre = std::max(b.nextPre, now + timing_.tRTP);
    } else {
        nextWrPerBg_[bg] = now + timing_.tCCDL;
        if (!allBank_)
            nextWrGlobal_ = now + timing_.tCCDS;
        const Cycle data_end = now + timing_.tCWL + timing_.tBL;
        b.nextPre = std::max(b.nextPre, data_end + timing_.tWR);
        // Write-to-read turnaround.
        b.nextRd = std::max(b.nextRd, data_end + timing_.tWTRL);
        nextRdPerBg_[bg] = std::max(nextRdPerBg_[bg],
                                    data_end + timing_.tWTRL);
        nextRdGlobal_ = std::max(nextRdGlobal_, data_end + timing_.tWTRS);
    }
}

bool
PseudoChannel::allBanksIdle() const
{
    return std::all_of(banks_.begin(), banks_.end(), [](const Bank &b) {
        return b.state == BankState::Idle;
    });
}

IssueResult
PseudoChannel::issue(const Command &cmd, Cycle now)
{
    PIMSIM_ASSERT(canIssue(cmd, now), "illegal issue of ",
                  commandTypeName(cmd.type), " at cycle ", now);
    if (trace_) {
        *trace_ << now << ": " << cmd << " [" << modeLabel() << "]"
                << "\n";
    }
    if (traceSession_) {
        // Span length: how long the command keeps its resource occupied
        // (row turnaround for ACT/PRE, data phase for columns, tRFC for
        // refresh) so the viewer shows real channel occupancy.
        Cycle dur = 1;
        switch (cmd.type) {
          case CommandType::Act:
            dur = timing_.tRCDRD;
            break;
          case CommandType::Pre:
          case CommandType::PreA:
            dur = timing_.tRP;
            break;
          case CommandType::Rd:
            dur = timing_.tCL + timing_.tBL;
            break;
          case CommandType::Wr:
            dur = timing_.tCWL + timing_.tBL;
            break;
          case CommandType::Ref:
            dur = timing_.tRFC;
            break;
        }
        traceSession_->span(
            kTracePidDevice, traceTid_, commandTypeName(cmd.type),
            modeLabel(), static_cast<double>(now) * timing_.tCKns,
            static_cast<double>(dur) * timing_.tCKns);
    }
    IssueResult result;
    const auto targets = targetBanks(cmd);

    switch (cmd.type) {
      case CommandType::Act:
        for (unsigned b : targets)
            applyAct(b, cmd.row, now);
        if (!allBank_ && targets.size() == 1) {
            actWindow_.push_back(now);
            if (actWindow_.size() > 8)
                actWindow_.pop_front();
        }
        stats_.add("act", targets.size());
        if (interceptor_)
            interceptor_->onRowCommand(cmd, now);
        break;

      case CommandType::Pre:
      case CommandType::PreA:
        for (unsigned b : targets) {
            if (banks_[b].state == BankState::Active) {
                applyPre(b, now);
                stats_.add("pre");
            }
        }
        if (interceptor_)
            interceptor_->onRowCommand(cmd, now);
        break;

      case CommandType::Rd:
      case CommandType::Wr: {
        for (unsigned b : targets)
            applyCol(cmd, b, now);

        bool intercepted = false;
        Burst rd_data{};
        if (interceptor_)
            intercepted = interceptor_->onColumnCommand(cmd, now, &rd_data);

        if (cmd.type == CommandType::Rd) {
            result.dataCycle = now + timing_.tCL + timing_.tBL;
            if (intercepted) {
                result.data = rd_data;
                stats_.add("pimCol");
                stats_.add("pimBusCycles", timing_.tBL);
            } else {
                // Data leaves the die: bus is occupied.
                busBusyUntil_ = now + timing_.tCL + timing_.tBL;
                lastRdDataEnd_ = busBusyUntil_;
                stats_.add("busCycles", timing_.tBL);
                if (!timingOnly_) {
                    const unsigned src =
                        cmd.flatBank(geom_.banksPerBankGroup);
                    result.data = data_.read(src, banks_[src].openRow,
                                             cmd.col, &result.ecc);
                }
                stats_.add("rd");
                stats_.add("rdBanks", targets.size());
            }
        } else {
            if (intercepted) {
                result.dataCycle = now + timing_.tCWL + timing_.tBL;
                stats_.add("pimCol");
                stats_.add("pimBusCycles", timing_.tBL);
            } else {
                busBusyUntil_ = now + timing_.tCWL + timing_.tBL;
                stats_.add("busCycles", timing_.tBL);
                if (!timingOnly_) {
                    for (unsigned b : targets)
                        data_.write(b, banks_[b].openRow, cmd.col, cmd.data);
                }
                result.dataCycle = now + timing_.tCWL + timing_.tBL;
                stats_.add("wr");
                stats_.add("wrBanks", targets.size());
            }
        }
        result.intercepted = intercepted;
        break;
      }

      case CommandType::Ref:
        for (auto &b : banks_)
            b.nextAct = std::max(b.nextAct, now + timing_.tRFC);
        stats_.add("ref");
        break;
    }
    return result;
}

} // namespace pimsim
