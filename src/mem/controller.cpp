#include "mem/controller.h"

#include <algorithm>
#include <array>
#include <string>

#include "common/logging.h"

namespace pimsim {

namespace {

/** "<prefix><CMD>" stat names per command type, built once: the
 *  controller counts one per issued command. */
struct CommandStatNames
{
    explicit CommandStatNames(const char *prefix)
    {
        for (unsigned t = 0; t < names.size(); ++t)
            names[t] = std::string(prefix) +
                       commandTypeName(static_cast<CommandType>(t));
    }

    const std::string &operator[](CommandType type) const
    {
        return names[static_cast<unsigned>(type)];
    }

    std::array<std::string, static_cast<unsigned>(CommandType::Ref) + 1>
        names;
};

const CommandStatNames kCmdStat("cmd.");
const CommandStatNames kPrepStat("prep.");
const std::string kCmdRdPimStat = "cmd.RD-PIM";

} // namespace

MemoryController::MemoryController(const HbmGeometry &geom,
                                   const HbmTiming &timing,
                                   const ControllerConfig &config,
                                   bool with_pim,
                                   const PimConfig &pim_config)
    : geom_(geom), timing_(timing), config_(config),
      channel_(std::make_unique<PseudoChannel>(geom, timing)),
      nextRefresh_(timing.tREFI), nextScrub_(config.scrubInterval),
      stats_("ctrl")
{
    if (with_pim)
        pimChannel_ = std::make_unique<PimChannel>(pim_config, *channel_);
}

void
MemoryController::setErrorSink(MemErrorLog *log, unsigned channel)
{
    errorLog_ = log;
    channelId_ = channel;
    channel_->dataStore().setEccHook(
        [this](unsigned bank, unsigned row, unsigned col,
               EccStatus status) {
            const bool fatal = status == EccStatus::Uncorrectable;
            stats_.add(fatal ? "ecc.uncorrectable" : "ecc.corrected");
            if (!errorLog_)
                return;
            MemErrorEvent event;
            event.severity = fatal
                                 ? MemErrorEvent::Severity::Uncorrectable
                                 : MemErrorEvent::Severity::Corrected;
            event.origin = MemErrorEvent::Origin::Access;
            event.channel = channelId_;
            event.bank = bank;
            event.row = row;
            event.col = col;
            event.cycle = lastNow_;
            errorLog_->record(event);
        });
}

void
MemoryController::setScrubEnabled(bool enabled)
{
    PIMSIM_ASSERT(!enabled || !channel_->timingOnly(),
                  "the patrol scrubber needs stored data; a timing-only "
                  "channel keeps none");
    config_.scrubEnabled = enabled;
}

Cycle
MemoryController::scrubTick(Cycle now)
{
    if (!config_.scrubEnabled)
        return kNoCycle;
    if (now < nextScrub_)
        return nextScrub_;
    lastNow_ = now;
    const Cycle interval = std::max<Cycle>(config_.scrubInterval, 1);
    nextScrub_ = now + interval;

    // Patrol scrub steals only idle cycles: defer while demand requests
    // are queued (Section VIII's scrubber must not cost PIM bandwidth).
    if (!queue_.empty()) {
        stats_.add("scrub.deferred");
        return nextScrub_;
    }

    DataStore &store = channel_->dataStore();
    const auto rows = store.allocatedRows();
    if (rows.empty())
        return nextScrub_;
    const std::size_t bursts = rows.size() * geom_.colsPerRow;
    stats_.add("scrub.steps");

    for (unsigned n = 0; n < config_.scrubBurstsPerStep; ++n) {
        if (scrubPos_ >= bursts) {
            scrubPos_ = 0;
            stats_.add("scrub.passes");
        }
        const auto &[bank, row] = rows[scrubPos_ / geom_.colsPerRow];
        const auto col =
            static_cast<unsigned>(scrubPos_ % geom_.colsPerRow);
        const ScrubOutcome outcome = store.scrubBurst(bank, row, col);
        stats_.add("scrub.bursts");
        if (outcome.corrected) {
            stats_.add("scrub.corrected", outcome.corrected);
        }
        if (outcome.uncorrectable) {
            stats_.add("scrub.uncorrectable", outcome.uncorrectable);
        }
        if (errorLog_ && (outcome.corrected || outcome.uncorrectable)) {
            MemErrorEvent event;
            event.origin = MemErrorEvent::Origin::Scrub;
            event.channel = channelId_;
            event.bank = bank;
            event.row = row;
            event.col = col;
            event.cycle = now;
            event.severity = MemErrorEvent::Severity::Corrected;
            for (std::uint64_t i = 0; i < outcome.corrected; ++i)
                errorLog_->record(event);
            event.severity = MemErrorEvent::Severity::Uncorrectable;
            for (std::uint64_t i = 0; i < outcome.uncorrectable; ++i)
                errorLog_->record(event);
        }
        ++scrubPos_;
    }
    return nextScrub_;
}

void
MemoryController::enqueue(const MemRequest &request)
{
    PIMSIM_ASSERT(canEnqueue(), "enqueue on full controller queue");
    queue_.push_back(Queued{request, 0, false});
    stats_.add("enqueued");
    // Arrival-sampled queue depth: queueDepthSum / enqueued = mean depth
    // an arriving request finds ahead of it.
    stats_.add("queueDepthSum", queue_.size() - 1);
}

bool
MemoryController::isRowHit(const Queued &entry) const
{
    const auto &r = entry.request;
    const unsigned flat =
        r.coord.bankGroup * geom_.banksPerBankGroup + r.coord.bank;
    return channel_->bank(flat).rowOpen(r.coord.row);
}

Command
MemoryController::nextCommandFor(const Queued &entry) const
{
    const auto &r = entry.request;
    const unsigned bg = r.coord.bankGroup;
    const unsigned ba = r.coord.bank;
    const unsigned flat = bg * geom_.banksPerBankGroup + ba;
    const Bank &bank = channel_->bank(flat);

    switch (r.type) {
      case RequestType::Read:
      case RequestType::Write:
      case RequestType::Activate:
        if (bank.state == BankState::Active && bank.openRow != r.coord.row)
            return Command::pre(bg, ba);
        if (bank.state == BankState::Idle)
            return Command::act(bg, ba, r.coord.row);
        return r.type == RequestType::Write
                   ? Command::wr(bg, ba, r.coord.col, r.data)
                   : Command::rd(bg, ba, r.coord.col);
      case RequestType::Precharge:
        return Command::pre(bg, ba);
      case RequestType::PrechargeAll:
        return Command::preAll();
    }
    PIMSIM_PANIC("bad request type");
}

std::optional<std::size_t>
MemoryController::pickCandidate() const
{
    if (queue_.empty())
        return std::nullopt;

    // Build the candidate window. Ordered (PIM) requests never cross
    // unordered ones and only reorder among the first orderedWindow
    // ordered entries (the AAM tolerance of Section IV-C).
    const bool head_ordered = queue_.front().request.ordered;
    const unsigned window =
        head_ordered ? config_.orderedWindow : config_.reorderWindow;

    std::size_t limit = 0;
    for (; limit < queue_.size() && limit < window; ++limit) {
        if (queue_[limit].request.ordered != head_ordered)
            break;
    }
    if (limit == 0)
        limit = 1;

    // A candidate may not bypass an older access to the same burst
    // address (read-after-write / write-after-write ordering).
    auto conflicts_with_older = [&](std::size_t i) {
        const auto &c = queue_[i].request.coord;
        for (std::size_t j = 0; j < i; ++j) {
            const auto &o = queue_[j].request;
            if ((o.type == RequestType::Read ||
                 o.type == RequestType::Write) &&
                o.coord == c) {
                return true;
            }
        }
        return false;
    };

    // FR-FCFS with read/write streaks: switching the data-bus direction
    // costs a turnaround penalty, so among row hits prefer the oldest
    // request matching the last issued column type (write draining),
    // then any oldest row hit, then the oldest request.
    std::optional<std::size_t> any_hit;
    for (std::size_t i = 0; i < limit; ++i) {
        const auto &e = queue_[i];
        const auto t = e.request.type;
        if ((t == RequestType::Read || t == RequestType::Write) &&
            isRowHit(e) && !conflicts_with_older(i)) {
            if ((t == RequestType::Write) == lastColWasWrite_)
                return i;
            if (!any_hit)
                any_hit = i;
        }
    }
    if (any_hit)
        return any_hit;
    return 0;
}

Cycle
MemoryController::rowPrepTick(Cycle now, std::size_t chosen)
{
    // Find the oldest unordered row-miss in the window whose bank is not
    // wanted (at its currently open row) by any other windowed request,
    // and issue its PRE or ACT if legal right now.
    const std::size_t limit =
        std::min<std::size_t>(queue_.size(), config_.reorderWindow);
    Cycle best_wait = kNoCycle;
    for (std::size_t i = 0; i < limit; ++i) {
        if (i == chosen)
            continue;
        const auto &e = queue_[i];
        const auto type = e.request.type;
        if (e.request.ordered ||
            (type != RequestType::Read && type != RequestType::Write)) {
            continue;
        }
        if (isRowHit(e))
            continue;
        const unsigned flat = e.request.coord.bankGroup *
                                  geom_.banksPerBankGroup +
                              e.request.coord.bank;
        const Bank &bank = channel_->bank(flat);
        // Do not close a row that other windowed requests still hit.
        if (bank.state == BankState::Active) {
            bool wanted = false;
            for (std::size_t j = 0; j < limit && !wanted; ++j) {
                if (j == i)
                    continue;
                const auto &o = queue_[j].request;
                wanted = (o.type == RequestType::Read ||
                          o.type == RequestType::Write) &&
                         o.coord.bankGroup * geom_.banksPerBankGroup +
                                 o.coord.bank ==
                             flat &&
                         o.coord.row == bank.openRow;
            }
            if (wanted)
                continue;
        }
        const Command prep =
            bank.state == BankState::Active
                ? Command::pre(e.request.coord.bankGroup,
                               e.request.coord.bank)
                : Command::act(e.request.coord.bankGroup,
                               e.request.coord.bank, e.request.coord.row);
        const Cycle t = channel_->earliestIssue(prep, now);
        if (t == now) {
            channel_->issue(prep, now);
            stats_.add(kPrepStat[prep.type]);
            return now;
        }
        best_wait = std::min(best_wait, t);
    }
    return best_wait;
}

void
MemoryController::completeRequest(const Queued &entry,
                                  const IssueResult &result, Cycle now)
{
    MemResponse resp;
    resp.id = entry.request.id;
    resp.type = entry.request.type;
    switch (entry.request.type) {
      case RequestType::Read:
        resp.data = result.data;
        resp.completion = result.dataCycle;
        resp.ecc = result.ecc;
        break;
      case RequestType::Write:
        resp.completion = now + timing_.tCWL + timing_.tBL;
        break;
      default:
        resp.completion = now;
        break;
    }
    pendingResponses_.push_back(resp);
}

Cycle
MemoryController::refreshTick(Cycle now)
{
    if (channel_->anyBankActive()) {
        const Command cmd = Command::preAll();
        const Cycle t = channel_->earliestIssue(cmd, now);
        if (t == now) {
            channel_->issue(cmd, now);
            stats_.add("refreshPreA");
            return now + 1;
        }
        return t;
    }
    const Command cmd = Command::refresh();
    const Cycle t = channel_->earliestIssue(cmd, now);
    if (t == now) {
        channel_->issue(cmd, now);
        stats_.add("refresh");
        refreshing_ = false;
        nextRefresh_ = now + timing_.tREFI;
        return queue_.empty() ? nextRefresh_ : now + 1;
    }
    return t;
}

Cycle
MemoryController::tick(Cycle now)
{
    lastNow_ = now;
    // The earliest moment anything interesting can happen next.
    Cycle next = kNoCycle;
    if (!pendingResponses_.empty()) {
        for (const auto &r : pendingResponses_)
            next = std::min(next, std::max(r.completion, now + 1));
    }

    if (config_.refreshEnabled && !refreshing_ && now >= nextRefresh_)
        refreshing_ = true;

    if (refreshing_)
        return std::min(next, refreshTick(now));

    const auto candidate = pickCandidate();
    if (!candidate) {
        if (config_.refreshEnabled)
            next = std::min(next, std::max(nextRefresh_, now + 1));
        return next;
    }

    Queued &entry = queue_[*candidate];
    const auto &r = entry.request;
    const unsigned flat =
        r.coord.bankGroup * geom_.banksPerBankGroup + r.coord.bank;
    const Bank &bank = channel_->bank(flat);

    // Row-management requests that are already satisfied complete
    // without touching the command bus.
    const bool act_satisfied =
        r.type == RequestType::Activate && bank.rowOpen(r.coord.row);
    const bool pre_satisfied =
        r.type == RequestType::Precharge && bank.state == BankState::Idle;
    const bool prea_satisfied =
        r.type == RequestType::PrechargeAll && channel_->allBanksIdle();
    if (act_satisfied || pre_satisfied || prea_satisfied) {
        completeRequest(entry, IssueResult{}, now);
        queue_.erase(queue_.begin() +
                     static_cast<std::ptrdiff_t>(*candidate));
        return std::min(next, now + 1);
    }

    const Command cmd = nextCommandFor(entry);
    const Cycle t = channel_->earliestIssue(cmd, now);
    if (t != now) {
        // The preferred command is blocked (tCCD gap, turnaround, ...):
        // use the spare command-bus slot to prepare a row for a pending
        // row-miss (PRE/ACT overlap with the column stream). Only host
        // (unordered) requests are eligible — hoisting an ACT over
        // outstanding AB-PIM triggers would change the open row they
        // execute against.
        if (!entry.request.ordered) {
            const Cycle prep = rowPrepTick(now, *candidate);
            if (prep == now)
                return std::min(next, now + 1);
            next = std::min(next, prep);
        }
        return std::min(next, t);
    }

    const IssueResult result = channel_->issue(cmd, now);
    stats_.add(kCmdStat[cmd.type]);

    const bool is_column =
        cmd.type == CommandType::Rd || cmd.type == CommandType::Wr;

    // A PRE or ACT issued on behalf of a column request marks it as a
    // row-buffer miss; the hit/miss verdict is recorded when its column
    // command finally issues.
    if (!is_column && (entry.request.type == RequestType::Read ||
                       entry.request.type == RequestType::Write)) {
        entry.rowMissed = true;
    }
    const bool request_done =
        is_column ||
        (r.type == RequestType::Activate && cmd.type == CommandType::Act) ||
        (r.type == RequestType::Precharge && cmd.type == CommandType::Pre) ||
        (r.type == RequestType::PrechargeAll &&
         cmd.type == CommandType::PreA);

    if (is_column) {
        lastColWasWrite_ = cmd.type == CommandType::Wr;
        stats_.add("colIssued");
        stats_.add(entry.rowMissed ? "rowMiss" : "rowHit");
        if (result.intercepted) {
            stats_.add("pimIssued");
            // Command-mix bucket for AB-PIM triggers (a RD/WR column
            // the PIM logic consumed): cmd.RD/cmd.WR count the bus
            // command, cmd.RD-PIM separates the PIM-executing subset.
            stats_.add(kCmdRdPimStat);
        }
    }

    if (request_done) {
        completeRequest(entry, result, now);
        queue_.erase(queue_.begin() +
                     static_cast<std::ptrdiff_t>(*candidate));
    }
    return std::min(next, now + 1);
}

std::vector<MemResponse>
MemoryController::drainResponses(Cycle now)
{
    std::vector<MemResponse> done;
    auto it = pendingResponses_.begin();
    while (it != pendingResponses_.end()) {
        if (it->completion <= now) {
            done.push_back(*it);
            it = pendingResponses_.erase(it);
        } else {
            ++it;
        }
    }
    std::sort(done.begin(), done.end(),
              [](const MemResponse &a, const MemResponse &b) {
                  return a.completion < b.completion ||
                         (a.completion == b.completion && a.id < b.id);
              });
    return done;
}

} // namespace pimsim
