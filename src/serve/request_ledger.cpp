#include "serve/request_ledger.h"

#include <utility>

#include "common/logging.h"

namespace pimsim::serve {

namespace {

/** The counter and default terminal instant of each Terminal. */
constexpr std::uint64_t LedgerCounts::*kCounter[] = {
    &LedgerCounts::completed, &LedgerCounts::shed, &LedgerCounts::rejected,
    &LedgerCounts::timedOut, &LedgerCounts::failed};
constexpr const char *kInstant[] = {nullptr, "shed", "rejected",
                                    "queue-timeout", "attempts-exhausted"};
const std::string kTerminalCat = "terminal";
const std::string kRequestCat = "request";

} // namespace

LatencySummary
latencySummary(const Histogram &h)
{
    return {h.mean(), h.p50(), h.p95(), h.p99(),
            static_cast<double>(h.max())};
}

void
assertBalanced(const LedgerCounts &c, const char *engine,
               const std::string &name)
{
    PIMSIM_ASSERT(c.completed + c.shed + c.rejected + c.timedOut +
                          c.failed ==
                      c.submitted,
                  engine, " accounting leak for '", name, "': ",
                  c.completed, " completed + ", c.shed, " shed + ",
                  c.rejected, " rejected + ", c.timedOut, " timed out + ",
                  c.failed, " failed != ", c.submitted, " submitted");
}

void
RequestLedger::addSlot(std::string root_span, int tid)
{
    slots_.push_back(Slot{std::move(root_span), tid, {}});
}

bool
RequestLedger::finish(const RequestEnd &end)
{
    const Slot &slot = slots_[end.slot];
    const int kind = static_cast<int>(end.kind);
    const bool completed = end.kind == Terminal::Completed;
    const bool late = end.deadlineNs > 0.0 && end.endNs > end.deadlineNs;
    for (LedgerCounts *c : {&slots_[end.slot].counts, &total_}) {
        ++(c->*kCounter[kind]);
        c->sloViolations += completed && late;
    }
    const bool erred = !completed || end.erred;
    sloObs_.push_back(SloObservation{end.endNs, !erred && !late});

    if (tracer_ != nullptr && end.trace.active()) {
        if (!completed) {
            tracer_->instant(end.trace, tracePid_, slot.tid,
                             end.instant != nullptr ? end.instant
                                                    : kInstant[kind],
                             kTerminalCat, end.endNs);
        }
        tracer_->span(end.trace, tracePid_, slot.tid, slot.rootSpan,
                      kRequestCat, end.arrivalNs, end.endNs - end.arrivalNs);
        TraceOutcome outcome;
        outcome.latencyNs = end.endNs - end.arrivalNs;
        outcome.erred = erred;
        outcome.deadlineMissed = !erred && late;
        outcome.hedged = end.hedged;
        outcome.failedOver = end.failedOver;
        tracer_->end(end.trace, outcome);
    }
    return completed && late;
}

std::vector<SloObservation>
RequestLedger::takeSloObservations()
{
    return std::exchange(sloObs_, {});
}

} // namespace pimsim::serve
