/**
 * @file
 * The request ledger: one request lifecycle for every serving engine.
 *
 * ServingEngine, LlmEngine and ClusterEngine serve different units
 * (batches, decode iterations, replicated RPCs), but a request ends the
 * same way in all three. The ledger counts submissions and the five
 * terminal kinds per tenant slot, applies the SLO rule and buffers the
 * SloMonitor feed, and opens and closes the request's trace (terminal
 * instant, root span, TraceOutcome). Engines call finish() at every
 * terminal transition and keep only the counters that are theirs alone.
 *
 * The SLO rule: a request is good iff it did not err and did not end
 * after its deadline (if it has one). Every end but a completion errs;
 * a completion errs only when its engine says so (a silently wrong
 * result). A late completion is an SLO violation even when it erred;
 * its trace is marked deadline-missed only when it did not err.
 */

#ifndef PIMSIM_SERVE_REQUEST_LEDGER_H
#define PIMSIM_SERVE_REQUEST_LEDGER_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/reqtrace.h"
#include "common/slo.h"
#include "common/stats.h"

namespace pimsim::serve {

/** Latency distribution summary extracted from a Histogram. */
struct LatencySummary
{
    double meanNs = 0.0;
    double p50Ns = 0.0;
    double p95Ns = 0.0;
    double p99Ns = 0.0;
    double maxNs = 0.0;
};

LatencySummary latencySummary(const Histogram &h);

/** How a request left the system. */
enum class Terminal : std::uint8_t
{
    Completed,
    Shed,     ///< deadline unreachable at admission
    Rejected, ///< admission control refused it
    TimedOut, ///< expired in a queue past its deadline
    Failed,   ///< every dispatch attempt failed
};

/** Submission and terminal counts of one tenant slot, or of all. */
struct LedgerCounts
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t failed = 0;
    std::uint64_t sloViolations = 0; ///< completions past their deadline
};

/** PIMSIM_ASSERT completed + shed + rejected + timedOut + failed ==
 *  submitted; `engine` and `name` label the panic message. */
void assertBalanced(const LedgerCounts &c, const char *engine,
                    const std::string &name);

/** One terminal transition, as an engine reports it. */
struct RequestEnd
{
    unsigned slot = 0;
    Terminal kind = Terminal::Completed;
    double arrivalNs = 0.0;
    double deadlineNs = 0.0; ///< absolute; <= 0 means none
    double endNs = 0.0;
    RequestTraceContext trace{};
    bool erred = false;      ///< a completion with a wrong result
    bool hedged = false;     ///< TraceOutcome::hedged
    bool failedOver = false; ///< TraceOutcome::failedOver
    /** Terminal instant name, overriding the kind's default. */
    const char *instant = nullptr;
};

/** Counting, SLO feed and tracing for one engine's requests. */
class RequestLedger
{
  public:
    /** Request traces render on process `trace_pid`. */
    explicit RequestLedger(int trace_pid) : tracePid_(trace_pid) {}

    /** Add the next tenant slot: its traces render on thread `tid`
     *  under a root span named `root_span`. */
    void addSlot(std::string root_span, int tid);

    /** The tracer that request traces open and close on (nullptr:
     *  none; not owned). */
    void setTracer(RequestTracer *tracer) { tracer_ = tracer; }

    /** Count one submission; opens its trace when traced. */
    RequestTraceContext submit(unsigned slot, double arrival_ns)
    {
        ++slots_[slot].counts.submitted;
        ++total_.submitted;
        return tracer_ != nullptr ? tracer_->begin(arrival_ns)
                                  : RequestTraceContext{};
    }

    /**
     * Count one terminal transition, buffer its SLO observation and,
     * when traced, close its trace.
     * @return true for a completion past its deadline.
     */
    bool finish(const RequestEnd &end);

    const LedgerCounts &counts(unsigned slot) const
    {
        return slots_[slot].counts;
    }
    const LedgerCounts &total() const { return total_; }

    /** SLO observations since the last call, in terminal order. */
    std::vector<SloObservation> takeSloObservations();

  private:
    struct Slot
    {
        std::string rootSpan;
        int tid = 0;
        LedgerCounts counts;
    };

    int tracePid_;
    std::vector<Slot> slots_;
    LedgerCounts total_;
    RequestTracer *tracer_ = nullptr;
    std::vector<SloObservation> sloObs_;
};

} // namespace pimsim::serve

#endif // PIMSIM_SERVE_REQUEST_LEDGER_H
