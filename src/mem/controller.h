/**
 * @file
 * Per-pseudo-channel memory controller.
 *
 * Implements an FR-FCFS scheduler with an open-page policy (Rixner et
 * al., the scheduling the paper's Section IV-C motivates AAM against),
 * write draining, and all-bank refresh. Ordered (PIM) requests are only
 * reorderable within a configurable window, modelling the AAM tolerance
 * of the GRF depth; window 1 is strict in-order, a huge window models the
 * fence-free in-order-capable controller studied in Section VII-B.
 */

#ifndef PIMSIM_MEM_CONTROLLER_H
#define PIMSIM_MEM_CONTROLLER_H

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "dram/pseudo_channel.h"
#include "mem/request.h"
#include "pim/pim_channel.h"
#include "reliability/mem_error.h"

namespace pimsim {

/** Scheduler and queue configuration. */
struct ControllerConfig
{
    /** Request queue capacity. */
    unsigned queueDepth = 96;
    /** FR-FCFS candidate window for unordered (host) requests. */
    unsigned reorderWindow = 48;
    /** Reorder window for ordered (PIM) requests; 1 = strict in-order.
     *  The default 8 models FR-FCFS reordering that AAM tolerates within
     *  one GRF window (Section IV-C). */
    unsigned orderedWindow = 8;
    /** Enable periodic all-bank refresh. */
    bool refreshEnabled = true;
    /** Close a row after this many idle cycles (0 = leave open). */
    unsigned rowIdleTimeout = 0;
    /** Enable the background ECC scrubber (patrol scrub). */
    bool scrubEnabled = false;
    /** Cycles between scrub steps. */
    Cycle scrubInterval = 50000;
    /** Bursts checked per scrub step (when the controller is idle). */
    unsigned scrubBurstsPerStep = 8;
};

/**
 * One pseudo channel's controller, device, and (optionally) PIM logic.
 */
class MemoryController
{
  public:
    /**
     * @param with_pim  attach PIM execution units to the channel
     *                  (a PIM-HBM device vs a standard HBM device)
     */
    MemoryController(const HbmGeometry &geom, const HbmTiming &timing,
                     const ControllerConfig &config, bool with_pim,
                     const PimConfig &pim_config);

    /** True if another request can be accepted. */
    bool canEnqueue() const { return queue_.size() < config_.queueDepth; }

    /** Enqueue a request; the caller must have checked canEnqueue(). */
    void enqueue(const MemRequest &request);

    /**
     * Advance the controller at cycle `now`: issue at most one command.
     * @return the next cycle at which calling tick could make progress
     *         (kNoCycle when fully idle).
     */
    Cycle tick(Cycle now);

    /** All requests completed on or before `now` (destructive drain). */
    std::vector<MemResponse> drainResponses(Cycle now);

    /**
     * True iff no queued requests remain and every response has reached
     * its completion time (i.e. nothing needs further simulation —
     * completed responses may still await draining by the issuer).
     */
    bool idle(Cycle now) const
    {
        if (!queue_.empty())
            return false;
        for (const auto &r : pendingResponses_) {
            if (r.completion > now)
                return false;
        }
        return true;
    }

    /** Number of requests waiting in the queue. */
    std::size_t queuedRequests() const { return queue_.size(); }

    PseudoChannel &channel() { return *channel_; }
    const PseudoChannel &channel() const { return *channel_; }

    /** The PIM side of this channel (nullptr on a plain HBM device). */
    PimChannel *pim() { return pimChannel_.get(); }
    const PimChannel *pim() const { return pimChannel_.get(); }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    const ControllerConfig &config() const { return config_; }

    /** Override the ordered-request reorder window (fence study). */
    void setOrderedWindow(unsigned window) { config_.orderedWindow = window; }

    /**
     * Attach the system error log. Installs a DataStore hook so every
     * ECC event on a demand access (host RD or PIM operand fetch) is
     * recorded as a machine-check-style event attributed to `channel`.
     */
    void setErrorSink(MemErrorLog *log, unsigned channel);

    /**
     * Run the patrol scrubber if a scrub step is due at `now`. Walks
     * allocated rows burst by burst, repairing correctable faults in
     * place; runs only while the request queue is empty (idle cycles),
     * deferring one interval otherwise.
     *
     * @return the cycle of the next due scrub step (kNoCycle when
     *         scrubbing is disabled).
     */
    Cycle scrubTick(Cycle now);

    /** Next cycle a scrub step wants to run (kNoCycle when disabled). */
    Cycle nextScrubDue() const
    {
        return config_.scrubEnabled ? nextScrub_ : kNoCycle;
    }

    /** Enable/disable scrubbing at runtime (benchmark sweeps). The
     *  scrubber reads stored code words, so a timing-only channel
     *  refuses it. */
    void setScrubEnabled(bool enabled);

  private:
    struct Queued
    {
        MemRequest request;
        Cycle arrival;
        /** Set when the request needed a PRE/ACT (row-buffer miss). */
        bool rowMissed = false;
    };

    /** The command a queued request needs next, given bank state. */
    Command nextCommandFor(const Queued &entry) const;

    /** True if the request's target row is open (column command ready). */
    bool isRowHit(const Queued &entry) const;

    /** Pick the queue index to serve next (FR-FCFS). */
    std::optional<std::size_t> pickCandidate() const;

    Cycle refreshTick(Cycle now);
    /** Opportunistic PRE/ACT for a pending row-miss (host requests). */
    Cycle rowPrepTick(Cycle now, std::size_t chosen);
    void completeRequest(const Queued &entry, const IssueResult &result,
                         Cycle now);

    HbmGeometry geom_;
    HbmTiming timing_;
    ControllerConfig config_;
    std::unique_ptr<PseudoChannel> channel_;
    std::unique_ptr<PimChannel> pimChannel_;

    std::deque<Queued> queue_;
    std::vector<MemResponse> pendingResponses_;

    Cycle nextRefresh_;
    bool refreshing_ = false;
    /** Direction of the last issued column command (streak scheduling). */
    bool lastColWasWrite_ = false;

    // Reliability: error reporting and patrol scrub state.
    MemErrorLog *errorLog_ = nullptr;
    unsigned channelId_ = 0;
    /** Cycle stamp applied to error events raised from inside tick(). */
    Cycle lastNow_ = 0;
    Cycle nextScrub_;
    /** Flat (row-index * colsPerRow + col) scrub cursor. */
    std::size_t scrubPos_ = 0;

    StatGroup stats_;
};

} // namespace pimsim

#endif // PIMSIM_MEM_CONTROLLER_H
