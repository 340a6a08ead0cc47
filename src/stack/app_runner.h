/**
 * @file
 * End-to-end application execution (the paper's Fig. 10/12 experiments).
 *
 * The runner plays an AppSpec's layers through either the host baseline
 * (HostModel on an HBM system) or the PIM path (PIM-eligible layers run
 * through PIM BLAS on the cycle simulator; everything else stays on the
 * host). Per-kernel launch overheads and encoder/decoder call batching
 * follow Section VII-B's discussion of why GNMT gains less than DS2.
 */

#ifndef PIMSIM_STACK_APP_RUNNER_H
#define PIMSIM_STACK_APP_RUNNER_H

#include <map>
#include <string>

#include "host/host_model.h"
#include "stack/blas.h"
#include "stack/workloads.h"

namespace pimsim {

class TraceSession;

/** Result of one end-to-end application run. */
struct AppRunResult
{
    double ns = 0.0;
    double hostNs = 0.0;      ///< time spent in host-executed layers
    double pimNs = 0.0;       ///< time spent in PIM-executed kernels
    double launchNs = 0.0;    ///< kernel-launch overhead included in ns
    std::uint64_t kernelLaunches = 0;
    double avgLlcMissRate = 0.0; ///< access-weighted host LLC miss rate

    // Energy-model inputs accumulated over the run.
    double hostDramBytes = 0.0;     ///< host-path DRAM traffic
    std::uint64_t acts = 0;         ///< bank activations (PIM kernels)
    std::uint64_t pimTriggers = 0;  ///< AB-PIM column commands
    std::uint64_t pimBankAccesses = 0;
    std::uint64_t pimOps = 0;
    std::uint64_t pimCommands = 0;  ///< DRAM requests of PIM kernels
    std::uint64_t pimFences = 0;    ///< barriers of PIM kernels

    // Reliability outcomes aggregated over all PIM kernels in the run.
    std::uint64_t pimRetries = 0;       ///< kernel re-executions
    std::uint64_t hostFallbacks = 0;    ///< kernels recomputed on the host
    std::uint64_t eccCorrected = 0;     ///< ECC single-bit corrections
    std::uint64_t eccUncorrectable = 0; ///< uncorrectable ECC events
};

/** Executes applications and microbenchmarks on one system. */
class AppRunner
{
  public:
    /**
     * @param host  host model bound to the system (always required)
     * @param blas  PIM BLAS bound to the same system, or nullptr for
     *              the HBM baseline
     */
    AppRunner(HostModel &host, PimBlas *blas);

    /** Run one application end to end at the given batch size. */
    AppRunResult runApp(const AppSpec &app, unsigned batch);

    /** Run one Table VI microbenchmark; returns time in ns. */
    AppRunResult runMicro(const MicroSpec &micro, unsigned batch);

    bool usesPim() const { return blas_ != nullptr; }

    /**
     * Record application/layer spans on the runtime track of a Chrome-
     * trace session (nullptr disables). Successive runs append on a
     * monotonically advancing virtual timeline.
     */
    void setTrace(TraceSession *session) { trace_ = session; }

  private:
    /** Timed PIM GEMV for a shape, memoised (weights are resident). */
    BlasTiming pimGemv(unsigned m, unsigned n);
    /** Timed PIM element-wise op of a length, memoised. */
    BlasTiming pimElementwise(MicroKind kind, std::uint64_t elements);

    void runLayer(const LayerSpec &layer, unsigned batch,
                  AppRunResult &acc);

    HostModel &host_;
    PimBlas *blas_;
    TraceSession *trace_ = nullptr;
    /** Virtual-time cursor for the runtime track (ns). */
    double traceCursorNs_ = 0.0;

    std::map<std::pair<unsigned, unsigned>, BlasTiming> gemvCache_;
    std::map<std::pair<int, std::uint64_t>, BlasTiming> elemCache_;
};

} // namespace pimsim

#endif // PIMSIM_STACK_APP_RUNNER_H
