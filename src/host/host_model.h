/**
 * @file
 * Host-baseline kernel execution model.
 *
 * The HBM baseline runs the same workloads on the host processor. Time
 * per kernel is the maximum of three genuinely simulated/modelled terms:
 *
 *  1. DRAM streaming time — the kernel's miss traffic pushed through the
 *     same cycle-level controllers (with the streaming-kernel MLP),
 *  2. load-issue time — for unoptimised, latency-bound kernels such as
 *     the stock GEMV (Section VII-B: "GEMV provided by the software
 *     stack of the processor is not optimized to fully utilize the
 *     off-chip memory bandwidth"), limited by scalar-load throughput on
 *     the CUs the kernel can occupy,
 *  3. compute time — peak-FLOPs bound for dense kernels,
 *
 * plus the kernel-launch overhead. LLC miss rates come from a functional
 * cache simulation of the kernel's access trace.
 */

#ifndef PIMSIM_HOST_HOST_MODEL_H
#define PIMSIM_HOST_HOST_MODEL_H

#include <cstdint>
#include <map>
#include <tuple>

#include "mem/llc.h"
#include "sim/system.h"

namespace pimsim {

/** Result of one host kernel execution. */
struct HostKernelResult
{
    double ns = 0.0;
    double llcMissRate = 1.0;
    double dramNs = 0.0;    ///< simulated memory-stream component
    double issueNs = 0.0;   ///< load-issue-bound component
    double computeNs = 0.0; ///< FLOP-bound component
};

/** Host execution model bound to a system (used for the HBM baseline). */
class HostModel
{
  public:
    explicit HostModel(PimSystem &system);

    /**
     * Stock (unoptimised) GEMV/GEMM of one M x N weight matrix with
     * `batch` input columns, FP16. Results are memoised per shape.
     */
    HostKernelResult gemv(unsigned m, unsigned n, unsigned batch);

    /**
     * Streaming element-wise kernel touching `read_bytes` of input and
     * `write_bytes` of output once. Results are memoised per size.
     */
    HostKernelResult elementwise(std::uint64_t read_bytes,
                                 std::uint64_t write_bytes);

    /** Compute-bound kernel (convolutions). */
    HostKernelResult computeBound(double flops);

    /**
     * Simulate a sequential burst stream of `bytes` through the DRAM
     * system with the host's streaming MLP; returns nanoseconds.
     * `write_fraction` of the requests are writes. Results are memoised.
     */
    double simulateStreamNs(std::uint64_t bytes, double write_fraction);

    const HostConfig &config() const { return system_.config().host; }

  private:
    double launchNs() const { return config().kernelLaunchNs; }

    PimSystem &system_;
    std::map<std::pair<std::uint64_t, int>, double> streamCache_;
    // Whole-kernel memos: a kernel result is a pure function of its
    // shape (the stream times it reads are memoised too), and the app
    // models repeat shapes heavily (e.g. GNMT's 16 identical LSTMs).
    std::map<std::tuple<unsigned, unsigned, unsigned>, HostKernelResult>
        gemvCache_;
    std::map<std::pair<std::uint64_t, std::uint64_t>, HostKernelResult>
        elementwiseCache_;
};

} // namespace pimsim

#endif // PIMSIM_HOST_HOST_MODEL_H
