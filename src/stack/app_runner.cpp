#include "stack/app_runner.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "common/trace.h"
#include "stack/reference.h"

namespace pimsim {


namespace {

const char *
layerKindName(LayerSpec::Kind kind)
{
    switch (kind) {
      case LayerSpec::Kind::Conv:
        return "conv";
      case LayerSpec::Kind::Lstm:
        return "lstm";
      case LayerSpec::Kind::Fc:
        return "fc";
      case LayerSpec::Kind::Residual:
        return "residual";
      case LayerSpec::Kind::BatchNorm:
        return "bn";
    }
    return "?";
}

/** Accumulate a kernel's device activity, repeated `times`, into acc. */
void
accumulatePimActivity(AppRunResult &acc, const BlasTiming &t, double times)
{
    acc.acts += static_cast<std::uint64_t>(t.acts * times);
    acc.pimTriggers += static_cast<std::uint64_t>(t.pimTriggers * times);
    acc.pimBankAccesses +=
        static_cast<std::uint64_t>(t.pimBankAccesses * times);
    acc.pimOps += static_cast<std::uint64_t>(t.pimOps * times);
    acc.pimCommands += static_cast<std::uint64_t>(t.commands * times);
    acc.pimFences += static_cast<std::uint64_t>(t.fences * times);
    // Reliability outcomes are per-call facts, not rates: count them once
    // per distinct kernel execution rather than scaling by repetitions
    // (memoised replays of a timing do not re-run the device).
    acc.pimRetries += t.retries;
    acc.hostFallbacks += t.hostFallback ? 1 : 0;
    acc.eccCorrected += t.eccCorrected;
    acc.eccUncorrectable += t.eccUncorrectable;
}

} // namespace

AppRunner::AppRunner(HostModel &host, PimBlas *blas)
    : host_(host), blas_(blas)
{
}

BlasTiming
AppRunner::pimGemv(unsigned m, unsigned n)
{
    const auto key = std::make_pair(m, n);
    const auto it = gemvCache_.find(key);
    if (it != gemvCache_.end())
        return it->second;

    // Execute the real command-level kernel once; the timing of
    // subsequent identical shapes is identical (deterministic latency is
    // the PIM architecture's core property). A timing-only system runs
    // it shape-only; a functional one on random data.
    if (blas_->system().timingOnly())
        return gemvCache_[key] = blas_->gemvShape(m, n);
    Rng rng(0x9e3779b9u ^ (std::uint64_t{m} << 20) ^ n);
    Fp16Vector w(std::size_t{m} * n);
    for (auto &v : w)
        v = rng.nextFp16();
    Fp16Vector x(n);
    for (auto &v : x)
        v = rng.nextFp16();
    Fp16Vector y;
    const BlasTiming t = blas_->gemv(w, m, n, x, y);
    gemvCache_[key] = t;
    return t;
}

BlasTiming
AppRunner::pimElementwise(MicroKind kind, std::uint64_t elements)
{
    const auto key =
        std::make_pair(static_cast<int>(kind), elements);
    const auto it = elemCache_.find(key);
    if (it != elemCache_.end())
        return it->second;

    if (blas_->system().timingOnly()) {
        return elemCache_[key] = kind == MicroKind::Add
                                     ? blas_->addShape(elements)
                                     : blas_->bnShape(elements);
    }
    Rng rng(0xc0ffee ^ elements);
    Fp16Vector a(elements);
    for (auto &v : a)
        v = rng.nextFp16();
    Fp16Vector out;
    BlasTiming t;
    if (kind == MicroKind::Add) {
        Fp16Vector b(elements);
        for (auto &v : b)
            v = rng.nextFp16();
        t = blas_->add(a, b, out);
    } else {
        Fp16Vector gamma(8), beta(8);
        for (auto &v : gamma)
            v = rng.nextFp16();
        for (auto &v : beta)
            v = rng.nextFp16();
        t = blas_->bn(a, gamma, beta, out);
    }
    elemCache_[key] = t;
    return t;
}

void
AppRunner::runLayer(const LayerSpec &layer, unsigned batch,
                    AppRunResult &acc)
{
    const double launch_ns = host_.config().kernelLaunchNs;
    const bool pim = usesPim() && layer.pimEligible;

    switch (layer.kind) {
      case LayerSpec::Kind::Conv: {
        // Compute-bound: identical on both systems.
        const auto r = host_.computeBound(layer.flops * batch);
        acc.hostDramBytes += layer.flops * batch * 0.005; // high reuse
        acc.hostNs += r.ns;
        acc.ns += r.ns;
        acc.launchNs += launch_ns;
        acc.kernelLaunches += 1;
        acc.avgLlcMissRate += r.llcMissRate;
        break;
      }

      case LayerSpec::Kind::Lstm: {
        // Fused gate GEMV per step: gates = W [x_t ; h_{t-1}] with
        // W of shape (4H x (In + H)).
        const unsigned m = 4 * layer.hidden;
        const unsigned n = layer.input + layer.hidden;
        // Per-step host-side gate math (sigmoid/tanh + eltwise): small,
        // cache-resident.
        const double gate_flops = 10.0 * layer.hidden;

        if (pim) {
            const BlasTiming g = pimGemv(m, n);
            // The recurrent dependence forces one kernel invocation per
            // step; encoder-style layers with all inputs available let
            // the runtime pre-stage command buffers and amortise the
            // host-side launch across steps (Section VII-B's
            // encoder/decoder asymmetry).
            // Decoder-style layers launch several PIM kernels per step
            // (gate GEMV, attention score/context GEMVs, output sync)
            // and cannot pre-stage command buffers; encoder-style layers
            // amortise dispatch across pre-staged steps (Section VII-B).
            const double launches =
                layer.inputsAvailable
                    ? std::max(1.0, layer.steps / 8.0)
                    : static_cast<double>(layer.steps) * 12.0;
            const double kernel_ns =
                static_cast<double>(layer.steps) * batch * g.totalNs();
            const double gate_ns =
                layer.steps * batch *
                (gate_flops /
                 (host_.config().peakFlops() *
                  host_.config().computeEfficiency) *
                 1e9);
            acc.pimNs += kernel_ns + gate_ns;
            acc.launchNs += launches * launch_ns;
            acc.kernelLaunches += static_cast<std::uint64_t>(launches);
            acc.ns += kernel_ns + gate_ns + launches * launch_ns;
            accumulatePimActivity(acc, g,
                                  static_cast<double>(layer.steps) * batch);
        } else {
            const auto r = host_.gemv(m, n, batch);
            const double step_ns = r.ns; // includes one launch
            acc.hostDramBytes += 2.0 * m * n * layer.steps;
            acc.hostNs += layer.steps * step_ns;
            acc.ns += layer.steps * step_ns;
            acc.launchNs += layer.steps * launch_ns;
            acc.kernelLaunches += layer.steps;
            acc.avgLlcMissRate += r.llcMissRate;
        }
        break;
      }

      case LayerSpec::Kind::Fc: {
        const unsigned m = layer.hidden;
        const unsigned n = layer.input;
        if (pim) {
            const BlasTiming g = pimGemv(m, n);
            const double launches =
                layer.inputsAvailable
                    ? std::max(1.0, layer.steps / 8.0)
                    : static_cast<double>(layer.steps) * 12.0;
            const double kernel_ns =
                static_cast<double>(layer.steps) * batch * g.totalNs();
            acc.pimNs += kernel_ns;
            acc.launchNs += launches * launch_ns;
            acc.kernelLaunches += static_cast<std::uint64_t>(launches);
            acc.ns += kernel_ns + launches * launch_ns;
            accumulatePimActivity(acc, g,
                                  static_cast<double>(layer.steps) * batch);
        } else {
            const auto r = host_.gemv(m, n, batch);
            acc.hostDramBytes += 2.0 * m * n * layer.steps;
            acc.hostNs += layer.steps * r.ns;
            acc.ns += layer.steps * r.ns;
            acc.launchNs += layer.steps * launch_ns;
            acc.kernelLaunches += layer.steps;
            acc.avgLlcMissRate += r.llcMissRate;
        }
        break;
      }

      case LayerSpec::Kind::Residual:
      case LayerSpec::Kind::BatchNorm: {
        const std::uint64_t elems = layer.elements * batch;
        if (pim) {
            const BlasTiming t = pimElementwise(
                layer.kind == LayerSpec::Kind::Residual ? MicroKind::Add
                                                        : MicroKind::Bn,
                elems);
            acc.pimNs += layer.steps * t.totalNs();
            acc.launchNs += layer.steps * launch_ns;
            acc.kernelLaunches += layer.steps;
            acc.ns += layer.steps * (t.totalNs() + launch_ns);
            accumulatePimActivity(acc, t, layer.steps);
        } else {
            const std::uint64_t bytes_in =
                2 * elems *
                (layer.kind == LayerSpec::Kind::Residual ? 2 : 1);
            const auto r = host_.elementwise(bytes_in, 2 * elems);
            acc.hostDramBytes +=
                static_cast<double>(bytes_in + 2 * elems) * layer.steps;
            acc.hostNs += layer.steps * r.ns;
            acc.ns += layer.steps * r.ns;
            acc.launchNs += layer.steps * launch_ns;
            acc.kernelLaunches += layer.steps;
            acc.avgLlcMissRate += r.llcMissRate;
        }
        break;
      }
    }
}

AppRunResult
AppRunner::runApp(const AppSpec &app, unsigned batch)
{
    AppRunResult acc;
    const double app_start = traceCursorNs_;
    unsigned host_layers = 0;
    unsigned index = 0;
    for (const auto &layer : app.layers) {
        const double before = acc.avgLlcMissRate;
        const double ns_before = acc.ns;
        runLayer(layer, batch, acc);
        if (acc.avgLlcMissRate != before)
            ++host_layers;
        if (trace_) {
            const bool pim = usesPim() && layer.pimEligible;
            trace_->span(kTracePidRuntime, 0,
                         std::string(layerKindName(layer.kind)) + "[" +
                             std::to_string(index) + "]",
                         pim ? "layer-pim" : "layer-host",
                         app_start + ns_before, acc.ns - ns_before);
        }
        ++index;
    }
    if (host_layers)
        acc.avgLlcMissRate /= host_layers;
    if (trace_) {
        trace_->setProcessName(kTracePidRuntime, "runtime");
        trace_->setThreadName(kTracePidRuntime, 0, "app-layers");
        trace_->span(kTracePidRuntime, 0,
                     app.name + " b" + std::to_string(batch), "app",
                     app_start, acc.ns);
        traceCursorNs_ = app_start + acc.ns;
    }
    return acc;
}

AppRunResult
AppRunner::runMicro(const MicroSpec &micro, unsigned batch)
{
    AppRunResult acc;
    const double launch_ns = host_.config().kernelLaunchNs;
    switch (micro.kind) {
      case MicroKind::Gemv: {
        if (usesPim()) {
            const BlasTiming t = pimGemv(micro.m, micro.n);
            acc.pimNs = batch * t.totalNs();
            acc.ns = acc.pimNs + launch_ns;
            accumulatePimActivity(acc, t, batch);
        } else {
            const auto r = host_.gemv(micro.m, micro.n, batch);
            acc.hostDramBytes += 2.0 * micro.m * micro.n;
            acc.hostNs = r.ns;
            acc.ns = r.ns;
            acc.avgLlcMissRate = r.llcMissRate;
        }
        acc.kernelLaunches = 1;
        acc.launchNs = launch_ns;
        break;
      }
      case MicroKind::Add:
      case MicroKind::Bn: {
        const std::uint64_t elems = micro.elements * batch;
        if (usesPim()) {
            const BlasTiming t = pimElementwise(micro.kind, elems);
            acc.pimNs = t.totalNs();
            acc.ns = acc.pimNs + launch_ns;
            accumulatePimActivity(acc, t, 1.0);
        } else {
            const std::uint64_t in_bytes =
                2 * elems * (micro.kind == MicroKind::Add ? 2 : 1);
            const auto r = host_.elementwise(in_bytes, 2 * elems);
            acc.hostDramBytes += static_cast<double>(in_bytes + 2 * elems);
            acc.hostNs = r.ns;
            acc.ns = r.ns;
            acc.avgLlcMissRate = r.llcMissRate;
        }
        acc.kernelLaunches = 1;
        acc.launchNs = launch_ns;
        break;
      }
    }
    if (trace_) {
        trace_->setProcessName(kTracePidRuntime, "runtime");
        trace_->setThreadName(kTracePidRuntime, 0, "app-layers");
        trace_->span(kTracePidRuntime, 0,
                     micro.name + " b" + std::to_string(batch), "micro",
                     traceCursorNs_, acc.ns);
        traceCursorNs_ += acc.ns;
    }
    return acc;
}

} // namespace pimsim
