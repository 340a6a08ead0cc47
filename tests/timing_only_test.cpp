/**
 * @file
 * Differential tests of timing-only mode (PimSystem::setTimingOnly)
 * against functional mode: the same workload on a functional and on a
 * timing-only twin system must give bit-identical times, identical
 * command/fence/activity counts and identical device counters. Also
 * checks that every consumer needing data refuses a timing-only system.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "common/rng.h"
#include "reliability/fault_injector.h"
#include "reliability/sdc_monitor.h"
#include "serve/service_model.h"
#include "stack/app_runner.h"
#include "stack/workloads.h"

namespace pimsim {
namespace {

constexpr unsigned kBatches[] = {1, 2, 4};

/** Full text dump of every registered counter and derived scalar. */
std::string
statsDump(PimSystem &system)
{
    std::ostringstream os;
    system.dumpStats(os);
    return os.str();
}

Fp16Vector
randomVector(Rng &rng, std::size_t size)
{
    Fp16Vector v(size);
    for (auto &x : v)
        x = rng.nextFp16();
    return v;
}

void
expectSameTiming(const BlasTiming &f, const BlasTiming &t,
                 const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(f.ns, t.ns);
    EXPECT_EQ(f.readbackNs, t.readbackNs);
    EXPECT_EQ(f.totalNs(), t.totalNs());
    EXPECT_EQ(f.commands, t.commands);
    EXPECT_EQ(f.fences, t.fences);
    EXPECT_EQ(f.acts, t.acts);
    EXPECT_EQ(f.pimTriggers, t.pimTriggers);
    EXPECT_EQ(f.pimBankAccesses, t.pimBankAccesses);
    EXPECT_EQ(f.pimOps, t.pimOps);
    EXPECT_EQ(f.retries, t.retries);
    EXPECT_EQ(f.hostFallback, t.hostFallback);
    EXPECT_EQ(f.eccCorrected, t.eccCorrected);
    EXPECT_EQ(f.eccUncorrectable, t.eccUncorrectable);
}

void
expectSameRun(const AppRunResult &f, const AppRunResult &t,
              const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(f.ns, t.ns);
    EXPECT_EQ(f.hostNs, t.hostNs);
    EXPECT_EQ(f.pimNs, t.pimNs);
    EXPECT_EQ(f.launchNs, t.launchNs);
    EXPECT_EQ(f.kernelLaunches, t.kernelLaunches);
    EXPECT_EQ(f.avgLlcMissRate, t.avgLlcMissRate);
    EXPECT_EQ(f.hostDramBytes, t.hostDramBytes);
    EXPECT_EQ(f.acts, t.acts);
    EXPECT_EQ(f.pimTriggers, t.pimTriggers);
    EXPECT_EQ(f.pimBankAccesses, t.pimBankAccesses);
    EXPECT_EQ(f.pimOps, t.pimOps);
    EXPECT_EQ(f.pimCommands, t.pimCommands);
    EXPECT_EQ(f.pimFences, t.pimFences);
    EXPECT_EQ(f.pimRetries, t.pimRetries);
    EXPECT_EQ(f.hostFallbacks, t.hostFallbacks);
}

/** One system plus the stack AppRunner drives, in either mode. */
struct Stack
{
    Stack(const SystemConfig &config, bool timing_only) : system(config)
    {
        system.setTimingOnly(timing_only);
        host = std::make_unique<HostModel>(system);
        if (config.withPim())
            blas = std::make_unique<PimBlas>(system);
        runner = std::make_unique<AppRunner>(*host, blas.get());
    }

    PimSystem system;
    std::unique_ptr<HostModel> host;
    std::unique_ptr<PimBlas> blas;
    std::unique_ptr<AppRunner> runner;
};

SystemConfig
smallPimSystem()
{
    SystemConfig c = SystemConfig::pimHbmSystem();
    c.numStacks = 1;
    c.geometry.pchPerStack = 2;
    return c;
}

TEST(TimingOnly, BlasShapeCallsMatchDataCalls)
{
    // Direct PIM-BLAS calls; AppRunner drives the full shape set below.
    const SystemConfig config = smallPimSystem();
    Stack func(config, false);
    Stack timed(config, true);
    Rng rng(0x7157);
    const std::pair<unsigned, unsigned> gemvs[] = {
        {64, 128}, {100, 300}, {1024, 256}};
    for (const auto &[m, n] : gemvs) {
        const Fp16Vector w = randomVector(rng, std::size_t{m} * n);
        const Fp16Vector x = randomVector(rng, n);
        Fp16Vector y;
        expectSameTiming(func.blas->gemv(w, m, n, x, y),
                         timed.blas->gemvShape(m, n),
                         "gemv m" + std::to_string(m) + " n" +
                             std::to_string(n));
    }
    for (const std::uint64_t elements : {100u, 4096u, 70000u}) {
        const Fp16Vector a = randomVector(rng, elements);
        const Fp16Vector b = randomVector(rng, elements);
        const Fp16Vector gamma = randomVector(rng, 8);
        const Fp16Vector beta = randomVector(rng, 8);
        Fp16Vector out;
        const std::string n = " n" + std::to_string(elements);
        expectSameTiming(func.blas->add(a, b, out),
                         timed.blas->addShape(elements), "add" + n);
        expectSameTiming(func.blas->bn(a, gamma, beta, out),
                         timed.blas->bnShape(elements), "bn" + n);
    }
    EXPECT_EQ(func.system.now(), timed.system.now());
    EXPECT_EQ(statsDump(func.system), statsDump(timed.system));
    // Timing-only really kept no data.
    for (unsigned ch = 0; ch < timed.system.numChannels(); ++ch) {
        EXPECT_EQ(
            timed.system.controller(ch).channel().dataStore().allocatedBytes(),
            0u);
    }
}

/**
 * Run every Table VI micro (micros) or every application (apps) at
 * B1/B2/B4 on a functional and a timing-only twin and compare each
 * result, then the twins' clocks and full stats dumps.
 */
void
expectAppRunnerMatch(const SystemConfig &config, bool micros)
{
    Stack func(config, false);
    Stack timed(config, true);
    if (micros) {
        for (const MicroSpec &micro : table6Microbenchmarks()) {
            for (unsigned b : kBatches) {
                expectSameRun(func.runner->runMicro(micro, b),
                              timed.runner->runMicro(micro, b),
                              micro.name + " b" + std::to_string(b));
            }
        }
    } else {
        for (const AppSpec &app : allApps()) {
            for (unsigned b : kBatches) {
                expectSameRun(func.runner->runApp(app, b),
                              timed.runner->runApp(app, b),
                              app.name + " b" + std::to_string(b));
            }
        }
    }
    EXPECT_EQ(func.system.now(), timed.system.now());
    EXPECT_EQ(statsDump(func.system), statsDump(timed.system));
}

TEST(TimingOnly, MicrosMatchFunctionalOnPimHbm)
{
    expectAppRunnerMatch(SystemConfig::pimHbmSystem(), true);
}

TEST(TimingOnly, AppsMatchFunctionalOnPimHbm)
{
    expectAppRunnerMatch(SystemConfig::pimHbmSystem(), false);
}

TEST(TimingOnly, MicrosMatchFunctionalOnHbm)
{
    expectAppRunnerMatch(SystemConfig::hbmSystem(), true);
}

TEST(TimingOnly, AppsMatchFunctionalOnHbm)
{
    expectAppRunnerMatch(SystemConfig::hbmSystem(), false);
}

AppSpec
fcApp()
{
    LayerSpec fc;
    fc.kind = LayerSpec::Kind::Fc;
    fc.hidden = 256;
    fc.input = 512;
    return AppSpec{"FC", {fc, fc}};
}

TEST(TimingOnly, ServiceModelsMatchFunctional)
{
    const AppSpec apps[] = {gnmtApp(), ds2App(), fcApp()};
    const SystemConfig base = SystemConfig::pimHbmSystem();
    for (unsigned channels : {1u, 2u, 4u, 8u, 16u}) {
        // The shard system ShardServiceModel measures on.
        SystemConfig shard = base;
        if (channels >= shard.geometry.pchPerStack) {
            shard.numStacks = channels / shard.geometry.pchPerStack;
        } else {
            shard.numStacks = 1;
            shard.geometry.pchPerStack = channels;
        }
        ASSERT_EQ(shard.numChannels(), channels);
        Stack func(shard, false);
        serve::ShardServiceModel model(base, channels, nullptr);
        for (const AppSpec &app : apps) {
            for (unsigned b = 1; b <= 4; ++b) {
                SCOPED_TRACE(std::to_string(channels) + " ch " + app.name +
                             " b" + std::to_string(b));
                EXPECT_EQ(func.runner->runApp(app, b).ns,
                          model.serviceNs(app, b));
            }
        }
    }

    SystemConfig host_config = base;
    host_config.kind = MemoryKind::Hbm;
    Stack func(host_config, false);
    serve::HostFallbackModel host(base, nullptr);
    for (const AppSpec &app : apps) {
        for (unsigned b = 1; b <= 4; ++b) {
            SCOPED_TRACE("host " + app.name + " b" + std::to_string(b));
            EXPECT_EQ(func.runner->runApp(app, b).ns,
                      host.serviceNs(app, b));
        }
    }
}

// ---------- Consumers that need data refuse a timing-only system ----

TEST(TimingOnlyDeathTest, FaultInjectorRefusesTimingOnly)
{
    PimSystem system(smallPimSystem());
    system.setTimingOnly(true);
    FaultRates rates;
    rates.dramTransient = 1.0;
    EXPECT_DEATH(FaultInjector(system, rates, 1), "timing-only");
}

TEST(TimingOnlyDeathTest, FaultInjectorStepRefusesLateTimingOnly)
{
    PimSystem system(smallPimSystem());
    FaultInjector injector(system, FaultRates{}, 1);
    system.setTimingOnly(true);
    EXPECT_DEATH(injector.step(), "timing-only");
}

TEST(TimingOnlyDeathTest, SdcMonitorRefusesTimingOnly)
{
    PimSystem system(smallPimSystem());
    system.setTimingOnly(true);
    PimBlas blas(system);
    SdcMonitor monitor(system.numChannels(),
                       system.config().pim.unitsPerPch, SdcMonitorConfig{});
    EXPECT_DEATH(blas.setSdcMonitor(&monitor), "timing-only");
}

TEST(TimingOnlyDeathTest, AbftRefusesTimingOnly)
{
    PimSystem system(smallPimSystem());
    system.setTimingOnly(true);
    PimBlas blas(system);
    EXPECT_DEATH(blas.setAbft(true), "timing-only");
}

TEST(TimingOnlyDeathTest, AbftSetBeforeTimingOnlyFailsTheShapeCall)
{
    PimSystem system(smallPimSystem());
    PimBlas blas(system);
    blas.setAbft(true);
    system.setTimingOnly(true);
    EXPECT_DEATH(blas.gemvShape(64, 128), "timing-only");
}

TEST(TimingOnlyDeathTest, ScrubberRefusesTimingOnly)
{
    PimSystem system(smallPimSystem());
    system.setTimingOnly(true);
    EXPECT_DEATH(system.controller(0).setScrubEnabled(true), "timing-only");

    SystemConfig scrubbed = smallPimSystem();
    scrubbed.controller.scrubEnabled = true;
    PimSystem with_scrub(scrubbed);
    EXPECT_DEATH(with_scrub.setTimingOnly(true), "timing-only");
}

TEST(TimingOnlyDeathTest, DataCallsRefuseTimingOnly)
{
    PimSystem system(smallPimSystem());
    system.setTimingOnly(true);
    PimBlas blas(system);
    const Fp16Vector a(64, Fp16(1.0f));
    Fp16Vector out;
    EXPECT_DEATH(blas.add(a, a, out), "timing-only");
}

TEST(TimingOnlyDeathTest, ShapeCallsRefuseFunctional)
{
    PimSystem system(smallPimSystem());
    PimBlas blas(system);
    EXPECT_DEATH(blas.addShape(64), "timing-only");
}

TEST(TimingOnlyDeathTest, ModeIsChosenBeforeTraffic)
{
    PimSystem system(smallPimSystem());
    system.advance(10);
    EXPECT_DEATH(system.setTimingOnly(true), "before any traffic");
}

} // namespace
} // namespace pimsim
