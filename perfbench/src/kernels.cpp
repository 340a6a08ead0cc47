/**
 * @file
 * `kernels`: the paper's device path, functional, on 2 simulator threads.
 *
 * One round runs a Table VI / application subset through AppRunner on
 * the PIM-HBM and HBM systems, direct HostModel calls on the HBM
 * baseline, direct PimBlas GEMV/ADD calls on seeded FP16 data, and a raw
 * read/write stream through PimSystem under a seeded FaultInjector
 * campaign. Every system is built fresh per round so no memo carries
 * simulated work from one round into the next. The serving, LLM and
 * cluster event loops and trace export are never called.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <sstream>
#include <tuple>

#include "host/host_model.h"
#include "perfbench.h"
#include "reliability/fault_injector.h"
#include "sim/system.h"
#include "stack/app_runner.h"
#include "stack/blas.h"
#include "stack/reference.h"
#include "stack/workloads.h"

namespace perfbench {
namespace {

using namespace pimsim;

constexpr unsigned kThreads = 2;
/** Raw-stream requests per operation. */
constexpr std::size_t kStreamBatch = 1024;

/** A system with its host model, PIM BLAS (PIM-HBM only) and runner. */
struct Device
{
    std::unique_ptr<PimSystem> system;
    std::unique_ptr<HostModel> host;
    std::unique_ptr<PimBlas> blas;
    std::unique_ptr<AppRunner> runner;

    explicit Device(const SystemConfig &config)
        : system(std::make_unique<PimSystem>(config))
    {
        system->setThreads(kThreads);
        host = std::make_unique<HostModel>(*system);
        if (config.withPim())
            blas = std::make_unique<PimBlas>(*system);
        runner = std::make_unique<AppRunner>(*host, blas.get());
    }
};

/** One AppRunner call: a microbenchmark or an application at a batch. */
struct AppCall
{
    std::string name;
    const MicroSpec *micro = nullptr;
    const AppSpec *app = nullptr;
    unsigned batch = 1;
    bool pim = false;
    AppRunResult result;
};

struct GemvCall
{
    unsigned m = 0, n = 0;
    Fp16Vector w, x, y;
    BlasTiming timing;
};

struct AddCall
{
    Fp16Vector a, b, out;
    BlasTiming timing;
};

/** One raw-stream request and what came back for it. */
struct StreamReq
{
    unsigned ch = 0, bank = 0, row = 0, col = 0;
    bool write = false;
    bool answered = false;
    EccStatus ecc = EccStatus::Ok;
    Burst data{};
};

/** Paper B1 speedups (EXPERIMENTS.md, Fig. 10 "paper B1" column). */
double
paperB1(const std::string &name)
{
    if (name == "GEMV1")
        return 11.2;
    if (name == "ADD1")
        return 1.6;
    if (name == "GNMT")
        return 1.5;
    if (name == "DS2")
        return 3.5;
    return 0.0;
}

Fp16Vector
randomVector(Rng &rng, std::size_t n)
{
    Fp16Vector v(n);
    for (auto &x : v)
        x = rng.nextFp16();
    return v;
}

bool
bitEqual(const Fp16Vector &a, const Fp16Vector &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].bits() != b[i].bits())
            return false;
    }
    return true;
}

bool
positiveFinite(double ns)
{
    return std::isfinite(ns) && ns > 0.0;
}

class Kernels : public Workload
{
  public:
    explicit Kernels(const Options &o) : o_(o)
    {
        if (o.smoke) {
            micros_ = {{"GEMVs", MicroKind::Gemv, 128, 512, 0},
                       {"ADDs", MicroKind::Add, 0, 0, 1u << 14}};
            LayerSpec fc;
            fc.kind = LayerSpec::Kind::Fc;
            fc.hidden = 256;
            fc.input = 256;
            apps_ = {AppSpec{"FCs", {fc}}};
            gemvShapes_ = {{64, 256}};
            addLengths_ = {4096};
            hostGemvs_ = {{256, 256, 1}};
            hostStreamBytes_ = {1u << 16};
            streamChannels_ = 4;
            streamBanks_ = 2;
            streamRows_ = 2;
            injectSteps_ = 4;
        } else {
            for (const MicroSpec &m : table6Microbenchmarks()) {
                if (m.name == "GEMV1" || m.name == "ADD1")
                    micros_.push_back(m);
            }
            apps_ = {gnmtApp(), ds2App()};
            gemvShapes_ = {{256, 1024}, {512, 2048}, {1000, 700}};
            addLengths_ = {65536, 200003};
            hostGemvs_ = {{2048, 2048, 1}, {2048, 2048, 4}};
            hostStreamBytes_ = {1u << 21};
            streamChannels_ = 16;
            streamBanks_ = 4;
            streamRows_ = 8;
            injectSteps_ = 16;
        }
    }

    unsigned simThreads() const override { return kThreads; }
    const char *opName() const override
    {
        return "one device-path call: AppRunner run, HostModel call, "
               "PimBlas call, or 1024-request raw-stream batch";
    }

    void
    setupRound(std::uint64_t seed) override
    {
        seed_ = seed;
        pim_.reset();
        hbm_.reset();
        stream_.reset();
        injector_.reset();
        appCalls_.clear();
        hostResults_.clear();
        gemvs_.clear();
        adds_.clear();
        streamReqs_ = {};
        streamBatches_.clear();
        pim_ = std::make_unique<Device>(SystemConfig::pimHbmSystem());
        hbm_ = std::make_unique<Device>(SystemConfig::hbmSystem());

        // Fig. 10 order: B1 before B4, HBM before PIM, per workload.
        // GEMV1 runs at B1 and B4, ADD1 at B1 only (its B4 host stream
        // alone costs ~4 s); GNMT and DS2 run at B1 and B4.
        for (const MicroSpec &m : micros_) {
            const bool gemv = m.kind == MicroKind::Gemv;
            for (unsigned b : gemv ? std::vector<unsigned>{1, 4}
                                   : std::vector<unsigned>{1}) {
                for (bool pim : {false, true})
                    appCalls_.push_back({m.name, &m, nullptr, b, pim, {}});
            }
        }
        for (const AppSpec &a : apps_) {
            for (unsigned b : {1u, 4u}) {
                for (bool pim : {false, true})
                    appCalls_.push_back({a.name, nullptr, &a, b, pim, {}});
            }
        }

        Rng rng(seed);
        Digest in;
        for (const auto &[m, n] : gemvShapes_) {
            GemvCall c;
            c.m = m;
            c.n = n;
            c.w = randomVector(rng, std::size_t{m} * n);
            c.x = randomVector(rng, n);
            in.bytes(c.w.data(), c.w.size() * sizeof(Fp16));
            in.bytes(c.x.data(), c.x.size() * sizeof(Fp16));
            gemvs_.push_back(std::move(c));
        }
        for (std::size_t len : addLengths_) {
            AddCall c;
            c.a = randomVector(rng, len);
            c.b = randomVector(rng, len);
            in.bytes(c.a.data(), c.a.size() * sizeof(Fp16));
            in.bytes(c.b.data(), c.b.size() * sizeof(Fp16));
            adds_.push_back(std::move(c));
        }

        // Raw stream: write every column of a few rows per bank, plant
        // faults, read everything back. Rows of one bank alternate every
        // 8 columns, so the stream mixes row hits and row misses.
        SystemConfig sc = SystemConfig::pimHbmSystem();
        sc.numStacks = 1;
        sc.geometry.onDieEcc = true;
        stream_ = std::make_unique<PimSystem>(sc);
        stream_->setThreads(kThreads);
        const unsigned cols = sc.geometry.colsPerRow;
        std::vector<std::vector<StreamReq>> perChannel(streamChannels_);
        for (unsigned ch = 0; ch < streamChannels_; ++ch) {
            for (unsigned b = 0; b < streamBanks_; ++b) {
                for (unsigned r = 0; r < streamRows_; r += 2) {
                    for (unsigned c0 = 0; c0 < cols; c0 += 8) {
                        for (unsigned dr = 0; dr < 2; ++dr) {
                            for (unsigned c = c0; c < c0 + 8; ++c)
                                perChannel[ch].push_back(
                                    {ch, b, 64 + r + dr, c, true});
                        }
                    }
                }
            }
        }
        for (std::size_t i = 0; i < perChannel[0].size(); ++i) {
            for (unsigned ch = 0; ch < streamChannels_; ++ch)
                streamReqs_.push_back(perChannel[ch][i]);
        }
        const std::size_t writes = streamReqs_.size();
        for (std::size_t i = 0; i < writes; ++i) {
            StreamReq r = streamReqs_[i];
            r.write = false;
            streamReqs_.push_back(r);
        }
        for (std::size_t base : {std::size_t{0}, writes}) {
            for (std::size_t i = base; i < base + writes; i += kStreamBatch)
                streamBatches_.emplace_back(
                    i, std::min(base + writes, i + kStreamBatch));
        }
        in.add(seed);
        inputDigest_ = in.value();
    }

    std::uint64_t
    runRound(Spans *spans) override
    {
        std::uint64_t ops = 0;
        for (AppCall &c : appCalls_) {
            if (spans)
                spans->beginOp();
            Scope s(spans, "stack.app");
            AppRunner &runner = c.pim ? *pim_->runner : *hbm_->runner;
            c.result = c.micro ? runner.runMicro(*c.micro, c.batch)
                               : runner.runApp(*c.app, c.batch);
            ++ops;
        }
        HostModel &host = *hbm_->host;
        for (const auto &[m, n, b] : hostGemvs_) {
            if (spans)
                spans->beginOp();
            Scope s(spans, "host.model");
            hostResults_.push_back(host.gemv(m, n, b).ns);
            ++ops;
        }
        for (std::uint64_t bytes : hostStreamBytes_) {
            if (spans)
                spans->beginOp();
            Scope s(spans, "host.model");
            hostResults_.push_back(host.elementwise(bytes, bytes / 2).ns);
            ++ops;
        }
        PimBlas &blas = *pim_->blas;
        for (GemvCall &c : gemvs_) {
            if (spans)
                spans->beginOp();
            Scope s(spans, "stack.blas");
            c.timing = blas.gemv(c.w, c.m, c.n, c.x, c.y);
            ++ops;
        }
        for (AddCall &c : adds_) {
            if (spans)
                spans->beginOp();
            Scope s(spans, "stack.blas");
            c.timing = blas.add(c.a, c.b, c.out);
            ++ops;
        }
        ops += runStream(spans);
        return ops;
    }

    std::uint64_t
    checkRound() override
    {
        std::uint64_t failed = 0;
        for (const AppCall &c : appCalls_) {
            const AppRunResult &r = c.result;
            if (!positiveFinite(r.ns) || r.hostFallbacks != 0 ||
                r.eccUncorrectable != 0 || (c.pim && r.kernelLaunches == 0))
                ++failed;
        }
        for (double ns : hostResults_)
            failed += positiveFinite(ns) ? 0 : 1;
        bool corrupt = o_.corrupt;
        for (const GemvCall &c : gemvs_) {
            Fp16Vector golden = refGemv(c.w, c.m, c.n, c.x);
            if (corrupt) {
                golden[0] = Fp16::fromBits(golden[0].bits() ^ 1u);
                corrupt = false;
            }
            if (!bitEqual(c.y, golden) || c.timing.hostFallback ||
                !positiveFinite(c.timing.ns))
                ++failed;
        }
        for (const AddCall &c : adds_) {
            if (!bitEqual(c.out, refAdd(c.a, c.b)) || c.timing.hostFallback ||
                !positiveFinite(c.timing.ns))
                ++failed;
        }
        // A stream batch fails if any request in it went unanswered,
        // read back wrong data, or reported an ECC outcome that the
        // planted faults do not explain.
        for (const auto &[first, last] : streamBatches_) {
            bool ok = true;
            for (std::size_t i = first; i < last; ++i)
                ok = ok && streamRequestOk(streamReqs_[i]);
            failed += ok ? 0 : 1;
        }
        return failed;
    }

    void
    countMetrics(Metrics &out) override
    {
        std::uint64_t act = 0, rd = 0, wr = 0, ref = 0, hits = 0, misses = 0,
                      qsum = 0, enq = 0;
        Digest digest;
        for (PimSystem *s : {pim_->system.get(), hbm_->system.get(),
                             stream_.get()}) {
            const StatsRegistry &reg = s->statsRegistry();
            act += reg.counterTotal("pch", "act");
            rd += reg.counterTotal("pch", "rd");
            wr += reg.counterTotal("pch", "wr");
            ref += reg.counterTotal("pch", "ref");
            hits += reg.counterTotal("ctrl", "rowHit");
            misses += reg.counterTotal("ctrl", "rowMiss");
            qsum += reg.counterTotal("ctrl", "queueDepthSum");
            enq += reg.counterTotal("ctrl", "enqueued");
            std::ostringstream json;
            s->dumpStatsJson(json);
            digest.add(json.str());
        }
        const StatsRegistry &pimReg = pim_->system->statsRegistry();
        out["dram.act"] = static_cast<double>(act);
        out["dram.rd"] = static_cast<double>(rd);
        out["dram.wr"] = static_cast<double>(wr);
        out["dram.ref"] = static_cast<double>(ref);
        out["mem.row_hit_rate"] =
            hits + misses ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0.0;
        out["mem.queue_depth_mean"] =
            enq ? static_cast<double>(qsum) / static_cast<double>(enq) : 0.0;
        out["pim.trigger"] =
            static_cast<double>(pimReg.counterTotal("pim", "pim.trigger"));
        out["pim.bus_cycles"] =
            static_cast<double>(pimReg.counterTotal("pch", "pimBusCycles"));
        out["stack.blas_calls"] =
            static_cast<double>(gemvs_.size() + adds_.size());
        out["sim.cycles"] = static_cast<double>(stream_->now());
        out["sim.mem_requests"] = static_cast<double>(streamReqs_.size());
        out["reliability.faults_planted"] =
            static_cast<double>(injector_->counts().dramTransient);
        out["reliability.ecc_corrected"] = static_cast<double>(
            stream_->statsRegistry().counterTotal("ctrl", "ecc.corrected"));

        // Model outputs: every simulated ns, plus the stats JSON above.
        double log_err = 0.0;
        unsigned paper_points = 0;
        for (std::size_t i = 0; i < appCalls_.size(); ++i) {
            const AppCall &c = appCalls_[i];
            digest.add(c.result.ns);
            digest.add(c.result.hostNs);
            digest.add(c.result.pimNs);
            // Calls come in (HBM, PIM) pairs per workload and batch.
            if (c.pim && c.batch == 1 && paperB1(c.name) > 0.0) {
                const double speedup = appCalls_[i - 1].result.ns / c.result.ns;
                log_err += std::abs(std::log(speedup / paperB1(c.name)));
                ++paper_points;
            }
        }
        for (double ns : hostResults_)
            digest.add(ns);
        for (const GemvCall &c : gemvs_)
            digest.add(c.timing.totalNs());
        for (const AddCall &c : adds_)
            digest.add(c.timing.totalNs());
        digest.add(static_cast<std::uint64_t>(stream_->now()));
        out["model.digest"] = digest.value();
        out["model.paper_b1_log_err"] =
            paper_points ? log_err / paper_points : 0.0;
    }

    double inputDigest() const override { return inputDigest_; }

  private:
    /** Seeded payload of one burst of the raw stream. */
    Burst
    payload(const StreamReq &r) const
    {
        Burst b{};
        std::uint64_t s = roundSeed(seed_, (std::uint64_t{r.ch} << 40) ^
                                               (std::uint64_t{r.bank} << 32) ^
                                               (std::uint64_t{r.row} << 8) ^
                                               r.col);
        for (std::size_t i = 0; i < b.size(); i += 8) {
            s = roundSeed(s, i);
            std::memcpy(b.data() + i, &s, 8);
        }
        return b;
    }

    bool
    streamRequestOk(const StreamReq &r) const
    {
        if (!r.answered)
            return false;
        if (r.write)
            return true;
        // The stored copy keeps planted flips (nothing scrubs), so the
        // raw array says what the ECC must have seen on this read.
        const Burst want = payload(r);
        const DramCoord c = coord(r);
        const unsigned flat =
            c.bankGroup * stream_->config().geometry.banksPerBankGroup +
            c.bank;
        const Burst raw = stream_->controller(r.ch).channel().dataStore()
                              .readRaw(flat, r.row, r.col);
        int worst = 0;
        for (std::size_t w = 0; w < want.size(); w += 8) {
            std::uint64_t a = 0, b = 0;
            std::memcpy(&a, want.data() + w, 8);
            std::memcpy(&b, raw.data() + w, 8);
            worst = std::max(worst, std::popcount(a ^ b));
        }
        if (worst >= 3)
            return true; // beyond SEC-DED's guarantees: no expectation
        if (worst == 2)
            return r.ecc == EccStatus::Uncorrectable;
        const EccStatus expect = worst == 1 ? EccStatus::Corrected
                                            : EccStatus::Ok;
        return r.ecc == expect && r.data == want;
    }

    /** Stream bank b spreads over bank groups first. */
    DramCoord
    coord(const StreamReq &r) const
    {
        const unsigned groups = stream_->config().geometry.bankGroupsPerPch;
        DramCoord c;
        c.channel = r.ch;
        c.bankGroup = r.bank % groups;
        c.bank = r.bank / groups;
        c.row = r.row;
        c.col = r.col;
        return c;
    }

    void
    collect()
    {
        for (unsigned ch = 0; ch < streamChannels_; ++ch) {
            for (const MemResponse &resp : stream_->drain(ch)) {
                StreamReq &r = streamReqs_[resp.id];
                r.answered = true;
                r.ecc = resp.ecc;
                r.data = resp.data;
            }
        }
    }

    /** Issue the stream in batches; plant faults after the writes,
     *  before the reads. Returns the number of batches. */
    std::uint64_t
    runStream(Spans *spans)
    {
        const std::size_t writes = streamReqs_.size() / 2;
        for (const auto &[first, last] : streamBatches_) {
            if (first == writes) {
                Scope s(spans, "reliability.inject");
                FaultRates rates;
                rates.dramTransient = 2.0;
                injector_ = std::make_unique<FaultInjector>(
                    *stream_, rates, roundSeed(seed_, 0xfa017));
                injector_->runCampaign(1000, injectSteps_);
            }
            if (spans)
                spans->beginOp();
            Scope s(spans, "sim.stream");
            for (std::size_t i = first; i < last; ++i) {
                const StreamReq &r = streamReqs_[i];
                MemRequest req;
                req.type = r.write ? RequestType::Write : RequestType::Read;
                req.coord = coord(r);
                req.id = i;
                if (r.write)
                    req.data = payload(r);
                while (!stream_->tryEnqueue(r.ch, req)) {
                    stream_->step();
                    collect();
                }
            }
            stream_->runUntilIdle();
            collect();
        }
        return streamBatches_.size();
    }

    Options o_;
    std::vector<MicroSpec> micros_;
    std::vector<AppSpec> apps_;
    std::vector<std::pair<unsigned, unsigned>> gemvShapes_;
    std::vector<std::size_t> addLengths_;
    std::vector<std::tuple<unsigned, unsigned, unsigned>> hostGemvs_;
    std::vector<std::uint64_t> hostStreamBytes_;
    unsigned streamChannels_ = 0, streamBanks_ = 0, streamRows_ = 0;
    unsigned injectSteps_ = 0;

    std::uint64_t seed_ = 0;
    double inputDigest_ = 0.0;
    std::unique_ptr<Device> pim_, hbm_;
    std::unique_ptr<PimSystem> stream_;
    std::unique_ptr<FaultInjector> injector_;
    std::vector<AppCall> appCalls_;
    std::vector<double> hostResults_;
    std::vector<GemvCall> gemvs_;
    std::vector<AddCall> adds_;
    std::vector<StreamReq> streamReqs_;
    /** [first, last) request ranges; writes and reads never share one. */
    std::vector<std::pair<std::size_t, std::size_t>> streamBatches_;
};

} // namespace

std::unique_ptr<Workload>
makeKernels(const Options &options)
{
    return std::make_unique<Kernels>(options);
}

} // namespace perfbench
