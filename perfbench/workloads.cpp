#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "fault/plan.h"
#include "os/coherence/protocol.h"
#include "os/k2_system.h"
#include "sim/engine.h"
#include "workloads/benchmarks.h"
#include "workloads/fleet.h"
#include "workloads/report.h"
#include "workloads/testbed.h"
#include "workloads/warm.h"

namespace k2perf {

namespace {

namespace os = k2::os;
namespace kern = k2::kern;

using Kind = int; // 0 dma, 1 ext2, 2 udp
constexpr const char *kKindName[] = {"dma", "ext2", "udp"};
constexpr const char *kSvcSpan[] = {"svc.episode.dma", "svc.episode.ext2",
                                    "svc.episode.udp"};
constexpr const char *kBaseSpan[] = {"baseline.episode.dma",
                                     "baseline.episode.ext2",
                                     "baseline.episode.udp"};
constexpr int kExt2Files = 2; //!< Files per ext2 episode (as testbed).

/** Position @p pos of a seeded permutation of [0, n) for round @p r:
 *  every round visits each item once, in a seed-dependent order. */
std::size_t
permuted(std::uint64_t seed, std::uint64_t r, std::size_t pos,
         std::size_t n)
{
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i)
        p[i] = i;
    for (std::size_t i = n - 1; i > 0; --i)
        std::swap(p[i], p[draw(seed, r, 1000 + i, i + 1)]);
    return p[pos];
}

/**
 * Index of the inputs op @p i runs: the last tenth of a chain repeats
 * the inputs of the first tenth, so op_cost_drift compares identical
 * work. Chains are whole rounds per tenth, so round alignment holds.
 */
std::uint64_t
inputOf(const Params &p, std::uint64_t i)
{
    const std::uint64_t lastTenth = p.ops - p.ops / 10;
    return i >= lastTenth ? i - lastTenth : i;
}

wl::Workload
episodeWorkload(wl::Testbed &tb, Kind kind, std::uint64_t bytes,
                std::uint64_t batch)
{
    switch (kind) {
      case 0:
        return wl::dmaCopy(tb.dma(), batch, bytes);
      case 1:
        return wl::ext2Sync(tb.fs(), bytes, kExt2Files);
      default:
        return wl::udpLoopback(tb.udp(), batch, bytes);
    }
}

std::uint64_t
expectedBytes(Kind kind, std::uint64_t bytes, int files)
{
    return kind == 1 ? bytes * static_cast<std::uint64_t>(files) : bytes;
}

std::string
checkBytes(const wl::EpisodeResult &r, std::uint64_t want)
{
    if (r.bytes == want)
        return {};
    return "short op: moved " + std::to_string(r.bytes) + " of " +
           std::to_string(want) + " bytes";
}

std::uint64_t
liveThreads(os::SystemImage &sys)
{
    std::uint64_t n = 0;
    for (kern::Kernel *k : sys.kernels())
        n += k->threads().size();
    return n;
}

// -- planted faults (self-tests of the checks and the stall guard) ---

sim::Task<std::uint64_t>
shortBody(wl::Workload w, kern::Thread &t)
{
    const std::uint64_t bytes = co_await w(t);
    co_return bytes - 1;
}

sim::Task<std::uint64_t>
hangBody(kern::Thread &t)
{
    for (;;)
        co_await t.sleep(sim::msec(1));
}

/** A livelock at one simulated instant: no event runs again, so only
 *  the host watchdog can see it. (A loop of yields would not do: each
 *  reschedule costs simulated time, so the cap would catch it.) */
sim::Task<std::uint64_t>
spinBody(kern::Thread &)
{
    for (volatile bool spin = true; spin;) {
    }
    co_return 0;
}

wl::Workload
planted(Plant plant, wl::Workload w)
{
    switch (plant) {
      case Plant::Short:
        return [w](kern::Thread &t) { return shortBody(w, t); };
      case Plant::Hang:
        return [](kern::Thread &t) { return hangBody(t); };
      case Plant::Spin:
        return [](kern::Thread &t) { return spinBody(t); };
      case Plant::None:
        break;
    }
    return w;
}

// ---------------------------------------------------------------------
// testbed_mix: one K2 testbed (2state, no faults) running a long chain
// of DMA / ext2 / UDP episodes with seeded 1-64 KB payloads.

struct MixOp
{
    Kind kind;
    std::uint64_t bytes;
};

/** Payload log-uniform over [1 KB, 64 KB): small transfers are the
 *  common case, and no single ext2 block count holds enough ops to pin
 *  the simulated-latency p99 to one value. */
std::uint64_t
payloadBytes(std::uint64_t seed, std::uint64_t i, std::uint64_t salt)
{
    const double u = static_cast<double>(draw(seed, i, salt, 1ULL << 52)) /
                     static_cast<double>(1ULL << 52);
    return static_cast<std::uint64_t>(1024.0 * std::pow(64.0, u));
}

/** Kinds in rounds of three (one of each, seeded order). */
MixOp
mixOp(std::uint64_t seed, std::uint64_t i)
{
    return {static_cast<Kind>(permuted(seed, i / 3, i % 3, 3)),
            payloadBytes(seed, i, 2)};
}

constexpr int kMixWarmup = 9; //!< Warm-up episodes (3 of each kind).

class TestbedMix : public Work
{
  public:
    explicit TestbedMix(const Params &p) : p_(p) {}

    void
    setup(Tally &tally) override
    {
        const std::int64_t t0 = hostNs();
        boot();
        tally["boot_ms"] += (hostNs() - t0) / 1e6;
        tally["boots"] += 1;
        for (int w = 0; w < kMixWarmup; ++w) {
            const Kind kind = w % 3;
            wl::runEpisode(tb_->sys(), tb_->proc(), kKindName[kind],
                           episodeWorkload(*tb_, kind, 16 * 1024, 4096));
        }
        tb_->engine().run();
        freeBlocks_ = tb_->fs().freeBlocks();
        freeInodes_ = tb_->fs().freeInodes();
    }

    void
    begin() override
    {
        before_ = reg_->snapshot();
    }

    OpOut
    op(std::uint64_t i, Spans &spans) override
    {
        const MixOp m = mixOp(p_.seed, inputOf(p_, i));
        wl::Workload w = episodeWorkload(*tb_, m.kind, m.bytes,
                                         m.kind == 0 ? 4096 : 8192);
        if (p_.plant != Plant::None && i == p_.plantOp)
            w = planted(p_.plant, std::move(w));

        OpOut out;
        wl::EpisodeResult r;
        try {
            Spans::Scope s(spans, kSvcSpan[m.kind]);
            r = wl::runEpisode(tb_->sys(), tb_->proc(), kKindName[m.kind],
                               guarded(tb_->engine(), std::move(w)));
        } catch (const Stall &e) {
            out.failure = e.what();
            restart();
            return out;
        }
        out.simMs = sim::toMsec(r.runTime);
        out.energyUj = r.energyUj;
        out.bytes = r.bytes;
        out.failure =
            checkBytes(r, expectedBytes(m.kind, m.bytes, kExt2Files));
        if (out.failure.empty() && m.kind == 1 &&
            (tb_->fs().freeBlocks() != freeBlocks_ ||
             tb_->fs().freeInodes() != freeInodes_))
            out.failure = "ext2 free blocks/inodes not restored";
        if (out.failure.empty() && tb_->udp().packetsDropped.value() != 0)
            out.failure = "udp packets dropped";
        return out;
    }

    std::string
    end(RegTotals &reg, Tally &tally) override
    {
        fold(totals_);
        reg = totals_;
        tally["threads"] += static_cast<double>(liveThreads(tb_->sys()));
        return {};
    }

  private:
    void
    boot()
    {
        tb_ = std::make_unique<wl::Testbed>(wl::Testbed::makeK2());
        reg_ = std::make_unique<obs::MetricsRegistry>();
        tb_->registerMetrics(*reg_);
    }

    void
    fold(RegTotals &reg)
    {
        const obs::MetricsSnapshot after = reg_->snapshot();
        reg.add(obs::MetricsRegistry::diff(before_, after));
        reg.notePool(after);
    }

    /** After a stall the fixture is mid-op: fold its counts, abandon
     *  it (its parked coroutines are never resumed) and boot anew. */
    void
    restart()
    {
        fold(totals_);
        (void)tb_.release();
        Tally ignored;
        setup(ignored);
        begin();
    }

    Params p_;
    std::unique_ptr<wl::Testbed> tb_;
    std::unique_ptr<obs::MetricsRegistry> reg_;
    obs::MetricsSnapshot before_;
    RegTotals totals_;
    std::uint32_t freeBlocks_ = 0, freeInodes_ = 0;
};

// ---------------------------------------------------------------------
// dsm_sharing: bursts of page touches on shared regions, one thread
// per op, over protocol {2state, mesi, rac} x engine {pair (1 replica),
// N-domain directory (3 replicas)} x pattern {migratory, read-mostly,
// producer-consumer}.

constexpr const char *kProtocols[] = {"2state", "mesi", "rac"};
constexpr std::size_t kReplicas[] = {1, 3};
constexpr const char *kPatterns[] = {"migratory", "read_mostly",
                                     "producer_consumer"};
constexpr std::size_t kSystems = 6;  //!< protocols x engines.
/** Span name of each system: os.dsm.<p> on the pair engine,
 *  os.ndsm.<p> on the N-domain directory. */
constexpr const char *kSystemSpan[kSystems] = {
    "os.dsm.2state", "os.ndsm.2state", "os.dsm.mesi",
    "os.ndsm.mesi",  "os.dsm.rac",     "os.ndsm.rac"};
constexpr std::size_t kStreams = 18; //!< systems x patterns.
constexpr std::uint64_t kRegionPages = 8;

struct DsmOp
{
    std::size_t system, pattern;
    std::uint64_t step; //!< Ops so far on this (system, pattern).
    std::uint64_t pages;
};

DsmOp
dsmOp(const Params &p, std::uint64_t i)
{
    const std::uint64_t j = inputOf(p, i);
    const std::size_t stream =
        permuted(p.seed, j / kStreams, j % kStreams, kStreams);
    return {stream / 3, stream % 3, i / kStreams,
            1 + draw(p.seed, j, 3, kRegionPages)};
}

/** Domain and access of step @p k of a pattern over @p d domains. */
std::pair<k2::soc::DomainId, os::Access>
dsmStep(std::size_t pattern, std::uint64_t k, std::size_t d)
{
    const auto dom = static_cast<k2::soc::DomainId>(k % d);
    switch (pattern) {
      case 0: // migratory: every burst writes, owner rotates
        return {dom, os::Access::Write};
      case 1: // read-mostly: domain 0 writes every 8th step
        return {dom, (k % 8 == 0) ? os::Access::Write : os::Access::Read};
      default: // producer-consumer: domain 0 writes, the rest read
        return {dom, dom == 0 ? os::Access::Write : os::Access::Read};
    }
}

sim::Task<void>
burstBody(sim::Engine &eng, os::SharedRegion &region, std::uint64_t pages,
          os::Access rw, sim::Time *doneAt, kern::Thread &t)
{
    for (std::uint64_t p = 0; p < pages; ++p)
        co_await region.touch(t.kernel(), t.core(), p, rw);
    *doneAt = eng.now();
}

std::uint64_t
dsmFaults(const obs::MetricsSnapshot &s)
{
    std::uint64_t n = 0;
    for (const auto &[name, v] : s.values()) {
        if ((name.rfind("os.dsm.", 0) == 0 || name.rfind("os.ndsm.", 0) == 0) &&
            name.size() > 7 && name.compare(name.size() - 7, 7, ".faults") == 0)
            n += v.count;
    }
    return n;
}

class DsmSharing : public Work
{
  public:
    explicit DsmSharing(const Params &p) : p_(p) {}

    void
    setup(Tally &tally) override
    {
        for (std::size_t s = 0; s < kSystems; ++s) {
            Sys &x = sys_[s];
            const std::int64_t t0 = hostNs();
            os::K2Config cfg;
            cfg.dsmProtocol = os::coherence::parseProtocol(kProtocols[s / 2]);
            cfg.replicas = kReplicas[s % 2];
            x.k2 = std::make_unique<os::K2System>(cfg);
            tally["boot_ms"] += (hostNs() - t0) / 1e6;
            tally["boots"] += 1;
            x.proc = &x.k2->createProcess("dsm");
            for (std::size_t pat = 0; pat < 3; ++pat)
                x.region[pat] = x.k2->createSharedRegion(
                    kPatterns[pat], kRegionPages);
            x.span = kSystemSpan[s];
            x.reg = std::make_unique<obs::MetricsRegistry>();
            x.k2->registerMetrics(*x.reg);
            x.k2->engine().run();
            // Warm-up: two owner rotations of every pattern over the
            // whole region, so timed bursts start from shared state.
            const std::size_t d = x.k2->soc().numDomains();
            for (std::size_t pat = 0; pat < 3; ++pat)
                for (std::uint64_t k = 0; k < 2 * d; ++k)
                    burst(x, pat, k, kRegionPages);
        }
    }

    void
    begin() override
    {
        for (Sys &x : sys_) {
            x.before = x.reg->snapshot();
            x.faults = dsmFaults(x.before);
        }
    }

    OpOut
    op(std::uint64_t i, Spans &spans) override
    {
        const DsmOp o = dsmOp(p_, i);
        Sys &x = sys_[o.system];
        if (x.stalled) {
            OpOut out;
            out.failure = "system abandoned after a stall";
            return out;
        }
        Spans::Scope s(spans, x.span);
        return burst(x, o.pattern, o.step, o.pages);
    }

    void
    verify(std::uint64_t i, OpOut &out) override
    {
        const DsmOp o = dsmOp(p_, i);
        Sys &x = sys_[o.system];
        if (x.stalled)
            return;
        const std::uint64_t faults = dsmFaults(x.reg->snapshot());
        if (out.failure.empty() && o.pattern == 0 && faults == x.faults)
            out.failure = "migratory burst took no DSM fault";
        x.faults = faults;
    }

    std::string
    end(RegTotals &reg, Tally &tally) override
    {
        for (Sys &x : sys_) {
            const obs::MetricsSnapshot after = x.reg->snapshot();
            reg.add(obs::MetricsRegistry::diff(x.before, after));
            reg.notePool(after);
            tally[std::string("faults.") + x.span] +=
                static_cast<double>(dsmFaults(after) - dsmFaults(x.before));
            tally["threads"] += static_cast<double>(liveThreads(*x.k2));
        }
        return {};
    }

  private:
    struct Sys
    {
        std::unique_ptr<os::K2System> k2;
        kern::Process *proc = nullptr;
        std::array<std::unique_ptr<os::SharedRegion>, 3> region;
        std::unique_ptr<obs::MetricsRegistry> reg;
        obs::MetricsSnapshot before;
        std::uint64_t faults = 0;
        const char *span = nullptr;
        bool stalled = false; //!< Mid-burst after a stall: never touched again.
    };

    OpOut
    burst(Sys &x, std::size_t pattern, std::uint64_t step,
          std::uint64_t pages)
    {
        const auto [dom, rw] =
            dsmStep(pattern, step, x.k2->soc().numDomains());
        sim::Engine &eng = x.k2->engine();
        const auto meter = x.k2->soc().meter().snapshot();
        const sim::Time start = eng.now();
        sim::Time doneAt = 0;
        os::SharedRegion &region = *x.region[pattern];
        OpOut out;
        x.k2->kernelAt(dom).spawnThread(
            x.proc, kPatterns[pattern], kern::ThreadKind::Normal,
            [&eng, &region, pages, rw, &doneAt](kern::Thread &t) {
                return capped(eng,
                              burstBody(eng, region, pages, rw, &doneAt, t));
            });
        try {
            eng.run();
        } catch (const Stall &e) {
            out.failure = e.what();
            x.stalled = true;
            return out;
        }
        if (doneAt == 0) {
            out.failure = "burst did not complete";
            return out;
        }
        out.simMs = sim::toMsec(doneAt - start);
        out.energyUj = meter.totalUj(x.k2->soc().meter());
        out.bytes = pages * x.k2->soc().pageBytes();
        return out;
    }

    Params p_;
    std::array<Sys, kSystems> sys_;
};

// ---------------------------------------------------------------------
// sweep_cells: short independent cells, each provisioned through the
// warm-fixture pool: the Fig. 6a/6b/6c grids on K2 and Linux plus a
// design-space slice protocol x replicas x faults.

struct CellSpec
{
    const char *fig;   //!< "6a", "6b", "6c" or "slice".
    bool k2;
    Kind kind;         //!< Grid cells only.
    std::uint64_t batch, total;
    std::size_t proto; //!< Slice cells: index into kProtocols.
    std::size_t replicas;
    bool faults;
};

constexpr const char *kSliceFaults = "mailbox.drop:p=1e-3";
constexpr int kGridExt2Files = 8; //!< Fig. 6b writes eight files.

std::vector<CellSpec>
cellCatalogue()
{
    std::vector<CellSpec> c;
    const std::pair<std::uint64_t, std::uint64_t> a[] = {
        {4096, 64 * 1024},    {4096, 256 * 1024}, {65536, 1024 * 1024},
        {262144, 1024 * 1024}, {1048576, 4 * 1048576}};
    const std::uint64_t b[] = {1024, 256 * 1024, 1024 * 1024};
    const std::pair<std::uint64_t, std::uint64_t> cc[] = {
        {1024, 16 * 1024},
        {65536, 256 * 1024},
        {262144, 1024 * 1024},
        {1048576, 4 * 1048576}};
    for (const bool k2 : {true, false}) {
        for (const auto &[batch, total] : a)
            c.push_back({"6a", k2, 0, batch, total, 0, 1, false});
        for (const std::uint64_t size : b)
            c.push_back({"6b", k2, 1, 0, size, 0, 1, false});
        for (const auto &[batch, total] : cc)
            c.push_back({"6c", k2, 2, batch, total, 0, 1, false});
    }
    for (std::size_t proto = 0; proto < 3; ++proto)
        for (const std::size_t r : kReplicas)
            for (const bool f : {false, true})
                c.push_back({"slice", true, 0, 0, 0, proto, r, f});
    return c;
}

const std::vector<CellSpec> &
cells()
{
    static const std::vector<CellSpec> c = cellCatalogue();
    return c;
}

std::string
cellKey(const CellSpec &c)
{
    if (!c.k2)
        return "linux";
    if (c.proto == 0 && c.replicas == 1 && !c.faults)
        return "k2";
    return std::string("k2:") + kProtocols[c.proto] + ":r" +
           std::to_string(c.replicas) + (c.faults ? ":drop" : "");
}

os::K2Config
cellConfig(const CellSpec &c)
{
    os::K2Config cfg;
    cfg.dsmProtocol = os::coherence::parseProtocol(kProtocols[c.proto]);
    cfg.replicas = c.replicas;
    if (c.faults)
        cfg.faults = k2::fault::FaultPlan::parse(kSliceFaults);
    return cfg;
}

wl::Testbed &
provision(const CellSpec &c)
{
    if (!c.k2)
        return wl::warmLinux(wl::SweepMode::Warm, "linux");
    return wl::warmK2(wl::SweepMode::Warm, cellKey(c),
                      [&c] { return cellConfig(c); });
}

/** A round runs every grid cell once, every slice cell three times
 *  and one seeded extra entry: the seed sets each cell's share, and no
 *  fixed-input grid cell holds the 2% of ops that would pin the
 *  simulated-latency p99 to its value. */
const std::vector<std::size_t> &
roundEntries()
{
    static const std::vector<std::size_t> e = [] {
        std::vector<std::size_t> out;
        for (std::size_t k = 0; k < cells().size(); ++k)
            for (int rep = cells()[k].fig[0] == '6' ? 1 : 3; rep > 0; --rep)
                out.push_back(k);
        return out;
    }();
    return e;
}

std::size_t
cellOf(std::uint64_t seed, std::uint64_t i)
{
    const std::vector<std::size_t> &e = roundEntries();
    const std::size_t n = e.size() + 1;
    const std::size_t k = permuted(seed, i / n, i % n, n);
    return e[k < e.size() ? k : draw(seed, i / n, 7, e.size())];
}

class SweepCells : public Work
{
  public:
    explicit SweepCells(const Params &p) : p_(p) {}

    void
    setup(Tally &tally) override
    {
        // Boot and capture every fixture this thread's pool serves,
        // then run one ext2 episode on it to learn the free block and
        // inode counts an ext2 episode must leave behind (the fs
        // allocates some metadata on first use). The next provision()
        // forks from the capture again, discarding that episode.
        for (const CellSpec &c : cells()) {
            const std::string key = cellKey(c);
            if (ext2Free_.count(key))
                continue;
            const std::int64_t t0 = hostNs();
            wl::Testbed &tb = provision(c);
            tally["boot_ms"] += (hostNs() - t0) / 1e6;
            tally["boots"] += 1;
            wl::runEpisode(tb.sys(), tb.proc(), "ext2",
                           wl::ext2Sync(tb.fs(), 4096, kGridExt2Files));
            ext2Free_[key] = {tb.fs().freeBlocks(), tb.fs().freeInodes()};
        }
    }

    void begin() override {}

    OpOut
    op(std::uint64_t i, Spans &spans) override
    {
        const std::uint64_t j = inputOf(p_, i);
        const CellSpec &c = cells()[cellOf(p_.seed, j)];
        OpOut out;
        delta_ = obs::MetricsSnapshot();
        if (stalled_) {
            // A stalled fixture stays mid-episode in this thread's warm
            // pool, which cannot fork from it again.
            out.failure = "lane abandoned after a stall";
            return out;
        }
        wl::Testbed *tb;
        {
            Spans::Scope s(spans, "workloads.provision");
            tb = &provision(c);
        }
        obs::MetricsRegistry reg;
        obs::MetricsSnapshot before;
        {
            Spans::Scope s(spans, "obs.snapshot");
            tb->registerMetrics(reg);
            before = reg.snapshot();
        }
        try {
            runEpisodes(*tb, c, j, spans, out);
        } catch (const Stall &e) {
            out.failure = e.what();
            stalled_ = true;
            return out;
        }
        obs::MetricsSnapshot after;
        {
            Spans::Scope s(spans, "obs.snapshot");
            after = reg.snapshot();
            delta_ = obs::MetricsRegistry::diff(before, after);
        }
        std::string report;
        {
            Spans::Scope s(spans, "obs.report");
            report = wl::episodeReport(delta_);
        }
        totals_.notePool(after);
        if (out.failure.empty() && report.empty())
            out.failure = "empty episode report";
        const obs::MetricValue *drops = delta_.find("svc.net.packets_dropped");
        if (out.failure.empty() && drops && drops->count != 0)
            out.failure = "udp packets dropped";
        threads_ = std::max(threads_, liveThreads(tb->sys()));
        if (c.fig[0] == '6') {
            Side &side = c.k2 ? k2Grid_ : linuxGrid_;
            side.bytes += static_cast<double>(out.bytes);
            side.energyUj += out.energyUj;
        }
        return out;
    }

    void
    verify(std::uint64_t, OpOut &) override
    {
        totals_.add(delta_);
    }

    std::string
    end(RegTotals &reg, Tally &tally) override
    {
        reg = totals_;
        tally["grid.k2.bytes"] += k2Grid_.bytes;
        tally["grid.k2.energy_uj"] += k2Grid_.energyUj;
        tally["grid.linux.bytes"] += linuxGrid_.bytes;
        tally["grid.linux.energy_uj"] += linuxGrid_.energyUj;
        tally["threads"] += static_cast<double>(threads_);
        return {};
    }

  private:
    struct Side
    {
        double bytes = 0, energyUj = 0;
    };

    /** Grid cells: one discarded warm-up episode then the measured one
     *  (the paper binaries' runEpisodeWarm). Slice cells: one seeded
     *  1-64 KB episode of each kind, all measured. */
    void
    runEpisodes(wl::Testbed &tb, const CellSpec &c, std::uint64_t i,
                Spans &spans, OpOut &out)
    {
        const char *const *span = c.k2 ? kSvcSpan : kBaseSpan;
        const std::pair<std::uint32_t, std::uint32_t> ext2Free =
            ext2Free_.at(cellKey(c));
        auto one = [&](Kind kind, std::uint64_t bytes, std::uint64_t batch,
                       int files, bool measured) {
            wl::Workload w =
                kind == 1 ? wl::ext2Sync(tb.fs(), bytes, files)
                          : episodeWorkload(tb, kind, bytes, batch);
            wl::EpisodeResult r;
            {
                Spans::Scope s(spans, span[kind]);
                r = wl::runEpisode(tb.sys(), tb.proc(), kKindName[kind],
                                   guarded(tb.engine(), std::move(w)));
            }
            if (out.failure.empty())
                out.failure = checkBytes(r, expectedBytes(kind, bytes, files));
            if (out.failure.empty() && kind == 1 &&
                std::make_pair(tb.fs().freeBlocks(), tb.fs().freeInodes()) !=
                    ext2Free)
                out.failure = "ext2 free blocks/inodes not restored";
            if (!measured)
                return;
            out.simMs += sim::toMsec(r.runTime);
            out.energyUj += r.energyUj;
            out.bytes += r.bytes;
        };
        if (c.fig[0] == '6') {
            one(c.kind, c.total, c.batch, kGridExt2Files, false);
            one(c.kind, c.total, c.batch, kGridExt2Files, true);
            return;
        }
        for (Kind kind = 0; kind < 3; ++kind)
            one(kind, payloadBytes(p_.seed, i, 10 + kind),
                kind == 0 ? 4096 : 8192, kExt2Files, true);
    }

    Params p_;
    std::map<std::string, std::pair<std::uint32_t, std::uint32_t>> ext2Free_;
    obs::MetricsSnapshot delta_;
    RegTotals totals_;
    Side k2Grid_, linuxGrid_;
    std::uint64_t threads_ = 0; //!< Most threads a cell's fixture held.
    bool stalled_ = false;
};

// ---------------------------------------------------------------------
// fleet_synth: device-days synthesized from one calibration, in blocks
// of one traffic mix each, folded with FleetStats::merge.

constexpr std::uint64_t kBlockDevices = 50;
constexpr double kDayHours = 24.0;

const std::vector<std::string> &
mixes()
{
    static const std::vector<std::string> m = [] {
        std::vector<std::string> out;
        std::stringstream ss(wl::mixNames());
        std::string name;
        while (std::getline(ss, name, ','))
            if (!name.empty())
                out.push_back(name.substr(name.find_first_not_of(' ')));
        return out;
    }();
    return m;
}

const std::string &
mixOf(std::uint64_t seed, std::uint64_t i)
{
    const std::size_t n = mixes().size();
    const std::uint64_t block = i / kBlockDevices;
    return mixes()[permuted(seed, block / n, block % n, n)];
}

std::uint64_t
episodes(const wl::FleetStats &s)
{
    std::uint64_t n = 0;
    for (const std::uint64_t e : s.episodes)
        n += e;
    return n;
}

class FleetSynth : public Work
{
  public:
    explicit FleetSynth(const Params &p) : p_(p) {}

    void
    setup(Tally &tally) override
    {
        const std::int64_t t0 = hostNs();
        cal_ = &wl::calibrationFor(wl::SweepMode::Warm, "k2");
        tally["calibrate_ms"] += (hostNs() - t0) / 1e6;
        tally["calibrations"] += 1;
    }

    void begin() override {}

    OpOut
    op(std::uint64_t i, Spans &spans) override
    {
        const std::uint64_t j = inputOf(p_, i);
        const wl::TrafficMix *mix = wl::findMix(mixOf(p_.seed, j));
        const double e0 = block_.deviceEnergyUj.sum();
        const double l0 = block_.episodeLatencyUs.sum();
        const std::uint64_t b0 = block_.bytes, d0 = block_.devices;
        const std::uint64_t ep0 = episodes(block_);
        const std::uint64_t lc0 = block_.episodeLatencyUs.count();
        {
            Spans::Scope s(spans, "workloads.fleet.synthesize");
            wl::synthesizeDevice(*mix, *cal_, p_.seed, j, kDayHours, block_);
        }
        OpOut out;
        out.energyUj = block_.deviceEnergyUj.sum() - e0;
        out.simMs = (block_.episodeLatencyUs.sum() - l0) / 1e3;
        out.bytes = block_.bytes - b0;
        if (block_.devices != d0 + 1)
            out.failure = "device count off";
        else if (block_.episodeLatencyUs.count() - lc0 != episodes(block_) - ep0)
            out.failure = "latency sketch total off";
        if (i % kBlockDevices == kBlockDevices - 1) {
            Spans::Scope s(spans, "workloads.fleet.merge");
            total_.merge(block_);
            block_ = wl::FleetStats{};
        }
        ++ops_;
        return out;
    }

    std::string
    end(RegTotals &reg, Tally &tally) override
    {
        total_.merge(block_);
        block_ = wl::FleetStats{};
        std::uint64_t kindSamples = 0;
        bool ok = total_.devices == ops_ &&
                  total_.deviceEnergyUj.count() == ops_ &&
                  total_.episodeLatencyUs.count() == episodes(total_);
        for (std::size_t k = 0; k < wl::kFleetKinds; ++k) {
            kindSamples += total_.kindEnergyUj[k].count();
            ok = ok && total_.kindEnergyUj[k].count() == total_.episodes[k];
        }
        tally["fleet.sketch_samples"] +=
            static_cast<double>(total_.episodeLatencyUs.count() +
                                total_.deviceEnergyUj.count() + kindSamples);
        tally["fleet.episodes"] += static_cast<double>(episodes(total_));
        auto put = [&reg](const std::string &name, double v) {
            reg.m[name].value += v;
        };
        put("fleet.devices", static_cast<double>(total_.devices));
        put("fleet.bytes", static_cast<double>(total_.bytes));
        for (std::size_t k = 0; k < wl::kFleetKinds; ++k)
            put(std::string("fleet.episodes.") +
                    wl::fleetKindName(static_cast<wl::FleetKind>(k)),
                static_cast<double>(total_.episodes[k]));
        put("fleet.latency_us.sum", total_.episodeLatencyUs.sum());
        put("fleet.latency_us.p50", total_.episodeLatencyUs.percentile(0.5));
        put("fleet.latency_us.p99", total_.episodeLatencyUs.percentile(0.99));
        put("fleet.device_energy_uj.sum", total_.deviceEnergyUj.sum());
        put("fleet.device_energy_uj.p99",
            total_.deviceEnergyUj.percentile(0.99));
        return ok ? std::string() : "fleet device or sketch totals off";
    }

  private:
    Params p_;
    const wl::Calibration *cal_ = nullptr;
    wl::FleetStats block_, total_;
    std::uint64_t ops_ = 0;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> n = {"testbed_mix", "dsm_sharing",
                                               "sweep_cells", "fleet_synth"};
    return n;
}

std::unique_ptr<Work>
makeWork(const std::string &name, const Params &p)
{
    if (name == "testbed_mix")
        return std::make_unique<TestbedMix>(p);
    if (name == "dsm_sharing")
        return std::make_unique<DsmSharing>(p);
    if (name == "sweep_cells")
        return std::make_unique<SweepCells>(p);
    if (name == "fleet_synth")
        return std::make_unique<FleetSynth>(p);
    return nullptr;
}

std::uint64_t
opRound(const std::string &name)
{
    if (name == "testbed_mix")
        return 3;
    if (name == "dsm_sharing")
        return kStreams;
    if (name == "sweep_cells")
        return roundEntries().size() + 1;
    return kBlockDevices * mixes().size();
}

std::string
describeOp(const std::string &name, const Params &p, std::uint64_t i)
{
    char buf[160];
    if (name == "testbed_mix") {
        const MixOp m = mixOp(p.seed, inputOf(p, i));
        std::snprintf(buf, sizeof buf, "episode=%s bytes=%llu",
                      kKindName[m.kind],
                      static_cast<unsigned long long>(m.bytes));
    } else if (name == "dsm_sharing") {
        const DsmOp o = dsmOp(p, i);
        std::snprintf(buf, sizeof buf,
                      "dsm=%s replicas=%zu pattern=%s step=%llu pages=%llu",
                      kProtocols[o.system / 2], kReplicas[o.system % 2],
                      kPatterns[o.pattern],
                      static_cast<unsigned long long>(o.step),
                      static_cast<unsigned long long>(o.pages));
    } else if (name == "sweep_cells") {
        const CellSpec &c = cells()[cellOf(p.seed, inputOf(p, i))];
        std::snprintf(buf, sizeof buf, "cell=%s key=%s batch=%llu total=%llu",
                      c.fig, cellKey(c).c_str(),
                      static_cast<unsigned long long>(c.batch),
                      static_cast<unsigned long long>(c.total));
    } else {
        const std::uint64_t j = inputOf(p, i);
        std::snprintf(buf, sizeof buf, "mix=%s device=%llu",
                      mixOf(p.seed, j).c_str(),
                      static_cast<unsigned long long>(j));
    }
    return buf;
}

} // namespace k2perf
