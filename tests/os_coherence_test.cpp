/**
 * @file
 * Protocol-conformance suite for the DSM coherence zoo
 * (os/coherence/): every registered protocol must uphold the same
 * contracts at every domain count -- one writer at a time,
 * read-your-writes, completion of every access under seeded fuzz with
 * shadow-data verification, crash reclaim, and deterministic replay
 * across cold boots. Each contract runs on the two-domain pair
 * (PairConformanceTest) and on three domains (NdsmConformanceTest) of a
 * bare DSM rig; SystemConformanceTest runs the DSM inside a whole
 * K2System, through its mail dispatch and metrics.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "os/coherence/protocol.h"
#include "os/k2_system.h"
#include "sim/random.h"
#include "workloads/dsm_rig.h"

namespace k2::os {
namespace {

using coherence::ProtocolKind;
using kern::Thread;
using kern::ThreadKind;
using sim::Task;

/** The DSM on an @p N-domain rig under one zoo protocol. */
template <std::size_t N>
class ZooConformance : public ::testing::TestWithParam<ProtocolKind>
{
  protected:
    wl::DsmRig fx{N, GetParam(), 64};
};

class PairConformanceTest : public ZooConformance<2>
{};

class NdsmConformanceTest : public ZooConformance<3>
{};

/** One contract, checked at both domain counts. */
#define CONFORMANCE_TEST(name)                                          \
    void name##Check(wl::DsmRig &fx, std::size_t n, ProtocolKind proto); \
    TEST_P(PairConformanceTest, name) { name##Check(fx, 2, GetParam()); } \
    TEST_P(NdsmConformanceTest, name) { name##Check(fx, 3, GetParam()); } \
    void name##Check([[maybe_unused]] wl::DsmRig &fx, std::size_t n,    \
                     [[maybe_unused]] ProtocolKind proto)

/** Every kernel writes in turn: exactly the last writer may write, and
 *  the directory (or log) records it as the owner. */
void
checkOwnershipRing(wl::DsmRig &fx, std::size_t n)
{
    Dsm &dsm = *fx.dsm;
    for (std::size_t r = 0; r < 3 * n; ++r) {
        const std::size_t w = r % n;
        fx.touch(w, 11, Access::Write);
        EXPECT_EQ(dsm.ownerOf(11), w);
        for (std::size_t k = 0; k < n; ++k)
            EXPECT_EQ(dsm.isLocallyValid(k, 11, Access::Write), k == w);
    }
    // Every kernel but the initial owner faulted at least once.
    for (std::size_t k = 1; k < n; ++k)
        EXPECT_GE(dsm.faultStats(k).faults.value(), 1u);
}

TEST_P(PairConformanceTest, OneWriterInvariantUnderPingPong)
{
    checkOwnershipRing(fx, 2);
}

TEST_P(NdsmConformanceTest, WriteOwnershipRingAcrossThreeDomains)
{
    checkOwnershipRing(fx, 3);
}

CONFORMANCE_TEST(ReadYourWrites)
{
    Dsm &dsm = *fx.dsm;
    const std::size_t k = n - 1;
    fx.touch(k, 5, Access::Write);
    const std::uint64_t faults = dsm.faultStats(k).faults.value();
    // A kernel always sees its own writes without another fault.
    fx.touch(k, 5, Access::Read);
    fx.touch(k, 5, Access::Read);
    EXPECT_EQ(dsm.faultStats(k).faults.value(), faults);
    EXPECT_TRUE(dsm.isLocallyValid(k, 5, Access::Read));
}

CONFORMANCE_TEST(WriterRereadAfterPeerRead)
{
    Dsm &dsm = *fx.dsm;
    fx.touch(0, 7, Access::Write);
    fx.touch(n - 1, 7, Access::Read); // a peer pulls the page
    const std::uint64_t faults = dsm.faultStats(0).faults.value();
    fx.touch(0, 7, Access::Read);
    if (proto == ProtocolKind::TwoState) {
        // Migratory: the peer's read took exclusive ownership, so the
        // writer's re-read faults the page back.
        EXPECT_EQ(dsm.faultStats(0).faults.value(), faults + 1);
    } else {
        // Read-sharing (MSI/MESI/MOESI keep the writer a sharer; RAC
        // keeps it the log owner): the re-read stays local.
        EXPECT_EQ(dsm.faultStats(0).faults.value(), faults);
    }
}

CONFORMANCE_TEST(SeededFuzzCompletesAndKeepsOneWriter)
{
    for (const std::uint64_t seed : {7ull, 101ull, 4242ull}) {
        wl::DsmRig rig(n, proto, 64);
        Dsm &dsm = *rig.dsm;
        sim::Rng rng(seed);
        // Shadow data model: each page's value is the step number of
        // its last write, and the page's most recent accessor is
        // recorded. Every completed write must make the writer the
        // page's owner/log writer, and a read by the most recent
        // accessor must be served from its own fresh copy -- no
        // fault, no protocol messages. (That is the strongest freshness
        // property every zoo member shares: read-your-writes, plus
        // read-your-reads for the migratory protocol, where a peer's
        // read would have stolen exclusive ownership.)
        std::map<std::uint64_t, std::uint64_t> truth;
        std::map<std::uint64_t, std::size_t> last_accessor;
        int issued = 0;
        int completed = 0;
        for (int step = 0; step < 150; ++step) {
            const auto k = static_cast<std::size_t>(rng.below(n));
            const std::uint64_t page = rng.below(8);
            const Access rw =
                rng.below(4) == 0 ? Access::Read : Access::Write;
            const bool own_read = rw == Access::Read &&
                                  last_accessor.count(page) &&
                                  last_accessor[page] == k;
            const std::uint64_t faults0 = dsm.faultStats(k).faults.value();
            const std::uint64_t msgs0 = dsm.messagesSent();
            ++issued;
            rig.kernels[k]->spawnThread(
                rig.proc.get(), "t", ThreadKind::Normal,
                [&, k, page, rw, step](Thread &t) -> Task<void> {
                    co_await dsm.access(t.kernel(), t.core(), page, rw);
                    if (rw == Access::Write) {
                        truth[page] = static_cast<std::uint64_t>(step);
                        EXPECT_EQ(dsm.ownerOf(page), k);
                    }
                    last_accessor[page] = k;
                    ++completed;
                });
            rig.eng.run();
            if (own_read) {
                EXPECT_EQ(dsm.faultStats(k).faults.value(), faults0)
                    << "seed " << seed << " step " << step;
                EXPECT_EQ(dsm.messagesSent(), msgs0);
            }
        }
        EXPECT_EQ(completed, issued) << "seed " << seed;
        // 2 protocol messages per simple transfer; directory fan-out
        // adds invalidations but stays bounded.
        std::uint64_t faults = 0;
        for (std::size_t k = 0; k < n; ++k)
            faults += dsm.faultStats(k).faults.value();
        EXPECT_LE(dsm.messagesSent(), 6 * faults + 8);
    }
}

CONFORMANCE_TEST(ConcurrentWritersSerialise)
{
    int done = 0;
    for (std::size_t k = 0; k < n; ++k) {
        fx.kernels[k]->spawnThread(
            fx.proc.get(), "w", ThreadKind::Normal,
            [&fx, &done](Thread &t) -> Task<void> {
                co_await fx.dsm->access(t.kernel(), t.core(), 23,
                                        Access::Write);
                ++done;
            });
    }
    fx.eng.run();
    EXPECT_EQ(done, static_cast<int>(n));
    const std::size_t owner = fx.dsm->ownerOf(23);
    ASSERT_LT(owner, n);
    for (std::size_t k = 0; k < n; ++k) {
        EXPECT_EQ(fx.dsm->isLocallyValid(k, 23, Access::Write),
                  k == owner);
    }
}

CONFORMANCE_TEST(ConcurrentFuzzCompletesAndKeepsOneWriter)
{
    // Racing faults: every access of a seeded batch is in flight at
    // once, several per kernel and per page. All must complete, and
    // at quiescence at most one kernel may write each page.
    for (const std::uint64_t seed : {3ull, 58ull, 977ull}) {
        wl::DsmRig rig(n, proto, 64);
        sim::Rng rng(seed);
        int completed = 0;
        constexpr int kAccesses = 60;
        for (int i = 0; i < kAccesses; ++i) {
            const auto k = static_cast<std::size_t>(rng.below(n));
            const std::uint64_t page = rng.below(4);
            const Access rw =
                rng.below(3) == 0 ? Access::Read : Access::Write;
            rig.kernels[k]->spawnThread(
                rig.proc.get(), "t", ThreadKind::Normal,
                [&rig, &completed, page, rw](Thread &t) -> Task<void> {
                    co_await rig.dsm->access(t.kernel(), t.core(), page,
                                             rw);
                    ++completed;
                });
        }
        rig.eng.run();
        EXPECT_EQ(completed, kAccesses) << "seed " << seed;
        for (std::uint64_t page = 0; page < 4; ++page) {
            std::size_t writers = 0;
            for (std::size_t k = 0; k < n; ++k)
                writers += rig.dsm->isLocallyValid(k, page, Access::Write);
            EXPECT_LE(writers, 1u) << "seed " << seed << " page " << page;
        }
    }
}

CONFORMANCE_TEST(ReclaimMovesOwnershipToSurvivor)
{
    Dsm &dsm = *fx.dsm;
    // Kernel 1 crashes holding pages 4 and 9; page 30 stays with a
    // live kernel (the third domain, or the survivor itself).
    const std::size_t keeper = n >= 3 ? 2 : 0;
    fx.touch(1, 4, Access::Write);
    fx.touch(1, 9, Access::Write);
    fx.touch(keeper, 30, Access::Write);
    const auto moved = dsm.reclaimFrom(1, 0);
    ASSERT_EQ(moved.size(), 2u);
    EXPECT_EQ(moved[0], 4u);
    EXPECT_EQ(moved[1], 9u);
    EXPECT_EQ(dsm.ownerOf(4), 0u);
    EXPECT_EQ(dsm.ownerOf(9), 0u);
    EXPECT_EQ(dsm.ownerOf(30), keeper);
    // The survivors (and the revived kernel) keep making progress on
    // the reclaimed pages.
    fx.touch(n - 1, 4, Access::Write);
    EXPECT_EQ(dsm.ownerOf(4), n - 1);
}

CONFORMANCE_TEST(ColdBootReplaysIdentically)
{
    // Two freshly booted rigs run the same traffic; protocol state,
    // statistics and clocks must agree bit for bit.
    auto run = [n](wl::DsmRig &rig) {
        rig.touch(1, 2, Access::Write);
        rig.touch(n - 1, 2, Access::Read);
        for (std::size_t r = 0; r < 12; ++r) {
            rig.touch(r % n, r % 4,
                      r % 3 == 0 ? Access::Read : Access::Write);
        }
        obs::MetricsRegistry reg;
        rig.dsm->registerMetrics(reg, "os.dsm");
        std::string out = reg.snapshot().toJson();
        for (std::uint64_t page = 0; page < 4; ++page)
            out += " " + std::to_string(rig.dsm->ownerOf(page));
        return out + "@" + std::to_string(rig.eng.now());
    };
    wl::DsmRig twin(n, proto, 64);
    EXPECT_EQ(run(fx), run(twin));
}

/** The two-domain DSM inside a whole K2System under one zoo protocol:
 *  its mail arrives through the system's dispatcher, and it is part of
 *  the system's metrics. */
class SystemConformanceTest : public ::testing::TestWithParam<ProtocolKind>
{
  protected:
    SystemConformanceTest() { boot(); }

    void
    boot()
    {
        K2Config cfg;
        cfg.soc.costs.inactiveTimeout = 0;
        cfg.dsmProtocol = GetParam();
        k2sys = std::make_unique<K2System>(cfg);
        proc = &k2sys->createProcess("app");
    }

    void
    touch(std::size_t k, std::uint64_t page, Access rw)
    {
        kern::Kernel &kern =
            k == 0 ? k2sys->mainKernel() : k2sys->shadowKernel();
        kern.spawnThread(proc, "t", ThreadKind::Normal,
                         [this, page, rw](Thread &t) -> Task<void> {
                             co_await k2sys->dsm().access(
                                 t.kernel(), t.core(), page, rw);
                         });
        k2sys->ownedEngine().run();
    }

    std::unique_ptr<K2System> k2sys;
    kern::Process *proc = nullptr;
};

TEST_P(SystemConformanceTest, OneWriterInvariantUnderPingPong)
{
    Dsm &dsm = k2sys->dsm();
    for (std::size_t round = 0; round < 8; ++round) {
        const std::size_t w = 1 - round % 2;
        touch(w, 3, Access::Write);
        EXPECT_EQ(dsm.ownerOf(3), w);
        EXPECT_TRUE(dsm.isLocallyValid(w, 3, Access::Write));
        EXPECT_FALSE(dsm.isLocallyValid(1 - w, 3, Access::Write));
    }

    // The system registers the DSM's counters, the protocol's own
    // included.
    obs::MetricsRegistry reg;
    k2sys->registerMetrics(reg);
    const obs::MetricsSnapshot snap = reg.snapshot();
    const obs::MetricValue *msgs = snap.find("os.dsm.messages");
    ASSERT_NE(msgs, nullptr);
    EXPECT_GT(msgs->count, 0u);
    EXPECT_EQ(msgs->count, dsm.messagesSent());
    if (GetParam() != ProtocolKind::TwoState) {
        EXPECT_TRUE(snap.hasPrefix(std::string("os.dsm.") +
                                   coherence::protocolName(GetParam()) +
                                   "."));
    }
}

TEST_P(SystemConformanceTest, ColdBootReplaysIdentically)
{
    auto run = [this] {
        touch(1, 2, Access::Write);
        touch(0, 2, Access::Read);
        for (std::size_t r = 0; r < 10; ++r) {
            touch(r % 2, r % 3,
                  r % 4 == 0 ? Access::Read : Access::Write);
        }
        obs::MetricsRegistry reg;
        k2sys->registerMetrics(reg);
        return reg.snapshot().toJson() + "@" +
               std::to_string(k2sys->engine().now());
    };
    const std::string first = run();
    boot();
    EXPECT_EQ(first, run());
}

std::string
zooName(const ::testing::TestParamInfo<ProtocolKind> &info)
{
    return coherence::protocolName(info.param);
}

INSTANTIATE_TEST_SUITE_P(Zoo, PairConformanceTest,
                         ::testing::ValuesIn(coherence::allProtocols()),
                         zooName);
INSTANTIATE_TEST_SUITE_P(Zoo, NdsmConformanceTest,
                         ::testing::ValuesIn(coherence::allProtocols()),
                         zooName);
INSTANTIATE_TEST_SUITE_P(Zoo, SystemConformanceTest,
                         ::testing::ValuesIn(coherence::allProtocols()),
                         zooName);

} // namespace
} // namespace k2::os
