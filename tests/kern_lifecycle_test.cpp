/**
 * @file
 * Thread lifecycle: spawn -> run -> reap -> free.
 *
 * The scheduler frees each thread when it reaps it, so a kernel's and
 * a process's thread tables hold only live threads and stay at their
 * post-boot size however many short-lived threads run. The NightWatch
 * count is the exception by design: it counts every NightWatch thread
 * ever added to a process, exited ones included, because the §8
 * gating decision reads it.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "os/k2_system.h"
#include "workloads/benchmarks.h"
#include "workloads/episode.h"
#include "workloads/testbed.h"

namespace k2 {
namespace {

using kern::Thread;
using kern::ThreadKind;
using sim::Task;

/** Thread-table sizes of every kernel, then of @p proc. */
std::vector<std::size_t>
tableSizes(os::SystemImage &sys, const kern::Process &proc)
{
    std::vector<std::size_t> sizes;
    for (kern::Kernel *k : sys.kernels())
        sizes.push_back(k->threads().size());
    sizes.push_back(proc.threads().size());
    return sizes;
}

/** Episode @p i of the testbed binary's dma/ext2/udp rotation. */
wl::EpisodeResult
mixedEpisode(wl::Testbed &tb, int i)
{
    const std::uint64_t bytes = 1024 + static_cast<std::uint64_t>(i) * 97;
    switch (i % 3) {
      case 0:
        return wl::runEpisode(tb.sys(), tb.proc(), "dma",
                              wl::dmaCopy(tb.dma(), 4096, bytes));
      case 1:
        return wl::runEpisode(tb.sys(), tb.proc(), "ext2",
                              wl::ext2Sync(tb.fs(), bytes, 2));
      default:
        return wl::runEpisode(tb.sys(), tb.proc(), "udp",
                              wl::udpLoopback(tb.udp(), 8192, bytes));
    }
}

TEST(ThreadLifecycle, TestbedEpisodesKeepTablesAtBootSize)
{
    auto tb = wl::Testbed::makeK2();
    tb.engine().run();
    const auto boot = tableSizes(tb.sys(), tb.proc());
    const std::size_t nwBefore = tb.proc().numNightWatch();

    constexpr int kEpisodes = 2000;
    for (int i = 0; i < kEpisodes; ++i)
        ASSERT_GT(mixedEpisode(tb, i).bytes, 0u) << "episode " << i;

    EXPECT_EQ(tableSizes(tb.sys(), tb.proc()), boot);
    // One NightWatch thread per episode, all exited and freed, all
    // still counted.
    EXPECT_EQ(tb.proc().numNightWatch(), nwBefore + kEpisodes);
}

TEST(ThreadLifecycle, DsmWriteFaultsKeepTablesAtBootSize)
{
    os::K2Config cfg;
    cfg.soc.costs.inactiveTimeout = 0;
    os::K2System sys(cfg);
    auto &proc = sys.createProcess("faults");
    sys.engine().run();
    const auto boot = tableSizes(sys, proc);

    // Write ping-pong: every thread takes the full fault path. The
    // shadow side's faults run as NightWatch threads, so every main
    // thread's context switch also exercises §8 gating.
    constexpr int kFaults = 2000;
    int completed = 0;
    auto body = [&](Thread &t) -> Task<void> {
        co_await sys.dsm().access(t.kernel(), t.core(), 1,
                                  os::Access::Write);
        ++completed;
    };
    for (int i = 0; i < kFaults; ++i) {
        if (i % 2 == 0)
            sys.spawnNightWatch(proc, "nw-fault", body);
        else
            sys.spawnNormal(proc, "fault", body);
        sys.engine().run();
    }

    EXPECT_EQ(completed, kFaults);
    EXPECT_EQ(tableSizes(sys, proc), boot);
    EXPECT_EQ(proc.numNightWatch(), static_cast<std::size_t>(kFaults / 2));
    EXPECT_GT(sys.nightWatch().suspendsSent.value(), 0u);
}

TEST(ThreadLifecycle, NightWatchCountIsStickyAcrossExit)
{
    sim::Engine eng;
    soc::Soc soc(eng, soc::omap4Config());
    kern::Kernel kernel(soc, soc::kWeakDomain, "shadow");
    kernel.boot();
    kern::Process proc(1, "app");

    for (int i = 0; i < 3; ++i)
        kernel.spawnThread(&proc, "nw", ThreadKind::NightWatch,
                           [](Thread &self) -> Task<void> {
                               co_await self.exec(1000);
                           });
    kernel.spawnThread(&proc, "normal", ThreadKind::Normal,
                       [](Thread &self) -> Task<void> {
                           co_await self.exec(1000);
                       });
    EXPECT_EQ(proc.threads().size(), 4u);
    EXPECT_EQ(proc.numNightWatch(), 3u);
    eng.run();
    EXPECT_TRUE(proc.threads().empty());
    EXPECT_TRUE(kernel.threads().empty());
    EXPECT_EQ(proc.numNightWatch(), 3u);
}

} // namespace
} // namespace k2
