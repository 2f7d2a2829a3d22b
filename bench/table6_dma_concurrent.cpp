/**
 * @file
 * Table 6: DMA throughput when the (shadowed) DMA driver is invoked in
 * both K2 kernels concurrently, vs. the original Linux using the
 * strong domain only. In MB/s.
 *
 * Paper values:
 *   BatchSize      4K     128K    256K    1M
 *   Linux         37.8    40.3    40.3    40.5
 *   K2            35.7    39.9    40.5    43.1  (-5.5% .. +6.4%)
 *   K2:Main       35.6    28.4    28.6    28.8
 *   K2:Shadow      0.1    11.5    11.9    14.3
 *
 * Shape: at small batches the benchmark is CPU-bound, the weak kernel
 * barely competes, and coherence overhead costs K2 a few percent; at
 * large batches it is IO-bound, the shadow kernel wins engine
 * bandwidth, and the higher engine utilisation slightly *raises*
 * total throughput over single-kernel Linux.
 */

#include <cstdio>
#include <vector>

#include "workloads/episode.h"
#include "workloads/report.h"
#include "workloads/sweep.h"
#include "workloads/testbed.h"

namespace {

using namespace k2;
using kern::Thread;
using kern::ThreadKind;
using sim::Task;

struct Result
{
    double linux_mbps;
    double k2_total;
    double k2_main;
    double k2_shadow;
};

/** Run transfers of @p batch bytes at full speed until @p deadline. */
wl::Workload
saturate(svc::DmaDriver &dma, std::uint64_t batch, sim::Time deadline)
{
    return [&dma, batch, deadline](
               Thread &t) -> sim::Task<std::uint64_t> {
        std::uint64_t moved = 0;
        while (t.kernel().engine().now() < deadline) {
            co_await dma.transfer(t, batch);
            moved += batch;
        }
        co_return moved;
    };
}

constexpr sim::Duration kWindow = sim::sec(2);

/** Baseline Linux: one driver loop on the strong domain. */
void
runLinuxCase(std::uint64_t batch, Result &res)
{
    baseline::LinuxConfig cfg;
    cfg.soc.costs.inactiveTimeout = 0;
    wl::Testbed tb = wl::Testbed::makeLinux(std::move(cfg));
    const sim::Time deadline = tb.engine().now() + kWindow;
    std::uint64_t bytes = 0;
    tb.sys().spawnNormal(tb.proc(), "dma",
                         [&, batch](Thread &t) -> Task<void> {
                             bytes = co_await saturate(
                                 tb.dma(), batch, deadline)(t);
                         });
    tb.engine().run();
    res.linux_mbps = bytes / sim::toSec(kWindow) / 1e6;
}

/** K2: both kernels at full speed (separate processes, so
 *  multi-domain parallelism is allowed, §4.3). */
void
runK2Case(std::uint64_t batch, Result &res)
{
    os::K2Config cfg;
    cfg.soc.costs.inactiveTimeout = 0;
    wl::Testbed tb = wl::Testbed::makeK2(std::move(cfg));
    auto &proc2 = tb.sys().createProcess("shadow-load");
    const sim::Time deadline = tb.engine().now() + kWindow;
    std::uint64_t main_bytes = 0;
    std::uint64_t shadow_bytes = 0;
    tb.sys().mainKernel().spawnThread(
        &tb.proc(), "dma-main", ThreadKind::Normal,
        [&, batch](Thread &t) -> Task<void> {
            main_bytes =
                co_await saturate(tb.dma(), batch, deadline)(t);
        });
    tb.k2()->shadowKernel().spawnThread(
        &proc2, "dma-shadow", ThreadKind::Normal,
        [&, batch](Thread &t) -> Task<void> {
            shadow_bytes =
                co_await saturate(tb.dma(), batch, deadline)(t);
        });
    tb.engine().run();
    res.k2_main = main_bytes / sim::toSec(kWindow) / 1e6;
    res.k2_shadow = shadow_bytes / sim::toSec(kWindow) / 1e6;
    res.k2_total = res.k2_main + res.k2_shadow;
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned jobs = wl::parseJobsFlag(argc, argv);
    if (wl::unknownArgs(argc, argv))
        return 2;

    wl::banner("Table 6: concurrent DMA throughput (MB/s)");

    const std::uint64_t batches[] = {4096, 131072, 262144, 1048576};
    const char *labels[] = {"4K", "128K", "256K", "1M"};

    // The Linux and K2 measurements for one batch size use separate
    // testbeds, so each is its own sweep cell filling half a Result.
    wl::SweepRunner runner(jobs);
    std::vector<Result> results(std::size(batches));
    for (std::size_t i = 0; i < std::size(batches); ++i) {
        const std::uint64_t batch = batches[i];
        runner.submit([&results, i, batch]() {
            runLinuxCase(batch, results[i]);
        });
        runner.submit([&results, i, batch]() {
            runK2Case(batch, results[i]);
        });
    }
    runner.run();

    wl::Table table({"DMA BatchSize", "Linux", "K2", "K2 vs Linux",
                     "K2:Main", "K2:Shadow"});
    for (std::size_t i = 0; i < std::size(batches); ++i) {
        const Result &r = results[i];
        const double delta =
            (r.k2_total - r.linux_mbps) / r.linux_mbps * 100.0;
        table.addRow({labels[i], wl::fmt(r.linux_mbps, 1),
                      wl::fmt(r.k2_total, 1),
                      (delta >= 0 ? "+" : "") + wl::fmt(delta, 1) + "%",
                      wl::fmt(r.k2_main, 1), wl::fmt(r.k2_shadow, 1)});
    }
    table.print();
    std::printf("\npaper: Linux 37.8-40.5; K2 within -5.5%%..+6.4%% of "
                "Linux, main/shadow split shifting toward the shadow "
                "kernel as batches grow IO-bound\n");
    return 0;
}
