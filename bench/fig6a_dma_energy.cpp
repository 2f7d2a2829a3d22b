/**
 * @file
 * Figure 6(a): energy efficiency of the DMA driver benchmark, K2 vs
 * Linux, across (BatchSize, TotalSize) pairs.
 *
 * Each run wakes the cores, executes repeated memory-to-memory DMA
 * transfers (BatchSize bytes per transfer, TotalSize per run) as fast
 * as possible, then idles until the cores power-gate; efficiency is
 * transferred bytes per joule over the whole episode. Paper result:
 * K2 improves efficiency by up to ~9x, with the advantage growing as
 * the workload becomes more IO-bound (larger batches) or the run
 * shrinks (idle-tail dominated).
 */

#include <cstdio>
#include <vector>

#include "workloads/benchmarks.h"
#include "workloads/report.h"
#include "workloads/sweep.h"
#include "workloads/testbed.h"

namespace {

struct Case
{
    std::uint64_t batch;
    std::uint64_t total;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace k2;

    const unsigned jobs = wl::parseJobsFlag(argc, argv);
    if (wl::unknownArgs(argc, argv))
        return 2;

    wl::banner("Figure 6(a): DMA energy efficiency (MB/J)");

    const Case cases[] = {
        {4096, 64 * 1024},        {4096, 256 * 1024},
        {65536, 1024 * 1024},     {262144, 1024 * 1024},
        {1048576, 4 * 1048576},
    };

    // One sweep cell per (case, system), each on a freshly booted
    // testbed.
    wl::SweepRunner runner(jobs);
    std::vector<wl::EpisodeResult> k2res(std::size(cases));
    std::vector<wl::EpisodeResult> lxres(std::size(cases));
    for (std::size_t i = 0; i < std::size(cases); ++i) {
        const Case c = cases[i];
        runner.submit([&k2res, i, c]() {
            wl::Testbed tb = wl::Testbed::makeK2();
            k2res[i] =
                wl::runEpisodeWarm(tb.sys(), tb.proc(), "dma",
                                   wl::dmaCopy(tb.dma(), c.batch,
                                               c.total));
        });
        runner.submit([&lxres, i, c]() {
            wl::Testbed tb = wl::Testbed::makeLinux();
            lxres[i] =
                wl::runEpisodeWarm(tb.sys(), tb.proc(), "dma",
                                   wl::dmaCopy(tb.dma(), c.batch,
                                               c.total));
        });
    }
    runner.run();

    wl::Table table({"(BatchSize,TotalSize)", "K2 MB/J", "Linux MB/J",
                     "K2/Linux", "K2 MB/s", "Linux MB/s"});

    double best_gain = 0;
    for (std::size_t i = 0; i < std::size(cases); ++i) {
        const Case &c = cases[i];
        const double gain =
            k2res[i].mbPerJoule() / lxres[i].mbPerJoule();
        best_gain = std::max(best_gain, gain);
        table.addRow({"(" + wl::fmtBytes(c.batch) + "," +
                          wl::fmtBytes(c.total) + ")",
                      wl::fmt(k2res[i].mbPerJoule(), 2),
                      wl::fmt(lxres[i].mbPerJoule(), 2),
                      wl::fmt(gain, 1) + "x",
                      wl::fmt(k2res[i].mbPerSec(), 1),
                      wl::fmt(lxres[i].mbPerSec(), 1)});
    }
    table.print();
    std::printf("\npeak K2 advantage: %.1fx (paper: up to ~9x)\n",
                best_gain);
    return 0;
}
