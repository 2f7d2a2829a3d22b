/**
 * @file
 * Figure 6(c): energy efficiency of the UDP-loopback benchmark, K2 vs
 * Linux.
 *
 * Mimics light tasks fetching content from the cloud: a thread creates
 * two UDP sockets, writes to one and reads from the other for
 * TotalSize bytes at full speed, recreating the socket pair every
 * BatchSize bytes. Paper result: K2 up to ~10x better MB/J, with the
 * advantage largest when the total sent bytes per run are small.
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
    const char *label;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace k2;

    const unsigned jobs = wl::parseJobsFlag(argc, argv);
    if (wl::unknownArgs(argc, argv))
        return 2;

    wl::banner("Figure 6(c): UDP loopback energy efficiency (MB/J)");

    const Case cases[] = {
        {1024, 16 * 1024, "(1K,16K) emails"},
        {65536, 256 * 1024, "(64K,256K) pictures"},
        {262144, 1024 * 1024, "(256K,1M) media"},
        {1048576, 4 * 1048576, "(1M,4M) bulk"},
    };

    wl::SweepRunner runner(jobs);
    std::vector<wl::EpisodeResult> k2res(std::size(cases));
    std::vector<wl::EpisodeResult> lxres(std::size(cases));
    for (std::size_t i = 0; i < std::size(cases); ++i) {
        const Case c = cases[i];
        runner.submit([&k2res, i, c]() {
            wl::Testbed tb = wl::Testbed::makeK2();
            k2res[i] = wl::runEpisodeWarm(
                tb.sys(), tb.proc(), "udp",
                wl::udpLoopback(tb.udp(), c.batch, c.total));
        });
        runner.submit([&lxres, i, c]() {
            wl::Testbed tb = wl::Testbed::makeLinux();
            lxres[i] = wl::runEpisodeWarm(
                tb.sys(), tb.proc(), "udp",
                wl::udpLoopback(tb.udp(), c.batch, c.total));
        });
    }
    runner.run();

    wl::Table table({"(BatchSize,TotalSize)", "K2 MB/J", "Linux MB/J",
                     "K2/Linux", "K2 MB/s", "Linux MB/s"});

    double best_gain = 0;
    for (std::size_t i = 0; i < std::size(cases); ++i) {
        const double gain =
            k2res[i].mbPerJoule() / lxres[i].mbPerJoule();
        best_gain = std::max(best_gain, gain);
        table.addRow({cases[i].label,
                      wl::fmt(k2res[i].mbPerJoule(), 2),
                      wl::fmt(lxres[i].mbPerJoule(), 2),
                      wl::fmt(gain, 1) + "x",
                      wl::fmt(k2res[i].mbPerSec(), 1),
                      wl::fmt(lxres[i].mbPerSec(), 1)});
    }
    table.print();
    std::printf("\npeak K2 advantage: %.1fx (paper: up to ~10x)\n",
                best_gain);
    return 0;
}
