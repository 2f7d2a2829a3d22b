/**
 * @file
 * Figure 6(b): energy efficiency of the ext2 benchmark, K2 vs Linux.
 *
 * Mimics a light task synchronising content from the cloud: per run, a
 * thread operates on eight files sequentially -- create, write, close
 * -- on an ext2 filesystem over a ramdisk. File sizes represent
 * content types: 1 KB (emails), 256 KB (pictures), 1 MB (short
 * videos). Paper result: K2 up to ~8x better MB/J.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "os/coherence/protocol.h"
#include "workloads/benchmarks.h"
#include "workloads/report.h"
#include "workloads/sweep.h"
#include "workloads/testbed.h"

int
main(int argc, char **argv)
{
    using namespace k2;

    const unsigned jobs = wl::parseJobsFlag(argc, argv);
    auto dsm = os::coherence::ProtocolKind::TwoState;
    const bool dsmSet = wl::parseDsmFlag(argc, argv, dsm);
    if (wl::unknownArgs(argc, argv))
        return 2;

    wl::banner("Figure 6(b): ext2 energy efficiency (MB/J), "
               "8 files per run");
    if (dsmSet)
        std::printf("DSM protocol: %s\n\n",
                    os::coherence::protocolName(dsm));

    const std::uint64_t sizes[] = {1024, 256 * 1024, 1024 * 1024};
    const char *labels[] = {"1KB (emails)", "256KB (pictures)",
                            "1MB (short videos)"};

    wl::SweepRunner runner(jobs);
    std::vector<wl::EpisodeResult> k2res(std::size(sizes));
    std::vector<wl::EpisodeResult> lxres(std::size(sizes));
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
        const std::uint64_t size = sizes[i];
        runner.submit([&k2res, dsm, i, size]() {
            os::K2Config cfg;
            cfg.dsmProtocol = dsm;
            wl::Testbed tb = wl::Testbed::makeK2(std::move(cfg));
            k2res[i] = wl::runEpisodeWarm(tb.sys(), tb.proc(), "ext2",
                                          wl::ext2Sync(tb.fs(), size));
        });
        runner.submit([&lxres, i, size]() {
            wl::Testbed tb = wl::Testbed::makeLinux();
            lxres[i] = wl::runEpisodeWarm(tb.sys(), tb.proc(), "ext2",
                                          wl::ext2Sync(tb.fs(), size));
        });
    }
    runner.run();

    wl::Table table({"Single file size", "K2 MB/J", "Linux MB/J",
                     "K2/Linux", "K2 MB/s", "Linux MB/s"});

    double best_gain = 0;
    for (std::size_t i = 0; i < std::size(sizes); ++i) {
        const double gain =
            k2res[i].mbPerJoule() / lxres[i].mbPerJoule();
        best_gain = std::max(best_gain, gain);
        table.addRow({labels[i], wl::fmt(k2res[i].mbPerJoule(), 2),
                      wl::fmt(lxres[i].mbPerJoule(), 2),
                      wl::fmt(gain, 1) + "x",
                      wl::fmt(k2res[i].mbPerSec(), 1),
                      wl::fmt(lxres[i].mbPerSec(), 1)});
    }
    table.print();
    std::printf("\npeak K2 advantage: %.1fx (paper: up to ~8x)\n",
                best_gain);
    return 0;
}
