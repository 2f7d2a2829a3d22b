/**
 * @file
 * §11 wishlist ablation: "the following architectural features will
 * greatly benefit system performance and efficiency, yet are still
 * missing in today's multi-domain SoCs: direct channels for
 * inter-domain communication that bypass the system interconnect,
 * efficient MMUs for weak domains with permission support, and
 * finer-grained power domains."
 *
 * Each wish is granted in isolation and its effect measured:
 *  1. direct channels  -> mailbox one-way latency 2.5 us -> 0.25 us;
 *     measure the DSM fault round trip.
 *  2. efficient weak MMU -> the M3 gets a single-level MMU with
 *     permissions; measure the three-state protocol's read-mostly
 *     sharing (now viable).
 *  3. finer-grained power domains -> the strong domain's uncore can
 *     gate with the cores it serves; measure a light-task episode.
 */

#include <cstdio>

#include "os/k2_system.h"
#include "workloads/benchmarks.h"
#include "workloads/report.h"
#include "workloads/sweep.h"
#include "workloads/testbed.h"

namespace {

using namespace k2;
using kern::Thread;
using kern::ThreadKind;
using sim::Task;

/** Mean weak-kernel fault latency under ping-pong. */
double
faultUs(os::K2Config cfg)
{
    cfg.soc.costs.inactiveTimeout = 0;
    os::K2System sys(std::move(cfg));
    sys.ownedEngine().run(); // Let the boot daemons park first.
    auto &proc = sys.createProcess("bench");
    for (int round = 0; round < 20; ++round) {
        kern::Kernel &kern = (round % 2 == 0) ? sys.shadowKernel()
                                              : sys.mainKernel();
        kern.spawnThread(&proc, "t", ThreadKind::Normal,
                         [&](Thread &t) -> Task<void> {
                             co_await sys.dsm().access(
                                 t.kernel(), t.core(), 1,
                                 os::Access::Write);
                         });
        sys.ownedEngine().run();
    }
    return sys.dsm().faultStats(1).totalUs.mean();
}

/** Mean read-mostly three-state access latency. */
double
readShareUs(os::K2Config cfg)
{
    cfg.soc.costs.inactiveTimeout = 0;
    cfg.dsmProtocol = os::coherence::ProtocolKind::ThreeState;
    os::K2System sys(std::move(cfg));
    sys.ownedEngine().run();
    auto &proc = sys.createProcess("bench");
    sim::Duration total = 0;
    constexpr int kRounds = 32;
    for (int round = 0; round < kRounds; ++round) {
        kern::Kernel &kern = (round % 2 == 0) ? sys.shadowKernel()
                                              : sys.mainKernel();
        const os::Access rw =
            (round % 16 == 0) ? os::Access::Write : os::Access::Read;
        kern.spawnThread(&proc, "t", ThreadKind::Normal,
                         [&, rw](Thread &t) -> Task<void> {
                             const sim::Time t0 = sys.engine().now();
                             co_await sys.dsm().access(
                                 t.kernel(), t.core(), 1, rw);
                             total += sys.engine().now() - t0;
                         });
        sys.ownedEngine().run();
    }
    return sim::toUsec(total) / kRounds;
}

/** MB/J of the small DMA episode. */
double
episodeMbPerJoule(os::K2Config cfg)
{
    wl::Testbed tb = wl::Testbed::makeK2(std::move(cfg));
    return wl::runEpisodeWarm(tb.sys(), tb.proc(), "dma",
                              wl::dmaCopy(tb.dma(), 4096, 256 * 1024))
        .mbPerJoule();
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned jobs = wl::parseJobsFlag(argc, argv);
    if (wl::unknownArgs(argc, argv))
        return 2;

    wl::banner("Ablation (§11): the architectural features K2 wishes "
               "for");

    // Six independent measurements (3 wishes x {today, with feature}),
    // each on its own K2System: one sweep cell apiece.
    wl::SweepRunner runner(jobs);
    double ch_today = 0, ch_with = 0;
    double mmu_today = 0, mmu_with = 0;
    double pw_today = 0, pw_with = 0;

    runner.submit([&ch_today]() { ch_today = faultUs({}); });
    runner.submit([&ch_with]() {
        os::K2Config direct;
        direct.soc.costs.mailboxOneWay = sim::nsec(250);
        ch_with = faultUs(std::move(direct));
    });
    runner.submit([&mmu_today]() { mmu_today = readShareUs({}); });
    runner.submit([&mmu_with]() {
        os::K2Config mmu;
        mmu.soc.domains[soc::kWeakDomain].core.mmu =
            soc::MmuKind::SingleLevel;
        mmu.soc.domains[soc::kWeakDomain].core.l1TlbEntries = 32;
        mmu_with = readShareUs(std::move(mmu));
    });
    runner.submit([&pw_today]() { pw_today = episodeMbPerJoule({}); });
    runner.submit([&pw_with]() {
        os::K2Config fine;
        // Finer-grained power domains: the strong uncore gates with
        // its cores instead of burning whenever the SoC is up, and
        // the weak domain's rail can drop its share too.
        fine.soc.domains[soc::kStrongDomain].uncoreActiveMw = 4.0;
        fine.soc.domains[soc::kWeakDomain].uncoreActiveMw = 0.4;
        pw_with = episodeMbPerJoule(std::move(fine));
    });
    runner.run();

    wl::Table table({"Wish granted", "Metric", "Today", "With feature",
                     "Gain"});
    table.addRow({"direct inter-domain channels",
                  "weak-kernel DSM fault (us)", wl::fmt(ch_today, 1),
                  wl::fmt(ch_with, 1),
                  wl::fmt(ch_today / ch_with, 2) + "x"});
    table.addRow({"weak-domain MMU with permissions",
                  "read-mostly MSI sharing (us/access)",
                  wl::fmt(mmu_today, 1), wl::fmt(mmu_with, 1),
                  wl::fmt(mmu_today / mmu_with, 2) + "x"});
    table.addRow({"finer-grained power domains",
                  "light-task efficiency (MB/J)", wl::fmt(pw_today, 2),
                  wl::fmt(pw_with, 2),
                  wl::fmt(pw_with / pw_today, 2) + "x"});
    table.print();

    std::printf("\nEach feature attacks a different term: channels cut "
                "coherence latency, weak-MMU permissions make "
                "read-sharing protocols viable, finer power domains "
                "shrink the idle tail that dominates light-task "
                "energy.\n");
    return 0;
}
