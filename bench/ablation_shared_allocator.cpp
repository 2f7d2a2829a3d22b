/**
 * @file
 * §9.3 contrast experiment: what happens if the page allocator is made
 * a *shadowed* service instead of an independent one.
 *
 * Paper: "The contention between coherence domains is very high,
 * incurring four to five DSM page faults in every allocation, leading
 * to a 200x slowdown."
 *
 * Method: both kernels allocate and free pages concurrently (the
 * contended case the paper describes); we report the mean *allocation*
 * latency seen by the main kernel under each design.
 */

#include <cstdio>

#include "baseline/shared_alloc_system.h"
#include "workloads/report.h"
#include "workloads/sweep.h"

namespace {

using namespace k2;
using kern::Thread;
using kern::ThreadKind;
using sim::Task;

struct Outcome
{
    double mainAllocUs;
    double shadowAllocUs;
    double faultsPerOp;
};

template <typename System>
Outcome
contendedAlloc(System &sys, int rounds)
{
    auto &proc = sys.createProcess("bench");
    sim::Duration main_total = 0;
    sim::Duration shadow_total = 0;
    std::uint64_t ops = 0;

    auto hammer = [&](kern::Kernel &kern,
                      sim::Duration *bucket) -> void {
        kern.spawnThread(
            &proc, "alloc", ThreadKind::Normal,
            [&sys, bucket, rounds, &ops](Thread &t) -> Task<void> {
                for (int i = 0; i < rounds; ++i) {
                    const sim::Time t0 = sys.engine().now();
                    auto r = co_await sys.allocPages(t, 0);
                    *bucket += sys.engine().now() - t0;
                    ++ops;
                    K2_ASSERT(!r.empty());
                    co_await sys.freePages(t, r);
                    // Think time between allocations so the two
                    // kernels' requests interleave ("with allocation
                    // and free operations interleaved in practice",
                    // §9.3) -- the worst case for a shadowed
                    // allocator.
                    co_await t.sleep(sim::usec(120));
                }
            });
    };
    hammer(sys.mainKernel(), &main_total);
    hammer(sys.shadowKernel(), &shadow_total);
    sys.engine().run();

    const std::uint64_t faults =
        sys.dsm().faultStats(0).faults.value() +
        sys.dsm().faultStats(1).faults.value();
    return Outcome{sim::toUsec(main_total) / rounds,
                   sim::toUsec(shadow_total) / rounds,
                   static_cast<double>(faults) /
                       static_cast<double>(ops)};
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned jobs = wl::parseJobsFlag(argc, argv);
    if (wl::unknownArgs(argc, argv))
        return 2;

    wl::banner("Ablation (§9.3): page allocator as a shadowed service");

    constexpr int kRounds = 50;
    Outcome sh{}, in{};

    wl::SweepRunner runner(jobs);
    os::K2Config cfg;
    cfg.soc.costs.inactiveTimeout = 0;
    runner.submit([&sh, cfg]() {
        baseline::SharedAllocSystem shared(cfg);
        shared.engine().run(); // Let the boot daemons park first.
        sh = contendedAlloc(shared, kRounds);
    });
    runner.submit([&in, cfg]() {
        os::K2System independent(cfg);
        independent.engine().run();
        in = contendedAlloc(independent, kRounds);
    });
    runner.run();

    wl::Table table({"Design", "Main alloc (us)", "Shadow alloc (us)",
                     "DSM faults/op", "Main slowdown"});
    table.addRow({"independent instances (K2)", wl::fmt(in.mainAllocUs, 1),
                  wl::fmt(in.shadowAllocUs, 1),
                  wl::fmt(in.faultsPerOp, 1), "1x"});
    table.addRow({"shadowed allocator", wl::fmt(sh.mainAllocUs, 1),
                  wl::fmt(sh.shadowAllocUs, 1),
                  wl::fmt(sh.faultsPerOp, 1),
                  wl::fmt(sh.mainAllocUs / in.mainAllocUs, 0) + "x"});
    table.print();

    std::printf("\npaper: 4-5 DSM faults per allocation, ~200x "
                "slowdown (plus frequent OS lockups, which a "
                "deterministic simulation cannot reproduce)\n");
    return 0;
}
