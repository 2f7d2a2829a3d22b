/**
 * @file
 * Table 5: breakdown of the latency of a DSM page fault, in us.
 *
 * Paper values (GetExclusive sender):
 *                          Main   Shadow
 *   Local fault handling     3      17
 *   Protocol execution       2      13
 *   Inter-domain comm        5       9
 *   Servicing request       24       7
 *   Exit fault, cache miss  18       2
 *   Total                   52      48
 *
 * The paper measures the two-state protocol; that is the default
 * output here, byte-identical to builds before the protocol zoo.
 * `--dsm=PROTO` breaks the same phases out for one alternative
 * protocol, `--dsm=all` for every registered protocol in turn
 * (write ping-pong is the worst case for the read-sharing protocols:
 * every round invalidates the other kernel's copy, and the weak
 * kernel additionally pays its MMU read-tracking penalty on entry).
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "os/coherence/protocol.h"
#include "os/k2_system.h"
#include "workloads/report.h"
#include "workloads/sweep.h"

namespace {

using namespace k2;
using kern::Thread;
using kern::ThreadKind;
using sim::Task;

/** Ping-pong one page between the kernels; every access faults.
 *  Prints the per-phase table (with the paper's reference columns
 *  only for the protocol the paper actually measured). */
void
runOne(os::coherence::ProtocolKind proto, bool with_paper)
{
    os::K2Config cfg;
    cfg.soc.costs.inactiveTimeout = 0; // warm protocol measurement
    cfg.dsmProtocol = proto;
    os::K2System k2sys(cfg);
    auto &proc = k2sys.createProcess("bench");

    for (int round = 0; round < 40; ++round) {
        kern::Kernel &kern = (round % 2 == 0) ? k2sys.shadowKernel()
                                              : k2sys.mainKernel();
        kern.spawnThread(&proc, "fault", ThreadKind::Normal,
                         [&](Thread &t) -> Task<void> {
                             co_await k2sys.dsm().access(
                                 t.kernel(), t.core(), 1,
                                 os::Access::Write);
                         });
        k2sys.ownedEngine().run();
    }

    const auto &m = k2sys.dsm().faultStats(0);
    const auto &s = k2sys.dsm().faultStats(1);

    std::vector<std::string> header{"Operations", "Main", "Shadow"};
    if (with_paper) {
        header.push_back("paper Main");
        header.push_back("paper Shadow");
    }
    wl::Table table(header);
    struct Phase
    {
        const char *label;
        double main_us, shadow_us;
        const char *paper_main, *paper_shadow;
    };
    const Phase phases[] = {
        {"Local fault handling", m.localFaultUs.mean(),
         s.localFaultUs.mean(), "3", "17"},
        {"Protocol execution", m.protocolUs.mean(),
         s.protocolUs.mean(), "2", "13"},
        {"Inter-domain communication", m.commUs.mean(),
         s.commUs.mean(), "5", "9"},
        {"Servicing request", m.serviceUs.mean(), s.serviceUs.mean(),
         "24", "7"},
        {"Exit fault, cache miss", m.exitUs.mean(), s.exitUs.mean(),
         "18", "2"},
        {"Total", m.totalUs.mean(), s.totalUs.mean(), "52", "48"},
    };
    for (const Phase &p : phases) {
        std::vector<std::string> row{p.label, wl::fmt(p.main_us),
                                     wl::fmt(p.shadow_us)};
        if (with_paper) {
            row.push_back(p.paper_main);
            row.push_back(p.paper_shadow);
        }
        table.addRow(row);
    }
    table.print();

    std::printf("\n(%llu faults per sender measured; 'Main'/'Shadow' "
                "identify the faulting kernel)\n",
                static_cast<unsigned long long>(m.faults.value()));
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace k2;

    std::string dsm;
    wl::consumeFlag(argc, argv, "--dsm=", dsm);
    if (wl::unknownArgs(argc, argv))
        return 2;

    if (dsm.empty()) {
        // The paper's measurement, byte-identical to the pre-zoo
        // output.
        wl::banner("Table 5: DSM page fault latency breakdown (us)");
        runOne(os::coherence::ProtocolKind::TwoState, true);
        return 0;
    }

    wl::banner("Table 5: DSM page fault latency breakdown (us), "
               "per protocol");
    std::vector<os::coherence::ProtocolKind> protos;
    if (dsm == "all") {
        for (auto p : os::coherence::allProtocols())
            protos.push_back(p);
    } else {
        protos.push_back(os::coherence::parseProtocol(
            dsm, std::strlen("--dsm=")));
    }
    for (auto p : protos) {
        std::printf("-- %s --\n\n", os::coherence::protocolName(p));
        runOne(p, p == os::coherence::ProtocolKind::TwoState);
        std::printf("\n");
    }
    return 0;
}
