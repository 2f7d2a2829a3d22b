/**
 * @file
 * A bare DSM rig: one kernel per coherence domain and the DSM spanning
 * them, without the rest of K2 (no NightWatch, balloons or shadowed
 * services). The DSM benches and tests measure the protocol on it.
 */

#ifndef K2_WORKLOADS_DSM_RIG_H
#define K2_WORKLOADS_DSM_RIG_H

#include <memory>
#include <vector>

#include "kern/kernel.h"
#include "os/coherence/protocol.h"
#include "os/dsm.h"
#include "sim/engine.h"
#include "soc/soc.h"

namespace k2 {
namespace wl {

struct DsmRig
{
    /**
     * @param domains 2 boots the OMAP4 pair, 3 adds the sensor hub,
     *        more clone the weak (Cortex-M3) domain -- §11's "more,
     *        but not many". Cores never power-gate, so the protocol is
     *        measured warm.
     * @param proto Coherence protocol.
     * @param pages DSM page keys.
     */
    DsmRig(std::size_t domains, os::coherence::ProtocolKind proto,
           std::uint64_t pages = 4096);

    /** Run one access of kernel @p k to @p page to completion. */
    void touch(std::size_t k, std::uint64_t page, os::Access rw);

    sim::Engine eng;
    std::unique_ptr<soc::Soc> soc;
    std::vector<std::unique_ptr<kern::Kernel>> kernels;
    std::unique_ptr<os::Dsm> dsm;
    std::unique_ptr<kern::Process> proc;
};

} // namespace wl
} // namespace k2

#endif // K2_WORKLOADS_DSM_RIG_H
