/**
 * @file
 * The K2 software distributed shared memory (paper §6.3), over N
 * coherence domains as §11 proposes.
 *
 * The DSM keeps shadowed-service state coherent between the main
 * (strong-domain, index 0) kernel and the shadow kernels under
 * sequential consistency, maintaining the one-writer invariant at
 * 4 KB page granularity. The paper's K2 is the N = 2 instance: "For N
 * domains (N being moderate), K2 can be extended without structural
 * changes: the DSM (§6.3) will track page ownership among N domains
 * as in [17]". The coherence protocol is selectable
 * (coherence::ProtocolKind, K2Config::dsmProtocol, `--dsm=`):
 *
 *  - TwoState (default): the paper's migratory scheme. Each kernel's
 *    copy of a page is valid or invalid; before touching an invalid
 *    page a kernel sends GetExclusive to the page's owner (tracked in
 *    a directory every kernel keeps in sync -- here the simulator-side
 *    table) and spins (synchronously: interrupt handlers cannot
 *    sleep) until PutExclusive arrives. The owner flushes and
 *    invalidates its copy before granting, and keeps local access
 *    until then.
 *  - ThreeState/Mesi/Moesi: a home-based directory (home on kernel 0)
 *    with per-page sharer bitmaps: reads share, writes fan
 *    invalidations out to every sharer and collect InvAcks before the
 *    grant; MESI adds silent clean-exclusive upgrades, MOESI forwards
 *    dirty pages cache-to-cache (coherence/directory.h). Weak kernels
 *    pay the Cortex-M3 cascaded-MMU read-tracking penalty on every
 *    fault.
 *  - Rac: log-based release-acquire -- owners append modified lines to
 *    per-domain logs, acquirers drain them under vector-clock order
 *    (coherence/rac.h).
 *
 * Costs follow Table 5 of the paper: each kernel takes the strong or
 * weak row of one cost table by its domain's kernelCostFactor.
 * Asymmetric priorities favour the strong domain: kernel 0 services
 * requests in a bottom half, deferring further when loaded; weak
 * kernels serve before any other pending interrupt. Pages start
 * mapped at 1 MB section grain and are demoted to 4 KB on their first
 * fault (the §6.3 footprint optimisation; not under release-acquire,
 * whose invalidation is line-grain).
 */

#ifndef K2_OS_DSM_H
#define K2_OS_DSM_H

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/stats.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "soc/mmu.h"
#include "soc/soc.h"
#include "kern/kernel.h"
#include "os/coherence/directory.h"
#include "os/coherence/rac.h"
#include "os/messages.h"
#include "os/system.h"

namespace k2 {

namespace obs {
class MetricsRegistry;
}

namespace os {

class Dsm
{
  public:
    /**
     * Fault-timeout retry (recovery layer). Off by default (timeout ==
     * 0): the faulting kernel spins on the grant forever. When enabled,
     * a faulter whose grant does not arrive within the timeout re-sends
     * its request -- to the page's *current* owner/home, re-read from
     * the directory -- backing off exponentially up to maxTimeout.
     * Attempts are unbounded: a fault stranded on a crashed owner
     * self-heals once the page is reclaimed to a survivor
     * (reclaimFrom) or the owner revives.
     */
    struct RetryPolicy
    {
        sim::Duration timeout = 0;
        sim::Duration maxTimeout = sim::msec(4);
    };

    /** Per-kernel fault statistics (the Table 5 breakdown). */
    struct FaultStats
    {
        sim::Counter faults;
        sim::Accumulator localFaultUs;
        sim::Accumulator protocolUs;
        sim::Accumulator commUs;
        sim::Accumulator serviceUs;
        sim::Accumulator exitUs;
        sim::Accumulator totalUs;
    };

    /**
     * @param soc The platform.
     * @param kernels One kernel per coherence domain, the main (strong)
     *        kernel first; at least two, at most 32.
     * @param num_pages Number of DSM-managed page keys available.
     * @param kind Coherence protocol.
     */
    Dsm(soc::Soc &soc, std::vector<kern::Kernel *> kernels,
        std::uint64_t num_pages,
        coherence::ProtocolKind kind = coherence::ProtocolKind::TwoState);
    ~Dsm();

    void setRetryPolicy(RetryPolicy p) { retry_ = p; }

    std::size_t numKernels() const { return kernels_.size(); }

    /** Reserve a range of DSM page keys for a shared region. */
    kern::PageRange allocRegion(std::uint64_t pages);

    /**
     * Access a DSM page from @p kern, charging costs to @p core.
     *
     * Satisfied locally if this kernel's copy permits the access;
     * otherwise takes the full fault path (messages, remote flush,
     * spin). Callable from thread or interrupt context.
     */
    sim::Task<void> access(kern::Kernel &kern, soc::Core &core,
                           std::uint64_t page, Access rw);

    /** Mail dispatch (GetExclusive/PutExclusive), from the mailbox
     *  ISR of kernel @p to_kernel. */
    sim::Task<void> handleMail(KernelIdx to_kernel, soc::Mail mail,
                               soc::Core &core);

    /**
     * Crash recovery: reassign every page held by the (crashed) kernel
     * @p dead to @p to, in ascending page order, and return the moved
     * page keys. Under the two-state protocol a page in transit to or
     * from @p dead moves too, and a fault of @p to stranded waiting on
     * @p dead's grant completes locally. Directory modes also scrub
     * @p dead from sharer/ack bitmaps and complete transactions that
     * were stalled only on it. Faults of other kernels self-heal
     * through the retry path (arm a RetryPolicy before injecting
     * crashes).
     */
    std::vector<std::uint64_t> reclaimFrom(KernelIdx dead, KernelIdx to);

    /** @name Introspection for tests, benches and reports. @{ */

    /** True if @p k's copy of @p page permits @p rw locally. */
    bool isLocallyValid(KernelIdx k, std::uint64_t page,
                        Access rw) const;

    /** Current owner of @p page (directory modes: the entry's owner;
     *  RAC: the page's last writer). */
    KernelIdx ownerOf(std::uint64_t page) const;

    const FaultStats &faultStats(KernelIdx k) const
    {
        return stats_.at(k);
    }

    /** Total coherence messages sent. */
    std::uint64_t messagesSent() const { return messages_.value(); }

    /** Pages demoted to 4 KB mapping grain so far. */
    std::uint64_t pagesDemoted() const { return demotions_.value(); }

    /** Grant-timeout retries sent so far. */
    std::uint64_t retries() const { return retries_.value(); }

    /** @} */

    /**
     * Register the message/demotion counters, each kernel's fault
     * count, Table-5 phase accumulators and TLB statistics under
     * "<prefix>.<kernel-name>.*", and the directory or log counters
     * under "<prefix>.<proto>.*". Retries appear only with a retry
     * policy armed, so zero-fault snapshots keep their key set.
     */
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const;

  private:
    struct PageInfo
    {
        /** @name Two-state mode. @{ */
        std::uint32_t owner = 0;    //!< Directory owner: Gets go here.
        std::uint32_t servedBy = 0; //!< Kernel that ran the last service.
        std::uint32_t valid = 1;    //!< Kernels holding a valid copy.
        std::uint32_t raced = 0;    //!< Invalidated by a crossed service
                                    //!< while their own fault was in
                                    //!< flight.
        /** @} */
        std::uint32_t outstanding = 0;  //!< Kernels with a fault in flight.
        std::uint32_t grantArrived = 0; //!< Grant really arrived (vs a
                                        //!< retry-timer pulse).
        bool demoted = false;
        std::unique_ptr<sim::Event> grant;   //!< Pulsed on a grant.
        std::unique_ptr<sim::Event> settled; //!< Pulsed when a fault
                                             //!< completes.
        sim::Duration lastServiceTime = 0;   //!< For attribution only.
        sim::Duration peerService = 0;       //!< Slowest sharer's
                                             //!< invalidation in the
                                             //!< open directory write.
    };

    PageInfo &info(std::uint64_t page);
    KernelIdx idxOf(const kern::Kernel &k) const;
    soc::Core *pickCore(KernelIdx kernel);
    sim::Duration bottomHalf() const;
    sim::Task<void> demote(PageInfo &pi, KernelIdx k, soc::Core &core,
                           std::uint64_t page);
    sim::Task<void> spinForGrant(PageInfo &pi, KernelIdx k,
                                 soc::Core &core, std::uint64_t page,
                                 std::uint32_t resend_payload, Access rw);
    void finishFault(PageInfo &pi, KernelIdx k, sim::Time t0,
                     sim::Time t1, sim::Time t2, sim::Time t3,
                     sim::Time t4);

    /** @name Two-state (migratory) mode. @{ */
    KernelIdx requestTarget(const PageInfo &pi, KernelIdx k) const;
    sim::Task<void> accessTwoState(KernelIdx k, soc::Core &core,
                                   std::uint64_t page, Access rw);
    sim::Task<void> serviceGet(KernelIdx owner, KernelIdx requester,
                               std::uint64_t page, Access rw);
    /** @} */

    /** @name Directory (MSI/MESI/MOESI) mode. @{ */
    sim::Task<void> accessDir(KernelIdx k, soc::Core &core,
                              std::uint64_t page, Access rw);
    sim::Task<void> dirService(KernelIdx req, std::uint64_t page,
                               bool write, bool via_mail);
    sim::Task<void> invService(KernelIdx target, std::uint64_t page);
    sim::Task<void> fwdService(KernelIdx owner, std::uint64_t page);
    void grantTo(KernelIdx grantor, KernelIdx req, std::uint64_t page,
                 coherence::RepOp op);
    /** @} */

    /** @name Release-acquire (RAC) mode. @{ */
    sim::Task<void> accessRac(KernelIdx k, soc::Core &core,
                              std::uint64_t page, Access rw);
    sim::Task<void> racService(KernelIdx writer, KernelIdx req,
                               std::uint64_t page);
    /** @} */

    /** Per-fault costs of one kernel (a row of Table 5). The owner's
     *  cache flush is charged separately, from the domain spec. */
    struct Costs
    {
        sim::Duration faultEntry;   //!< Exception entry + decoding.
        sim::Duration protocolExec; //!< Protocol bookkeeping.
        sim::Duration serviceBase;  //!< Servicing, before the flush.
        sim::Duration exitRefill;   //!< Fault exit + cache refill.
    };
    static const Costs kStrongCosts;
    static const Costs kWeakCosts;

    soc::Soc &soc_;
    std::vector<kern::Kernel *> kernels_;
    coherence::ProtocolKind kind_;
    std::vector<Costs> costs_;
    std::vector<char> weak_; //!< Pays the read-tracking penalty.
    std::vector<std::unique_ptr<soc::Mmu>> mmus_;
    std::vector<sim::TrackId> tracks_; //!< Per-kernel span tracks.
    std::uint64_t numPages_;
    std::uint64_t nextRegionPage_ = 0;
    std::unordered_map<std::uint64_t, std::unique_ptr<PageInfo>> pages_;
    std::vector<FaultStats> stats_;
    sim::Counter messages_;
    sim::Counter demotions_;
    sim::Counter retries_;
    RetryPolicy retry_{};
    std::uint32_t seq_ = 0;
    std::unique_ptr<coherence::Directory> dir_; //!< Directory modes.
    std::unique_ptr<coherence::RacState> rac_;  //!< RAC mode.
};

} // namespace os
} // namespace k2

#endif // K2_OS_DSM_H
