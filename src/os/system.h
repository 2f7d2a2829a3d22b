/**
 * @file
 * The single-system-image abstraction.
 *
 * SystemImage is the surface applications and shadowed services program
 * against: processes, Normal and NightWatch threads, and shared-state
 * regions. Two implementations exist:
 *  - os::K2System -- two kernels over two coherence domains, shared
 *    regions backed by the software DSM;
 *  - baseline::LinuxSystem -- one shared-everything kernel on the
 *    strong domain, shared regions backed by hardware coherence
 *    (zero-cost touch).
 *
 * Services written against this interface run unmodified on both,
 * which is the reproduction of the paper's claim that shadowed
 * services reuse the existing driver source.
 */

#ifndef K2_OS_SYSTEM_H
#define K2_OS_SYSTEM_H

#include <memory>
#include <string>
#include <vector>

#include "sim/task.h"
#include "soc/soc.h"
#include "kern/kernel.h"
#include "kern/thread.h"
#include "kern/types.h"

namespace k2 {

namespace obs {
class MetricsRegistry;
}

namespace os {

/** Kind of access to shared state. */
enum class Access { Read, Write };

/**
 * A region of kernel state shared between kernels.
 *
 * Shadowed services place their mutable state in one of these and call
 * touch() before using it, from thread or interrupt context. Under K2
 * a touch may take a DSM fault; under the baseline it is free.
 */
class SharedRegion
{
  public:
    SharedRegion(std::string name, std::uint64_t pages)
        : name_(std::move(name)), pages_(pages)
    {}

    virtual ~SharedRegion() = default;

    const std::string &name() const { return name_; }
    std::uint64_t numPages() const { return pages_; }

    /**
     * Make page @p page_idx of the region usable by @p kern with the
     * given access, charging any coherence cost to @p core.
     */
    virtual sim::Task<void> touch(kern::Kernel &kern, soc::Core &core,
                                  std::uint64_t page_idx, Access rw) = 0;

  private:
    std::string name_;
    std::uint64_t pages_;
};

class SystemImage
{
  public:
    virtual ~SystemImage() = default;

    /** Model name for reports ("K2" or "Linux"). */
    virtual const char *modelName() const = 0;

    virtual soc::Soc &soc() = 0;
    sim::Engine &engine() { return soc().engine(); }

    /** The kernel serving a given coherence domain. */
    virtual kern::Kernel &kernelAt(soc::DomainId domain) = 0;

    /** All kernels (one for the baseline, two for K2). */
    virtual std::vector<kern::Kernel *> kernels() = 0;

    /** The kernel that runs Normal application threads. */
    virtual kern::Kernel &mainKernel() = 0;

    /** The kernel that runs NightWatch threads. */
    virtual kern::Kernel &nightWatchKernel() = 0;

    /** Allocate a shared-state region for a shadowed service. */
    virtual std::unique_ptr<SharedRegion>
    createSharedRegion(std::string name, std::uint64_t pages) = 0;

    /**
     * Allocate 2^order physical pages from @p t's kernel's local
     * allocator instance (an *independent* service: always served
     * locally, §6.2).
     */
    virtual sim::Task<kern::PageRange>
    allocPages(kern::Thread &t, unsigned order,
               kern::Migrate migrate = kern::Migrate::Movable) = 0;

    /**
     * Free pages. Under K2, frees of remotely-allocated pages are
     * redirected asynchronously to the allocating kernel through a
     * hardware message (the §6.2 thin wrapper).
     */
    virtual sim::Task<void> freePages(kern::Thread &t,
                                      kern::PageRange range) = 0;

    /**
     * Charge @p n kernel function-pointer dispatches (§5.4). A no-op
     * except on K2's shadow kernel, where each indirect call traps
     * into the cross-ISA dispatcher.
     */
    virtual sim::Task<void>
    chargeCrossIsa(kern::Kernel &kern, soc::Core &core, std::uint64_t n)
    {
        (void)kern;
        (void)core;
        (void)n;
        co_return;
    }

    /** Create a process in the single system image. */
    kern::Process &createProcess(std::string name);

    /** Spawn a Normal thread (strong domain). */
    virtual kern::Thread *spawnNormal(kern::Process &proc,
                                      std::string name,
                                      kern::Thread::Body body) = 0;

    /**
     * Spawn a NightWatch thread (weak domain under K2; the baseline
     * has no weak domain, so it runs as a Normal thread there, exactly
     * like light tasks on stock Linux in the paper's evaluation).
     */
    virtual kern::Thread *spawnNightWatch(kern::Process &proc,
                                          std::string name,
                                          kern::Thread::Body body) = 0;

    const std::vector<std::unique_ptr<kern::Process>> &processes() const
    {
        return processes_;
    }

    /**
     * Register this system's metrics: the sim engine ("sim.*"), the
     * hardware ("soc.*") and every kernel's scheduler and page
     * allocator ("kern.<name>.*"). Implementations extend this with
     * their OS-level components (K2 adds "os.*").
     */
    virtual void registerMetrics(obs::MetricsRegistry &reg);

  protected:
    std::vector<std::unique_ptr<kern::Process>> processes_;
    kern::Pid nextPid_ = 1;
};

} // namespace os
} // namespace k2

#endif // K2_OS_SYSTEM_H
