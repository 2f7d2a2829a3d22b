/**
 * @file
 * Per-kernel balloon driver (paper §6.2).
 *
 * K2 retrofits the virtual-machine balloon-driver idea to move
 * physically contiguous 16 MB page blocks between K2 (the meta level)
 * and the individual kernels' page allocators:
 *
 *  - deflate: the driver frees a page block to the local page
 *    allocator, transferring ownership K2 -> kernel;
 *  - inflate: the driver allocates a page block back from the kernel,
 *    forcing it to evacuate (migrate) movable pages from the block,
 *    transferring ownership kernel -> K2.
 *
 * The balloon needs no change to the buddy allocator: it uses the
 * allocator's contiguous-range donate/reclaim interface, mirroring how
 * the real driver builds on Linux CMA. Costs are dominated by page
 * movement through the shared interconnect (similar on both kernels)
 * plus per-page kernel bookkeeping (slower on the weak core), which is
 * why Table 4 shows balloon operations only ~1.2-1.8x slower on the
 * shadow kernel while allocations are ~12x slower.
 */

#ifndef K2_OS_BALLOON_H
#define K2_OS_BALLOON_H

#include "sim/stats.h"
#include "sim/task.h"
#include "kern/kernel.h"
#include "kern/types.h"

namespace k2 {
namespace os {

class BalloonDriver
{
  public:
    /** Pages per balloon page block: 16 MB of 4 KB pages. */
    static constexpr std::uint64_t kBlockPages = 4096;

    struct CostModel
    {
        /** Interconnect time per page on deflate (free-list insert,
         *  struct-page writes). */
        sim::Duration platformPerPageDeflate = sim::nsec(2300);
        /** Interconnect time per page on inflate (scan + remap). */
        sim::Duration platformPerPageInflate = sim::nsec(2400);
        /** Kernel bookkeeping work units per page. */
        std::uint64_t workPerPageDeflate = 28;
        std::uint64_t workPerPageInflate = 55;
        /** Extra interconnect time per migrated page (the copy). */
        sim::Duration perMigratedPage = sim::usec(3);
    };

    explicit BalloonDriver(kern::Kernel &kernel);
    BalloonDriver(kern::Kernel &kernel, CostModel costs);

    kern::Kernel &kernel() { return kernel_; }

    /**
     * Deflate: release @p block to the local kernel's page allocator.
     * Must run in a thread of the owning kernel.
     */
    sim::Task<void> deflate(kern::Thread &t, kern::PageRange block);

    /**
     * Inflate: reclaim @p block from the local kernel's allocator,
     * evacuating movable pages.
     *
     * @return false if the block could not be reclaimed (unmovable
     *         pages or insufficient free memory to migrate into).
     */
    sim::Task<bool> inflate(kern::Thread &t, kern::PageRange block);

    /** @name Statistics (latencies in microseconds). @{ */
    sim::Counter deflates;
    sim::Counter inflates;
    sim::Counter failedInflates;
    sim::Accumulator deflateUs;
    sim::Accumulator inflateUs;
    sim::Accumulator migratedPages;
    /** @} */

  private:
    kern::Kernel &kernel_;
    CostModel costs_;
};

} // namespace os
} // namespace k2

#endif // K2_OS_BALLOON_H
