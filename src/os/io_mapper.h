/**
 * @file
 * Temporary IO mappings in the unified kernel address space (§6.1).
 *
 * "The OS may need temporary mappings for accessing IO memory. As
 * creations and destructions of such mappings are infrequent, K2
 * adopts a simple protocol between two kernels for propagating page
 * table updates from one to the other."
 *
 * A kernel that ioremaps a device region picks the next slot in the
 * shared temporary-mapping window (above the direct map, identical in
 * both kernels), installs its local page-table entries, and sends a
 * MapCreate control mail so the peer installs the same entries at the
 * same virtual address; destruction mirrors this. Propagation is
 * asynchronous -- the creator can use the mapping immediately; the
 * peer's view becomes consistent after the mail is processed.
 */

#ifndef K2_OS_IO_MAPPER_H
#define K2_OS_IO_MAPPER_H

#include <array>
#include <cstdint>
#include <map>

#include "sim/stats.h"
#include "sim/task.h"
#include "soc/soc.h"
#include "kern/kernel.h"
#include "kern/layout.h"
#include "os/messages.h"

namespace k2 {
namespace os {

class IoMapper
{
  public:
    /** Identifies one temporary mapping (16-bit mail operand). */
    using RegionId = std::uint16_t;

    IoMapper(soc::Soc &soc, std::array<kern::Kernel *, 2> kernels,
             const kern::AddressSpaceLayout &layout);

    /** Base virtual address of the temporary-mapping window. */
    std::uint64_t windowBase() const { return windowBase_; }

    /**
     * Map @p pages of IO memory from @p t's kernel.
     *
     * @return (region id, virtual address); the address is identical
     *         in both kernels once propagation completes.
     */
    sim::Task<std::pair<RegionId, std::uint64_t>>
    mapIo(kern::Thread &t, std::uint32_t pages);

    /** Destroy a mapping (from either kernel). */
    sim::Task<void> unmapIo(kern::Thread &t, RegionId id);

    /** True if @p kernel currently has @p id installed. */
    bool isMapped(KernelIdx kernel, RegionId id) const;

    /** Virtual address of a live mapping. */
    std::uint64_t vaddrOf(RegionId id) const;

    /** @name Statistics. @{ */
    sim::Counter maps;
    sim::Counter unmaps;
    sim::Counter propagations;
    /** @} */

    /** Mail dispatch (MapCreate / MapDestroy control ops). */
    sim::Task<void> handleMail(KernelIdx to, Message msg,
                               soc::Core &core);

  private:
    struct Mapping
    {
        std::uint64_t vaddr = 0;
        std::uint32_t pages = 0;
        std::array<bool, 2> installed{false, false};
    };

    /** Page-table install/remove cost on one kernel. */
    sim::Duration ptCost(KernelIdx k, std::uint32_t pages) const;

    soc::Soc &soc_;
    std::array<kern::Kernel *, 2> kernels_;
    std::uint64_t windowBase_;
    std::uint64_t nextVaddr_;
    RegionId nextId_ = 1;
    std::map<RegionId, Mapping> mappings_;
};

} // namespace os
} // namespace k2

#endif // K2_OS_IO_MAPPER_H
