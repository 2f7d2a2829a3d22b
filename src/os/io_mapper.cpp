#include "os/io_mapper.h"

#include "sim/log.h"

namespace k2 {
namespace os {

IoMapper::IoMapper(soc::Soc &soc, std::array<kern::Kernel *, 2> kernels,
                   const kern::AddressSpaceLayout &layout)
    : soc_(soc), kernels_(kernels)
{
    // The temporary-mapping window sits directly above the direct map,
    // at the same virtual address in both kernels.
    windowBase_ = layout.vaddrOf(layout.totalPages());
    nextVaddr_ = windowBase_;
}

sim::Duration
IoMapper::ptCost(KernelIdx k, std::uint32_t pages) const
{
    // One PTE write per page plus a TLB maintenance op, at the
    // kernel's bookkeeping speed.
    return kernels_[k]->kernelWorkTime(kernels_[k]->domain().core(0),
                                       60 + 25ull * pages);
}

sim::Task<std::pair<IoMapper::RegionId, std::uint64_t>>
IoMapper::mapIo(kern::Thread &t, std::uint32_t pages)
{
    K2_ASSERT(pages > 0);
    const KernelIdx k = (&t.kernel() == kernels_[0]) ? 0 : 1;
    const RegionId id = nextId_++;

    Mapping m;
    m.vaddr = nextVaddr_;
    m.pages = pages;
    nextVaddr_ += pages * static_cast<std::uint64_t>(soc_.pageBytes());
    m.installed[k] = true;
    mappings_[id] = m;
    maps.inc();

    // Install locally, then propagate asynchronously.
    co_await t.execTime(ptCost(k, pages));
    kernels_[k]->sendMail(
        kernels_[1 - k]->domainId(),
        encodeMessage(MsgType::Control,
                      encodeCtl(CtlOp::MapCreate, id),
                      pages & kSeqMask));
    co_return std::make_pair(id, m.vaddr);
}

sim::Task<void>
IoMapper::unmapIo(kern::Thread &t, RegionId id)
{
    auto it = mappings_.find(id);
    if (it == mappings_.end())
        K2_PANIC("unmap of unknown IO region %u", id);
    const KernelIdx k = (&t.kernel() == kernels_[0]) ? 0 : 1;

    unmaps.inc();
    co_await t.execTime(ptCost(k, it->second.pages));
    it->second.installed[k] = false;
    kernels_[k]->sendMail(
        kernels_[1 - k]->domainId(),
        encodeMessage(MsgType::Control,
                      encodeCtl(CtlOp::MapDestroy, id), 0));
}

bool
IoMapper::isMapped(KernelIdx kernel, RegionId id) const
{
    auto it = mappings_.find(id);
    return it != mappings_.end() && it->second.installed[kernel];
}

std::uint64_t
IoMapper::vaddrOf(RegionId id) const
{
    auto it = mappings_.find(id);
    K2_ASSERT(it != mappings_.end());
    return it->second.vaddr;
}

sim::Task<void>
IoMapper::handleMail(KernelIdx to, Message msg, soc::Core &core)
{
    const auto id = static_cast<RegionId>(ctlOperand(msg.payload));
    auto it = mappings_.find(id);
    propagations.inc();
    switch (ctlOp(msg.payload)) {
      case CtlOp::MapCreate: {
        K2_ASSERT(it != mappings_.end());
        co_await core.execTime(ptCost(to, it->second.pages));
        it->second.installed[to] = true;
        co_return;
      }
      case CtlOp::MapDestroy: {
        if (it == mappings_.end())
            co_return; // both sides unmapped concurrently
        co_await core.execTime(ptCost(to, it->second.pages));
        it->second.installed[to] = false;
        if (!it->second.installed[0] && !it->second.installed[1])
            mappings_.erase(it);
        co_return;
      }
      default:
        K2_PANIC("IoMapper received non-map control op");
    }
}

} // namespace os
} // namespace k2
