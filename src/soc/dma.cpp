#include "soc/dma.h"

#include "fault/injector.h"
#include "sim/log.h"

namespace k2 {
namespace soc {

DmaEngine::DmaEngine(sim::Engine &eng, const PlatformCosts &costs,
                     std::size_t channels)
    : engine_(eng), costs_(costs), channelBusy_(channels, false)
{}

bool
DmaEngine::channelBusy(std::size_t chan) const
{
    K2_ASSERT(chan < channelBusy_.size());
    return channelBusy_[chan];
}

sim::Duration
DmaEngine::transferTime(std::uint64_t bytes) const
{
    const double seconds =
        static_cast<double>(bytes) / costs_.dmaBandwidth;
    return costs_.dmaSetup +
           static_cast<sim::Duration>(seconds * 1e12);
}

void
DmaEngine::program(std::size_t chan, std::uint64_t bytes)
{
    K2_ASSERT(chan < channelBusy_.size());
    if (channelBusy_[chan])
        K2_PANIC("DMA channel %zu programmed while busy", chan);
    channelBusy_[chan] = true;
    queue_.push_back(Request{chan, bytes});
    if (!serving_) {
        serving_ = true;
        engine_.spawn(serve());
    }
}

sim::Task<void>
DmaEngine::serve()
{
    while (!queue_.empty()) {
        const Request req = queue_.front();
        queue_.pop_front();
        co_await engine_.sleep(transferTime(req.bytes));
        channelBusy_[req.chan] = false;
        const std::uint64_t bit =
            (req.chan < 64) ? (1ull << req.chan) : 0;
        statusBits_ |= bit;
        completed_.inc();
        const bool errored = fault_ && fault_->onDmaTransfer();
        if (errored)
            errorBits_ |= bit;
        else
            bytes_.inc(req.bytes);
        if (fault_ && fault_->onDmaCompletionIrq())
            continue; // Completion IRQ pulse lost; status stays latched.
        if (irq_)
            irq_();
    }
    serving_ = false;
}

std::uint64_t
DmaEngine::readStatus()
{
    const std::uint64_t bits = statusBits_;
    statusBits_ = 0;
    return bits;
}

std::uint64_t
DmaEngine::readErrors()
{
    const std::uint64_t bits = errorBits_;
    errorBits_ = 0;
    return bits;
}

} // namespace soc
} // namespace k2
