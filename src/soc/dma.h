/**
 * @file
 * Memory-to-memory DMA engine (modelled on the OMAP4 sDMA block).
 *
 * The engine has a number of channels that software programs with a
 * transfer size. Transfers are served in FIFO order by a single
 * internal mover, so concurrent channels share the engine's total
 * bandwidth -- the effect behind Table 6, where two kernels invoking
 * the DMA driver concurrently split ~40 MB/s. Completion of each
 * transfer latches the channel's status bit and raises the shared DMA
 * interrupt, which is wired to every coherence domain.
 */

#ifndef K2_SOC_DMA_H
#define K2_SOC_DMA_H

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/engine.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "soc/config.h"

namespace k2 {
namespace fault {
class FaultInjector;
}
namespace soc {

class DmaEngine
{
  public:
    /** Called on each transfer completion (wired to the shared IRQ). */
    using CompletionIrq = std::function<void()>;

    DmaEngine(sim::Engine &eng, const PlatformCosts &costs,
              std::size_t channels);

    /** Wire the completion interrupt. */
    void setCompletionIrq(CompletionIrq irq) { irq_ = std::move(irq); }

    std::size_t numChannels() const { return channelBusy_.size(); }

    /** True if @p chan has a transfer programmed or in flight. */
    bool channelBusy(std::size_t chan) const;

    /**
     * Program channel @p chan to move @p bytes and start it.
     *
     * Programming a busy channel is a software bug (panics).
     */
    void program(std::size_t chan, std::uint64_t bytes);

    /**
     * Read-and-clear the completion status register.
     *
     * @return Bitmask of channels (bit i = channel i, for the first 64
     *         channels) whose transfers completed since the last read.
     */
    std::uint64_t readStatus();

    /**
     * Read-and-clear the error status register: channels whose last
     * transfer completed with an error (injected fault). An errored
     * transfer still sets its completion bit -- the channel finished,
     * the data is bad -- mirroring the sDMA CSR error flags.
     */
    std::uint64_t readErrors();

    /** Attach a fault injector (transfer error, completion-IRQ loss). */
    void setFaultInjector(fault::FaultInjector *inj) { fault_ = inj; }

    /** @name Statistics. @{ */
    std::uint64_t transfersCompleted() const { return completed_.value(); }
    std::uint64_t bytesMoved() const { return bytes_.value(); }
    /** @} */

    /** Engine time to move @p bytes once started (excludes queueing). */
    sim::Duration transferTime(std::uint64_t bytes) const;

  private:
    sim::Task<void> serve();

    struct Request
    {
        std::size_t chan;
        std::uint64_t bytes;
    };

    sim::Engine &engine_;
    const PlatformCosts &costs_;
    CompletionIrq irq_;
    std::vector<bool> channelBusy_;
    std::deque<Request> queue_;
    bool serving_ = false;
    std::uint64_t statusBits_ = 0;
    std::uint64_t errorBits_ = 0;
    fault::FaultInjector *fault_ = nullptr;
    sim::Counter completed_;
    sim::Counter bytes_;
};

} // namespace soc
} // namespace k2

#endif // K2_SOC_DMA_H
