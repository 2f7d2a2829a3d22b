/**
 * @file
 * The top-level simulated SoC: coherence domains, shared RAM, the
 * system interconnect's shared peripherals (DMA engine), hardware
 * mailboxes and spinlocks, and shared-interrupt wiring.
 */

#ifndef K2_SOC_SOC_H
#define K2_SOC_SOC_H

#include <memory>
#include <vector>

#include "sim/engine.h"
#include "soc/config.h"
#include "soc/dma.h"
#include "soc/domain.h"
#include "soc/mailbox.h"
#include "soc/power.h"
#include "soc/spinlock.h"

namespace k2 {

namespace obs {
class MetricsRegistry;
}
namespace fault {
class FaultInjector;
}

namespace soc {

class Soc
{
  public:
    Soc(sim::Engine &eng, SocConfig config);

    Soc(const Soc &) = delete;
    Soc &operator=(const Soc &) = delete;

    sim::Engine &engine() { return engine_; }
    const SocConfig &config() const { return config_; }
    const PlatformCosts &costs() const { return config_.costs; }

    std::size_t numDomains() const { return domains_.size(); }
    CoherenceDomain &domain(DomainId id) { return *domains_.at(id); }
    const CoherenceDomain &domain(DomainId id) const
    {
        return *domains_.at(id);
    }

    EnergyMeter &meter() { return meter_; }
    const EnergyMeter &meter() const { return meter_; }
    MailboxNet &mailbox() { return *mailbox_; }
    HwSpinlockBank &spinlocks() { return *spinlocks_; }
    DmaEngine &dma() { return *dma_; }

    /** @name RAM geometry. @{ */
    std::size_t pageBytes() const { return config_.pageBytes; }
    std::size_t numPages() const
    {
        return config_.ramBytes / config_.pageBytes;
    }
    /** @} */

    /**
     * Raise a shared (IO peripheral) interrupt, physically wired to
     * every domain. Controllers whose line is masked latch it pending;
     * system software (K2's IrqRouter / the baseline kernel) arranges
     * masks so exactly one domain accepts it.
     */
    void raiseSharedIrq(IrqLine line);

    /**
     * Allocate a platform-unique thread id (monotonic from 1).
     *
     * All kernels booted on this SoC draw from one counter so tids
     * are unique across coherence domains, and the counter is owned
     * by the platform -- not a process-wide global -- so concurrent
     * simulator instances stay fully isolated and each run's tid
     * sequence is deterministic.
     */
    std::uint32_t allocThreadId() { return nextTid_++; }

    /**
     * Thread a fault injector through every hook point (mailbox net,
     * DMA engine, each domain's interrupt controller) and arm its
     * scheduled clauses. Pass nullptr to detach.
     */
    void attachFaultInjector(fault::FaultInjector *inj);

    /**
     * Register all hardware-level metrics under the "soc." prefix:
     * mailbox traffic, DMA transfers, hardware spinlock contention,
     * per-domain interrupt counts, per-core residency/wakeups and
     * per-rail energy.
     */
    void registerMetrics(obs::MetricsRegistry &reg) const;

  private:
    sim::Engine &engine_;
    SocConfig config_;
    EnergyMeter meter_;
    std::vector<std::unique_ptr<CoherenceDomain>> domains_;
    std::unique_ptr<MailboxNet> mailbox_;
    std::unique_ptr<HwSpinlockBank> spinlocks_;
    std::unique_ptr<DmaEngine> dma_;
    std::uint32_t nextTid_ = 1;
};

} // namespace soc
} // namespace k2

#endif // K2_SOC_SOC_H
