#include "soc/soc.h"

#include "fault/injector.h"
#include "obs/metrics.h"
#include "sim/log.h"

namespace k2 {
namespace soc {

Soc::Soc(sim::Engine &eng, SocConfig config)
    : engine_(eng), config_(std::move(config)), meter_(eng)
{
    config_.validate();

    CoreId next_core = 0;
    for (DomainId id = 0; id < config_.domains.size(); ++id) {
        domains_.push_back(std::make_unique<CoherenceDomain>(
            eng, meter_, config_.domains[id], config_.costs, id,
            config_.numIrqLines, next_core));
        next_core += static_cast<CoreId>(config_.domains[id].numCores);
    }

    mailbox_ = std::make_unique<MailboxNet>(
        eng, domains_.size(), config_.costs.mailboxOneWay);
    for (DomainId id = 0; id < domains_.size(); ++id)
        mailbox_->attachController(id, &domains_[id]->irqCtrl());

    spinlocks_ = std::make_unique<HwSpinlockBank>(
        eng, config_.numHwSpinlocks, config_.costs);

    dma_ = std::make_unique<DmaEngine>(eng, config_.costs,
                                       config_.numDmaChannels);
    dma_->setCompletionIrq([this]() { raiseSharedIrq(kIrqDma); });
}

void
Soc::attachFaultInjector(fault::FaultInjector *inj)
{
    mailbox_->setFaultInjector(inj);
    dma_->setFaultInjector(inj);
    for (DomainId id = 0; id < domains_.size(); ++id)
        domains_[id]->irqCtrl().setFaultInjector(inj, id);
    if (inj) {
        inj->arm([this](std::uint32_t dom, std::uint32_t line) {
            domain(static_cast<DomainId>(dom)).irqCtrl().raise(line);
        });
    }
}

void
Soc::raiseSharedIrq(IrqLine line)
{
    // The signal is physically wired to every domain; per-domain masks
    // decide who accepts it. Controllers latch it pending when masked,
    // which can later produce a spurious delivery -- handlers must (and
    // ours do) check their device's status register.
    for (auto &d : domains_)
        d->irqCtrl().raise(line);
}

void
Soc::registerMetrics(obs::MetricsRegistry &reg) const
{
    mailbox_->registerMetrics(reg, "soc.mailbox");
    reg.addGauge("soc.dma.transfers", [this]() {
        return static_cast<double>(dma_->transfersCompleted());
    });
    reg.addGauge("soc.dma.bytes", [this]() {
        return static_cast<double>(dma_->bytesMoved());
    });
    reg.addGauge("soc.spinlock.acquisitions", [this]() {
        return static_cast<double>(spinlocks_->acquisitions());
    });
    reg.addGauge("soc.spinlock.contended_polls", [this]() {
        return static_cast<double>(spinlocks_->contendedPolls());
    });
    for (DomainId d = 0; d < domains_.size(); ++d) {
        const CoherenceDomain &dom = *domains_[d];
        const std::string dp = sim::strPrintf("soc.domain%u", d);
        reg.addGauge(dp + ".irq.delivered", [&dom]() {
            return static_cast<double>(dom.irqCtrl().delivered());
        });
        reg.addGauge(dp + ".irq.masked_drops", [&dom]() {
            return static_cast<double>(dom.irqCtrl().maskedDrops());
        });
        for (std::size_t c = 0; c < dom.numCores(); ++c) {
            const Core &core = dom.core(c);
            const std::string cp = sim::strPrintf("%s.core%zu", dp.c_str(), c);
            reg.addGauge(cp + ".wakeups", [&core]() {
                return static_cast<double>(core.wakeups());
            });
            reg.addGauge(cp + ".instructions", [&core]() {
                return static_cast<double>(core.instructionsRetired());
            });
            reg.addGauge(cp + ".active_us", [&core]() {
                return sim::toUsec(core.activeTime());
            });
            reg.addGauge(cp + ".idle_us", [&core]() {
                return sim::toUsec(core.idleTime());
            });
            reg.addGauge(cp + ".inactive_us", [&core]() {
                return sim::toUsec(core.inactiveTime());
            });
        }
    }
    for (RailId r = 0; r < meter_.numRails(); ++r) {
        const std::string rp = "soc.power." + meter_.railName(r);
        const EnergyMeter &meter = meter_;
        reg.addGauge(rp + ".energy_uj",
                     [&meter, r]() { return meter.energyUj(r); });
        reg.addGauge(rp + ".power_mw",
                     [&meter, r]() { return meter.powerMw(r); });
    }
}

} // namespace soc
} // namespace k2
