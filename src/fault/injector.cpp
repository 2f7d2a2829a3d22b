#include "fault/injector.h"

#include "obs/metrics.h"
#include "sim/log.h"

namespace k2 {
namespace fault {

FaultInjector::FaultInjector(sim::Engine &eng, FaultPlan plan)
    : engine_(eng), plan_(std::move(plan)), rng_(plan_.seed)
{
    for (const FaultSpec &fs : plan_.specs()) {
        const auto idx = clauses_.size();
        clauses_.push_back(ClauseState{fs});
        byKind_[static_cast<std::size_t>(fs.kind)].push_back(idx);
    }
    // The injector only exists when a plan (or forced recovery) is
    // configured, so this track never appears in zero-fault traces.
    track_ = engine_.addTrack("fault");
}

void
FaultInjector::arm(IrqRaiser raiser)
{
    raiser_ = std::move(raiser);
    // Spurious IRQs are raised by the plan itself, not triggered by
    // traffic, so they are the one kind that schedules events. One
    // event per clause; fires once.
    for (std::size_t idx :
         byKind_[static_cast<std::size_t>(FaultKind::IrqSpurious)]) {
        ClauseState &c = clauses_[idx];
        const std::uint32_t domain =
            c.spec.domain == kAnyDomain ? 0 : c.spec.domain;
        const std::uint32_t line = c.spec.line;
        engine_.at(c.spec.at, [this, domain, line] {
            note(FaultKind::IrqSpurious, domain);
            raiser_(domain, line);
        });
    }
}

bool
FaultInjector::decide(FaultKind kind, std::uint32_t domain,
                      std::uint32_t line)
{
    for (std::size_t idx : byKind_[static_cast<std::size_t>(kind)]) {
        ClauseState &c = clauses_[idx];
        if (c.spec.domain != kAnyDomain && domain != kAnyDomain &&
            c.spec.domain != domain)
            continue;
        if (c.spec.line != kAnyLine && line != kAnyLine &&
            c.spec.line != line)
            continue;
        if (c.burstLeft > 0) {
            --c.burstLeft;
            note(kind, domain);
            return true;
        }
        if (engine_.now() < c.spec.at)
            continue;
        if (c.spec.p > 0.0) {
            if (!rng_.chance(c.spec.p))
                continue;
        } else {
            if (c.fired)
                continue;
            c.fired = true;
        }
        c.burstLeft = c.spec.burst - 1;
        note(kind, domain);
        return true;
    }
    return false;
}

void
FaultInjector::note(FaultKind kind, std::uint32_t domain)
{
    injected_[static_cast<std::size_t>(kind)].inc();
    engine_.spanInstant(track_, faultKindName(kind),
                    domain == kAnyDomain
                        ? 0.0
                        : static_cast<double>(domain));
}

FaultInjector::MailFate
FaultInjector::onMailDeliver(std::uint32_t from, std::uint32_t to,
                             std::uint32_t &word)
{
    // A crashed endpoint neither sends nor receives.
    if (domainDown(from) || domainDown(to)) {
        crashMailDrops_.inc();
        engine_.spanInstant(track_, "crash.mail_drop",
                        static_cast<double>(to));
        return MailFate::Drop;
    }
    // Mail clauses filter on the destination domain.
    if (decide(FaultKind::MailBitFlip, to, kAnyLine)) {
        word ^= 1u << rng_.below(32);
        return MailFate::Corrupt;
    }
    if (decide(FaultKind::MailDrop, to, kAnyLine))
        return MailFate::Drop;
    if (decide(FaultKind::MailDuplicate, to, kAnyLine))
        return MailFate::Duplicate;
    return MailFate::Deliver;
}

bool
FaultInjector::onDmaTransfer()
{
    return decide(FaultKind::DmaTransferError, kAnyDomain, kAnyLine);
}

bool
FaultInjector::onDmaCompletionIrq()
{
    return decide(FaultKind::DmaIrqLoss, kAnyDomain, kAnyLine);
}

bool
FaultInjector::onIrqRaise(std::uint32_t domain, std::uint32_t line)
{
    if (domainDown(domain)) {
        crashIrqDrops_.inc();
        return true;
    }
    return decide(FaultKind::IrqLost, domain, line);
}

bool
FaultInjector::domainDown(std::uint32_t domain) const
{
    for (std::size_t idx :
         byKind_[static_cast<std::size_t>(FaultKind::DomainCrash)]) {
        const ClauseState &c = clauses_[idx];
        if (c.spec.domain == domain && !c.revived &&
            engine_.now() >= c.spec.at)
            return true;
    }
    return false;
}

sim::Time
FaultInjector::stallEnd(std::uint32_t domain) const
{
    for (std::size_t idx :
         byKind_[static_cast<std::size_t>(FaultKind::DomainStall)]) {
        const ClauseState &c = clauses_[idx];
        const sim::Time end = c.spec.at + c.spec.len;
        if (c.spec.domain == domain && engine_.now() >= c.spec.at &&
            engine_.now() < end)
            return end;
    }
    return 0;
}

sim::Time
FaultInjector::crashTime(std::uint32_t domain) const
{
    for (std::size_t idx :
         byKind_[static_cast<std::size_t>(FaultKind::DomainCrash)]) {
        const ClauseState &c = clauses_[idx];
        if (c.spec.domain == domain && !c.revived &&
            engine_.now() >= c.spec.at)
            return c.spec.at;
    }
    return 0;
}

void
FaultInjector::revive(std::uint32_t domain)
{
    for (std::size_t idx :
         byKind_[static_cast<std::size_t>(FaultKind::DomainCrash)]) {
        ClauseState &c = clauses_[idx];
        if (c.spec.domain == domain && engine_.now() >= c.spec.at) {
            c.revived = true;
            // Count the crash the moment software clears it; the
            // onset itself injects nothing until traffic hits it.
            note(FaultKind::DomainCrash, domain);
        }
    }
}

void
FaultInjector::registerMetrics(obs::MetricsRegistry &reg,
                               const std::string &prefix) const
{
    for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
        reg.addCounter(prefix + "." +
                           faultKindName(static_cast<FaultKind>(k)),
                       injected_[k]);
    }
    reg.addCounter(prefix + ".crash_mail_drops", crashMailDrops_);
    reg.addCounter(prefix + ".crash_irq_drops", crashIrqDrops_);
}

} // namespace fault
} // namespace k2
