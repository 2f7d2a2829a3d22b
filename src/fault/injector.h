/**
 * @file
 * FaultInjector: the runtime side of the fault plane.
 *
 * The SoC components (MailboxNet, DmaEngine, InterruptController) hold
 * an optional pointer to one injector and consult it at each fault
 * opportunity. With no injector attached -- or an empty plan -- every
 * hook is a null-pointer check and the simulation is bit-identical to
 * a build without the fault plane.
 *
 * Decision model:
 *  - Per-opportunity kinds (mail drop/dup/flip, DMA error/IRQ-loss,
 *    lost IRQ) are decided synchronously at the hook from the
 *    injector's own PRNG stream. A hook draws at most once per
 *    matching clause, and not at all when no clause of its kind
 *    matches -- so adding, say, a DMA clause cannot perturb mailbox
 *    behaviour.
 *  - Scheduled conditions (domain crash/stall) are evaluated lazily
 *    from the clock: `domainDown()` compares now against the clause's
 *    onset. No standing timers are created, so the engine's
 *    quiescence-based episode harness is unaffected until software
 *    actually trips over the fault.
 *  - Spurious IRQs are the one exception: each clause schedules a
 *    single one-shot raise event at its onset time.
 *
 * Every injected fault increments a `fault.injected.*` counter and
 * emits an instant span on the "fault" track.
 */

#ifndef K2_FAULT_INJECTOR_H
#define K2_FAULT_INJECTOR_H

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/plan.h"
#include "sim/engine.h"
#include "sim/random.h"
#include "sim/stats.h"

namespace k2 {

namespace obs {
class MetricsRegistry;
}

namespace fault {

class FaultInjector
{
  public:
    /** Outcome of the mailbox delivery hook. */
    enum class MailFate
    {
        Deliver,   //!< Normal delivery.
        Drop,      //!< Mail lost in transit (or endpoint crashed).
        Duplicate, //!< Deliver the mail twice.
        Corrupt,   //!< Payload flipped; link ECC detects and discards.
    };

    /** Raises a spurious interrupt on @p domain's controller. */
    using IrqRaiser = std::function<void(std::uint32_t domain,
                                         std::uint32_t line)>;

    FaultInjector(sim::Engine &eng, FaultPlan plan);

    const FaultPlan &plan() const { return plan_; }

    /**
     * Wire the spurious-IRQ raiser and schedule the (rare) one-shot
     * spurious raise events. Call once after SoC construction.
     */
    void arm(IrqRaiser raiser);

    /** @name Hook points (called by the SoC components). @{ */

    /**
     * Decide the fate of a mail about to be delivered. May mutate
     * @p word (bit flip) before returning Corrupt. Mails to or from a
     * crashed domain are dropped.
     */
    MailFate onMailDeliver(std::uint32_t from, std::uint32_t to,
                           std::uint32_t &word);

    /** True if the in-flight DMA transfer completes with an error. */
    bool onDmaTransfer();

    /** True if the DMA completion IRQ pulse should be suppressed. */
    bool onDmaCompletionIrq();

    /** True if a raised line on @p domain's controller is lost. */
    bool onIrqRaise(std::uint32_t domain, std::uint32_t line);

    /** @} */

    /** @name Scheduled-condition state (lazy, clock-derived). @{ */

    /** True while @p domain is crashed (onset passed, not revived). */
    bool domainDown(std::uint32_t domain) const;

    /** End of @p domain's current stall window, or 0 if not stalled. */
    sim::Time stallEnd(std::uint32_t domain) const;

    /** Onset time of the crash currently downing @p domain (for
     *  detection-latency attribution). */
    sim::Time crashTime(std::uint32_t domain) const;

    /** Revive @p domain: consume its tripped crash clauses. */
    void revive(std::uint32_t domain);

    /** @} */

    /** Faults injected so far for @p kind. */
    std::uint64_t injected(FaultKind kind) const
    {
        return injected_[static_cast<std::size_t>(kind)].value();
    }

    /** Mails/IRQs dropped because an endpoint domain was crashed. @{ */
    std::uint64_t crashMailDrops() const
    {
        return crashMailDrops_.value();
    }
    std::uint64_t crashIrqDrops() const
    {
        return crashIrqDrops_.value();
    }
    /** @} */

    /** Register `<prefix>.<kind>` counters (prefix "fault.injected"). */
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const;

  private:
    struct ClauseState
    {
        FaultSpec spec;
        std::uint32_t burstLeft = 0; //!< Remaining forced fires.
        bool fired = false;          //!< One-shot clause consumed.
        bool revived = false;        //!< Crash clause cleared.
    };

    bool decide(FaultKind kind, std::uint32_t domain,
                std::uint32_t line);
    void note(FaultKind kind, std::uint32_t domain);

    sim::Engine &engine_;
    FaultPlan plan_;
    sim::Rng rng_;
    /** Clause indices grouped by kind: empty group = free no-op hook. */
    std::array<std::vector<std::size_t>, kNumFaultKinds> byKind_;
    std::vector<ClauseState> clauses_;
    IrqRaiser raiser_;
    sim::TrackId track_{};
    std::array<sim::Counter, kNumFaultKinds> injected_;
    sim::Counter crashMailDrops_;
    sim::Counter crashIrqDrops_;
};

} // namespace fault
} // namespace k2

#endif // K2_FAULT_INJECTOR_H
