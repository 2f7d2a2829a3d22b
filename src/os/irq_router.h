/**
 * @file
 * K2 interrupt management for shared IO interrupts (paper §7).
 *
 * IO-peripheral interrupts are physically wired to every coherence
 * domain; K2 must make exactly one kernel handle each. Two rules:
 *
 *  1. For energy efficiency, a shared interrupt never wakes the strong
 *     domain from the inactive state -- the shadow kernel handles it.
 *  2. For performance, while the strong domain is awake the main
 *     kernel handles all shared interrupts.
 *
 * Implemented, as in the paper, by hooking power-state transitions:
 * when the strong domain goes inactive the router unmasks the shared
 * lines on the weak domain and masks them on the strong one, and
 * reverses this when the strong domain wakes up.
 */

#ifndef K2_OS_IRQ_ROUTER_H
#define K2_OS_IRQ_ROUTER_H

#include <vector>

#include "sim/stats.h"
#include "soc/soc.h"
#include "kern/kernel.h"

namespace k2 {
namespace os {

class IrqRouter
{
  public:
    IrqRouter(soc::Soc &soc, kern::Kernel &main, kern::Kernel &shadow);

    /**
     * Put @p line under K2 management. Both kernels must already have
     * registered handlers for it.
     */
    void manageLine(soc::IrqLine line);

    /** Hook the strong domain's power-state transitions. Call once. */
    void install();

    /** True if shared interrupts are currently routed to the shadow
     *  kernel. */
    bool routedToWeak() const { return routedToWeak_; }

    /** Times routing flipped strong->weak or back. */
    std::uint64_t reroutes() const { return reroutes_.value(); }

    /**
     * Degraded mode (shadow kernel down): pin all shared interrupts to
     * the strong domain regardless of its power state -- energy rule 1
     * is suspended while there is no shadow to serve them. Turning
     * degradation off resumes power-state-driven routing.
     */
    void setDegraded(bool degraded);
    bool degraded() const { return degraded_; }

    /**
     * Force the per-line masks that realise the current routing.
     * Needed after a shadow-kernel restart: replaying its IRQ
     * registrations unmasked every line on the rebuilt controller, and
     * applyRouting() short-circuits when the routing target is
     * unchanged.
     */
    void reapplyMasks();

  private:
    void applyRouting(bool to_weak);
    void onStrongStateChange();

    soc::Soc &soc_;
    kern::Kernel &main_;
    kern::Kernel &shadow_;
    std::vector<soc::IrqLine> lines_;
    bool routedToWeak_ = false;
    bool installed_ = false;
    bool degraded_ = false;
    sim::Counter reroutes_;
};

} // namespace os
} // namespace k2

#endif // K2_OS_IRQ_ROUTER_H
