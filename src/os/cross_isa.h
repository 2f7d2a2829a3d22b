/**
 * @file
 * Cross-ISA function-pointer dispatch (paper §5.4).
 *
 * K2 builds both kernels from one source tree; shared data structures
 * are full of function pointers that hold ARM-ISA addresses. The
 * build statically rewrites blx (the long-jump instruction GCC emits
 * for indirect calls) into Undef; when the Thumb-2 Cortex-M3
 * dereferences such a pointer it traps into a recoverable exception
 * and K2 dispatches to the M3 build of the function.
 *
 * This module models the runtime side: each function-pointer dispatch
 * on the shadow kernel costs an exception round trip plus a lookup.
 * blx is sparse -- 0.1% of instructions, 6% of jumps -- so shadowed
 * services charge a handful of dispatches per operation.
 */

#ifndef K2_OS_CROSS_ISA_H
#define K2_OS_CROSS_ISA_H

#include <vector>

#include "sim/stats.h"
#include "sim/task.h"
#include "soc/core.h"
#include "kern/kernel.h"

namespace k2 {
namespace os {

class CrossIsaDispatcher
{
  public:
    /** Fraction of all instructions that are blx (paper §5.4). */
    static constexpr double kBlxInstrFraction = 0.001;

    /**
     * @param shadow The shadow kernel (the only one that traps).
     * @param per_dispatch Exception entry + table lookup + return.
     */
    explicit CrossIsaDispatcher(kern::Kernel &shadow,
                                sim::Duration per_dispatch = sim::usec(2))
        : shadows_{&shadow}, perDispatch_(per_dispatch)
    {}

    /** Register a further Thumb-2 kernel (a shadow replica) as a
     *  trapping ISA. */
    void addShadow(kern::Kernel &k) { shadows_.push_back(&k); }

    /**
     * Charge @p n function-pointer dispatches if @p kern is a shadow
     * kernel; free on the main kernel (native blx).
     */
    sim::Task<void>
    charge(kern::Kernel &kern, soc::Core &core, std::uint64_t n = 1)
    {
        for (kern::Kernel *s : shadows_) {
            if (&kern == s && n > 0) {
                dispatches_.inc(n);
                co_await core.execTime(perDispatch_ * n);
                break;
            }
        }
    }

    std::uint64_t dispatches() const { return dispatches_.value(); }
    sim::Duration perDispatch() const { return perDispatch_; }

  private:
    std::vector<kern::Kernel *> shadows_;
    sim::Duration perDispatch_;
    sim::Counter dispatches_;
};

} // namespace os
} // namespace k2

#endif // K2_OS_CROSS_ISA_H
