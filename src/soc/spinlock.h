/**
 * @file
 * Hardware spinlocks: memory-mapped test-and-set bits for inter-domain
 * synchronisation (OMAP4 provides a bank of 32).
 *
 * Acquiring a held lock spins: the spinning core stays active and burns
 * energy at the platform's spin-poll interval, with each poll also
 * charging one interconnect access. K2 augments the kernel locks of
 * shadowed services with these (§5.3).
 */

#ifndef K2_SOC_SPINLOCK_H
#define K2_SOC_SPINLOCK_H

#include <cstdint>
#include <vector>

#include "sim/engine.h"
#include "sim/stats.h"
#include "sim/task.h"
#include "soc/core.h"

namespace k2 {
namespace soc {

class HwSpinlockBank
{
  public:
    HwSpinlockBank(sim::Engine &eng, std::size_t count,
                   const PlatformCosts &costs)
        : engine_(eng), costs_(costs), taken_(count, false)
    {}

    std::size_t size() const { return taken_.size(); }

    /** Atomic test-and-set; true if the lock was acquired. */
    bool
    tryAcquire(std::size_t idx)
    {
        K2_ASSERT(idx < taken_.size());
        if (taken_[idx]) {
            contended_.inc();
            return false;
        }
        taken_[idx] = true;
        acquisitions_.inc();
        return true;
    }

    /**
     * Spin on @p core until the lock is acquired.
     *
     * Each unsuccessful poll charges the spin interval plus one bus
     * access of active time on the spinning core.
     */
    sim::Task<void>
    acquire(std::size_t idx, Core &core)
    {
        // The initial attempt also pays one bus access.
        co_await core.execTime(costs_.busAccess);
        while (!tryAcquire(idx))
            co_await core.execTime(costs_.spinPoll + costs_.busAccess);
    }

    /** Release a held lock. */
    void
    release(std::size_t idx)
    {
        K2_ASSERT(idx < taken_.size());
        K2_ASSERT(taken_[idx]);
        taken_[idx] = false;
    }

    bool isHeld(std::size_t idx) const { return taken_.at(idx); }

    /** @name Statistics. @{ */
    std::uint64_t acquisitions() const { return acquisitions_.value(); }
    std::uint64_t contendedPolls() const { return contended_.value(); }
    /** @} */

  private:
    sim::Engine &engine_;
    const PlatformCosts &costs_;
    std::vector<bool> taken_;
    sim::Counter acquisitions_;
    sim::Counter contended_;
};

} // namespace soc
} // namespace k2

#endif // K2_SOC_SPINLOCK_H
