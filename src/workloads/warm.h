/**
 * @file
 * Per-thread fixture slots for callers written against the retired
 * boot-once sweep mode.
 *
 * Every fixture is a cold boot: booting a testbed costs no more than
 * rewinding a pooled one did (the ramdisk and the page metadata are
 * allocated as they are first used, DESIGN.md §10), so there is no
 * warm path left. SweepMode and these two functions remain because
 * external callers (the perfbench package) provision through them;
 * both modes boot a fresh fixture.
 */

#ifndef K2_WORKLOADS_WARM_H
#define K2_WORKLOADS_WARM_H

#include <functional>
#include <string>

#include "workloads/testbed.h"

namespace k2 {
namespace wl {

/** How a caller asked for its fixture. Both values boot cold. */
enum class SweepMode
{
    Cold,
    Warm,
};

/**
 * Boot a fresh K2 testbed into this thread's slot for @p key. A null
 * @p cfg means the default K2Config.
 *
 * @return The quiesced post-boot testbed. Valid until the next call
 *         with the same key on this thread.
 */
Testbed &warmK2(SweepMode mode, const std::string &key,
                const std::function<os::K2Config()> &cfg = {});

/** Boot a fresh baseline-Linux testbed into this thread's slot for
 *  @p key (see warmK2). */
Testbed &warmLinux(SweepMode mode, const std::string &key,
                   const std::function<baseline::LinuxConfig()> &cfg = {});

} // namespace wl
} // namespace k2

#endif // K2_WORKLOADS_WARM_H
