#include "workloads/warm.h"

#include <map>
#include <memory>

namespace k2 {
namespace wl {

namespace {

/** Boot make() into this thread's slot for @p key. */
template <typename Make>
Testbed &
boot(const std::string &key, const Make &make)
{
    thread_local std::map<std::string, std::unique_ptr<Testbed>> slots;
    std::unique_ptr<Testbed> &s = slots[key];
    s.reset(); // At most one fixture per key is resident.
    s = std::make_unique<Testbed>(make());
    return *s;
}

} // namespace

Testbed &
warmK2(SweepMode, const std::string &key,
       const std::function<os::K2Config()> &cfg)
{
    return boot(key, [&cfg] {
        return cfg ? Testbed::makeK2(cfg()) : Testbed::makeK2();
    });
}

Testbed &
warmLinux(SweepMode, const std::string &key,
          const std::function<baseline::LinuxConfig()> &cfg)
{
    return boot(key, [&cfg] {
        return cfg ? Testbed::makeLinux(cfg()) : Testbed::makeLinux();
    });
}

} // namespace wl
} // namespace k2
