/**
 * @file
 * A ready-to-run system fixture: a SystemImage (K2 or baseline Linux)
 * with the three evaluated services attached -- the DMA driver, the
 * ext2 filesystem on a ramdisk, and the UDP stack -- and the shared
 * DMA interrupt under K2 routing. Used by the benches, the examples,
 * and the integration tests.
 */

#ifndef K2_WORKLOADS_TESTBED_H
#define K2_WORKLOADS_TESTBED_H

#include <memory>

#include "baseline/linux_system.h"
#include "os/k2_system.h"
#include "svc/block.h"
#include "svc/dma_driver.h"
#include "svc/ext2.h"
#include "svc/udp.h"

namespace k2 {
namespace wl {

class Testbed
{
  public:
    /** Build a K2 testbed. */
    static Testbed makeK2(os::K2Config cfg = {});

    /** Build a baseline-Linux testbed. */
    static Testbed makeLinux(baseline::LinuxConfig cfg = {});

    Testbed(Testbed &&) = default;
    Testbed &operator=(Testbed &&) = default;

    os::SystemImage &sys() { return *sys_; }
    os::K2System *k2() { return k2_; } //!< Null on the baseline.
    svc::RamDisk &disk() { return *disk_; }
    svc::Ext2Fs &fs() { return *fs_; }
    svc::DmaDriver &dma() { return *dma_; }
    svc::UdpStack &udp() { return *udp_; }
    kern::Process &proc() { return *proc_; }
    sim::Engine &engine() { return sys_->engine(); }

    /**
     * Register the whole stack's metrics: the system image (sim, soc,
     * kernels, and -- under K2 -- the os components) plus the attached
     * service drivers under "svc.*".
     */
    void registerMetrics(obs::MetricsRegistry &reg);

  private:
    Testbed() = default;
    void attachServices();

    std::unique_ptr<os::SystemImage> sys_;
    os::K2System *k2_ = nullptr;
    std::unique_ptr<svc::RamDisk> disk_;
    std::unique_ptr<svc::Ext2Fs> fs_;
    std::unique_ptr<svc::DmaDriver> dma_;
    std::unique_ptr<svc::UdpStack> udp_;
    kern::Process *proc_ = nullptr;
};

} // namespace wl
} // namespace k2

#endif // K2_WORKLOADS_TESTBED_H
