#include "workloads/testbed.h"

#include "obs/metrics.h"
#include "sim/log.h"

namespace k2 {
namespace wl {

namespace {

/** 64 MB ramdisk with 4 KB blocks. */
constexpr std::uint64_t kDiskBlocks = 16384;

} // namespace

void
Testbed::attachServices()
{
    disk_ = std::make_unique<svc::RamDisk>(svc::Ext2Fs::kBlockBytes,
                                           kDiskBlocks);
    fs_ = std::make_unique<svc::Ext2Fs>(*sys_, *disk_);
    dma_ = std::make_unique<svc::DmaDriver>(*sys_);
    udp_ = std::make_unique<svc::UdpStack>(*sys_);
    if (k2_ && k2_->recoveryArmed())
        dma_->enableRecovery();

    for (kern::Kernel *kern : sys_->kernels())
        dma_->attachKernel(*kern);
    if (k2_)
        k2_->irqRouter().manageLine(soc::kIrqDma);

    proc_ = &sys_->createProcess("testbed");

    // Format the filesystem from a boot thread.
    bool formatted = false;
    sys_->spawnNormal(*proc_, "mkfs",
                      [this, &formatted](kern::Thread &t)
                          -> sim::Task<void> {
                          const auto st = co_await fs_->mkfs(t);
                          K2_ASSERT(st == svc::FsStatus::Ok);
                          formatted = true;
                      });
    sys_->engine().run();
    K2_ASSERT(formatted);
}

Testbed
Testbed::makeK2(os::K2Config cfg)
{
    Testbed tb;
    auto k2sys = std::make_unique<os::K2System>(std::move(cfg));
    tb.k2_ = k2sys.get();
    tb.sys_ = std::move(k2sys);
    tb.attachServices();
    return tb;
}

Testbed
Testbed::makeLinux(baseline::LinuxConfig cfg)
{
    Testbed tb;
    tb.sys_ = std::make_unique<baseline::LinuxSystem>(std::move(cfg));
    tb.attachServices();
    return tb;
}

void
Testbed::registerMetrics(obs::MetricsRegistry &reg)
{
    sys_->registerMetrics(reg);
    dma_->registerMetrics(reg, "svc.dma");
    fs_->registerMetrics(reg, "svc.fs");
    udp_->registerMetrics(reg, "svc.net");
    reg.addCounter("svc.disk.reads", disk_->reads);
    reg.addCounter("svc.disk.writes", disk_->writes);
}

} // namespace wl
} // namespace k2
