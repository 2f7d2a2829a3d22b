#include "workloads/dsm_rig.h"

#include <string>

namespace k2 {
namespace wl {

DsmRig::DsmRig(std::size_t domains, os::coherence::ProtocolKind proto,
               std::uint64_t pages)
{
    soc::SocConfig cfg = (domains >= 3) ? soc::threeDomainConfig()
                                        : soc::omap4Config();
    while (cfg.domains.size() < domains) {
        soc::DomainSpec spec = cfg.domains[soc::kWeakDomain];
        spec.name = "weak" + std::to_string(cfg.domains.size() - 1);
        cfg.domains.push_back(spec);
    }
    cfg.costs.inactiveTimeout = 0;
    soc = std::make_unique<soc::Soc>(eng, cfg);
    std::vector<kern::Kernel *> raw;
    for (soc::DomainId d = 0; d < domains; ++d) {
        kernels.push_back(std::make_unique<kern::Kernel>(
            *soc, d, "k" + std::to_string(d)));
        kernels.back()->boot();
        raw.push_back(kernels.back().get());
    }
    dsm = std::make_unique<os::Dsm>(*soc, raw, pages, proto);
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        kernels[i]->setMailHandler([this, i](soc::Mail m, soc::Core &c) {
            return dsm->handleMail(i, m, c);
        });
    }
    proc = std::make_unique<kern::Process>(1, "bench");
}

void
DsmRig::touch(std::size_t k, std::uint64_t page, os::Access rw)
{
    kernels[k]->spawnThread(
        proc.get(), "t", kern::ThreadKind::Normal,
        [this, page, rw](kern::Thread &t) -> sim::Task<void> {
            co_await dsm->access(t.kernel(), t.core(), page, rw);
        });
    eng.run();
}

} // namespace wl
} // namespace k2
