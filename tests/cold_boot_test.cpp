/**
 * @file
 * Provisioning is a cold boot: every fixture is booted fresh, so a
 * sweep cell is reproducible from its configuration alone.
 *
 *  - determinism: two boots of each sweep-cell configuration run the
 *    same episodes bit-identically, down to every registered metric
 *    and the simulated clock;
 *  - warmK2/warmLinux hand out a fresh fixture on every call, in
 *    either SweepMode;
 *  - a booted K2 kernel's page metadata exists only for the 16 MB
 *    sections it owns, and stays consistent across balloon moves.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>

#include "fault/plan.h"
#include "obs/metrics.h"
#include "os/coherence/protocol.h"
#include "os/k2_system.h"
#include "workloads/benchmarks.h"
#include "workloads/episode.h"
#include "workloads/testbed.h"
#include "workloads/warm.h"

namespace k2 {
namespace {

/** One sweep-cell configuration. */
struct CellConfig
{
    const char *name;
    bool k2;
    const char *protocol;
    std::size_t replicas;
    const char *faults;
};

const CellConfig kCells[] = {
    {"k2", true, "2state", 1, ""},
    {"mesi", true, "mesi", 1, ""},
    {"rac", true, "rac", 1, ""},
    {"replicas3", true, "2state", 3, ""},
    {"drop", true, "2state", 1, "mailbox.drop:p=1e-3"},
    {"linux", false, "", 1, ""},
};

wl::Testbed
boot(const CellConfig &c)
{
    if (!c.k2)
        return wl::Testbed::makeLinux();
    os::K2Config cfg;
    cfg.dsmProtocol = os::coherence::parseProtocol(c.protocol);
    cfg.replicas = c.replicas;
    if (*c.faults)
        cfg.faults = fault::FaultPlan::parse(c.faults);
    return wl::Testbed::makeK2(std::move(cfg));
}

/** Run one episode of each kind; return every result bit, every
 *  metric and the clock as one string. */
std::string
runCell(wl::Testbed &tb)
{
    obs::MetricsRegistry reg;
    tb.registerMetrics(reg);
    std::string out;
    const auto note = [&out](const wl::EpisodeResult &r) {
        out += std::to_string(r.bytes) + " " +
               std::to_string(r.runTime) + " " +
               std::to_string(r.episodeTime) + " " +
               sim::strPrintf("%a", r.energyUj) + "\n";
    };
    note(wl::runEpisodeWarm(tb.sys(), tb.proc(), "dma",
                            wl::dmaCopy(tb.dma(), 4096, 64 * 1024)));
    note(wl::runEpisodeWarm(tb.sys(), tb.proc(), "ext2",
                            wl::ext2Sync(tb.fs(), 8192, 4)));
    note(wl::runEpisodeWarm(
        tb.sys(), tb.proc(), "udp",
        wl::udpLoopback(tb.udp(), 8192, 32 * 1024)));
    return out + reg.snapshot().toJson() + "@" +
           std::to_string(tb.engine().now());
}

void
PrintTo(const CellConfig &c, std::ostream *os)
{
    *os << c.name;
}

class ColdBootTest : public ::testing::TestWithParam<CellConfig>
{};

TEST_P(ColdBootTest, TwoBootsRunIdenticalEpisodes)
{
    wl::Testbed a = boot(GetParam());
    wl::Testbed b = boot(GetParam());
    const std::string first = runCell(a);
    EXPECT_EQ(first, runCell(b));
    EXPECT_NE(first.find("svc.fs."), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    SweepCells, ColdBootTest, ::testing::ValuesIn(kCells),
    [](const ::testing::TestParamInfo<CellConfig> &info) {
        return std::string(info.param.name);
    });

/** Both SweepModes boot a fresh fixture on every call: a cell that
 *  dirtied the previous fixture leaves nothing behind. */
TEST(ColdBoot, BothSweepModesBootFresh)
{
    const auto cell = [](wl::SweepMode mode) {
        return runCell(wl::warmK2(mode, "cold-boot-test"));
    };
    const std::string cold = cell(wl::SweepMode::Cold);
    EXPECT_EQ(cold, cell(wl::SweepMode::Warm));
    EXPECT_EQ(cold, cell(wl::SweepMode::Warm));

    const auto linuxCell = [](wl::SweepMode mode) {
        return runCell(wl::warmLinux(mode, "cold-boot-test-linux"));
    };
    const std::string linuxCold = linuxCell(wl::SweepMode::Cold);
    EXPECT_EQ(linuxCold, linuxCell(wl::SweepMode::Warm));
    EXPECT_NE(cold, linuxCold);
}

/** Sections of the buddy window holding any page of @p r. */
void
addSections(std::set<std::uint64_t> &out, kern::PageRange r)
{
    constexpr std::uint64_t kSection =
        kern::BuddyAllocator::kSectionPages;
    for (std::uint64_t s = r.first / kSection;
         s <= (r.end() - 1) / kSection; ++s)
        out.insert(s);
}

/** Sections kernel @p k of @p sys owns pages in through its buddy
 *  allocator: the global blocks the meta-level manager handed it. */
std::set<std::uint64_t>
ownedSections(os::K2System &sys, std::size_t k)
{
    const auto who = k == 0 ? os::MetaLevelManager::BlockOwner::Main
                            : os::MetaLevelManager::BlockOwner::Shadow;
    std::set<std::uint64_t> out;
    for (std::size_t b = 0; b < sys.meta().numBlocks(); ++b) {
        if (sys.meta().blockOwner(b) == who)
            addSections(out, sys.meta().blockRange(b));
    }
    return out;
}

std::set<std::uint64_t>
allocatedSections(kern::BuddyAllocator &buddy)
{
    std::set<std::uint64_t> out;
    for (std::uint64_t s = 0;
         s * kern::BuddyAllocator::kSectionPages < buddy.windowPages();
         ++s) {
        if (buddy.hasSection(s * kern::BuddyAllocator::kSectionPages))
            out.insert(s);
    }
    return out;
}

TEST(ColdBoot, BuddyHasSectionsOnlyForOwnedBlocks)
{
    os::K2System sys;
    sys.ownedEngine().run();
    for (std::size_t k = 0; k < 2; ++k) {
        kern::BuddyAllocator &buddy = k == 0
            ? sys.mainKernel().pageAllocator()
            : sys.shadowKernel().pageAllocator();
        const std::set<std::uint64_t> owned = ownedSections(sys, k);
        EXPECT_EQ(allocatedSections(buddy), owned) << "kernel " << k;
        // A kernel owns a few blocks of the whole of RAM.
        EXPECT_LT(owned.size() * kern::BuddyAllocator::kSectionPages,
                  buddy.windowPages() / 2);
        buddy.checkInvariants();
    }

    // Balloon moves: a deflate hands the main kernel a new block (and
    // its section); an inflate takes one back. Sections are kept once
    // allocated, so the allocated set covers everything ever owned.
    kern::Process &proc = sys.createProcess("balloon");
    sys.mainKernel().spawnThread(
        &proc, "t", kern::ThreadKind::Normal,
        [&sys](kern::Thread &t) -> sim::Task<void> {
            for (int i = 0; i < 3; ++i)
                EXPECT_TRUE((co_await sys.meta().deflateOne(t)));
            EXPECT_TRUE((co_await sys.meta().inflateOne(t)));
        });
    sys.ownedEngine().run();
    for (std::size_t k = 0; k < 2; ++k) {
        kern::BuddyAllocator &buddy = k == 0
            ? sys.mainKernel().pageAllocator()
            : sys.shadowKernel().pageAllocator();
        const std::set<std::uint64_t> have = allocatedSections(buddy);
        const std::set<std::uint64_t> owned = ownedSections(sys, k);
        for (const std::uint64_t s : owned)
            EXPECT_TRUE(have.count(s)) << "kernel " << k << " block " << s;
        // At most the inflated block's section outlives its ownership.
        EXPECT_LE(have.size(), owned.size() + 1) << "kernel " << k;
        buddy.checkInvariants();
    }
}

} // namespace
} // namespace k2
