/**
 * @file
 * Unit and property tests for the buddy page allocator.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/random.h"
#include "kern/buddy.h"

namespace k2::kern {
namespace {

constexpr std::uint64_t kBlock = 4096; // pages per 16 MB block

class BuddyTest : public ::testing::Test
{
  protected:
    BuddyTest()
        : buddy("test", 0, 16 * kBlock)
    {
        buddy.addFreeRange(PageRange{0, 16 * kBlock});
    }

    BuddyAllocator buddy;
};

TEST_F(BuddyTest, StartsWithDonatedPages)
{
    EXPECT_EQ(buddy.freePages(), 16 * kBlock);
    EXPECT_EQ(buddy.allocatedPages(), 0u);
    buddy.checkInvariants();
}

TEST_F(BuddyTest, AllocFreeRoundTrip)
{
    auto r = buddy.alloc(0, Migrate::Movable);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->range.count, 1u);
    EXPECT_TRUE(buddy.isAllocated(r->range.first));
    EXPECT_EQ(buddy.freePages(), 16 * kBlock - 1);
    buddy.free(r->range.first);
    EXPECT_EQ(buddy.freePages(), 16 * kBlock);
    buddy.checkInvariants();
    // Full coalescing: a max-order block is available again.
    EXPECT_EQ(buddy.largestFreeOrder(),
              std::optional<unsigned>(BuddyAllocator::kMaxOrder));
}

TEST_F(BuddyTest, PlacementPolicyMovableHighUnmovableLow)
{
    auto movable = buddy.alloc(0, Migrate::Movable);
    auto unmovable = buddy.alloc(0, Migrate::Unmovable);
    ASSERT_TRUE(movable && unmovable);
    // Movable from the top of the window, unmovable from the bottom.
    EXPECT_EQ(movable->range.first, 16 * kBlock - 1);
    EXPECT_EQ(unmovable->range.first, 0u);
    buddy.checkInvariants();
}

TEST_F(BuddyTest, LargerOrdersAreContiguousAndAligned)
{
    for (unsigned order = 1; order <= 8; ++order) {
        auto r = buddy.alloc(order, Migrate::Movable);
        ASSERT_TRUE(r.has_value()) << "order " << order;
        EXPECT_EQ(r->range.count, 1ull << order);
        EXPECT_EQ(r->range.first % (1ull << order), 0u);
    }
    buddy.checkInvariants();
}

TEST_F(BuddyTest, WorkGrowsWithOrder)
{
    auto small = buddy.alloc(0, Migrate::Movable);
    auto large = buddy.alloc(8, Migrate::Movable);
    ASSERT_TRUE(small && large);
    EXPECT_GT(large->work, small->work * 5);
}

TEST_F(BuddyTest, ExhaustionFailsCleanly)
{
    std::vector<Pfn> held;
    for (;;) {
        auto r = buddy.alloc(BuddyAllocator::kMaxOrder, Migrate::Movable);
        if (!r)
            break;
        held.push_back(r->range.first);
    }
    EXPECT_EQ(held.size(), 16u);
    EXPECT_EQ(buddy.freePages(), 0u);
    EXPECT_FALSE(buddy.alloc(0, Migrate::Movable).has_value());
    EXPECT_GT(buddy.failedAllocs.value(), 0u);
    for (Pfn p : held)
        buddy.free(p);
    buddy.checkInvariants();
    EXPECT_EQ(buddy.freePages(), 16 * kBlock);
}

TEST_F(BuddyTest, DoubleFreePanics)
{
    auto r = buddy.alloc(0, Migrate::Movable);
    ASSERT_TRUE(r);
    buddy.free(r->range.first);
    EXPECT_DEATH(buddy.free(r->range.first), "not an allocation head");
}

TEST_F(BuddyTest, ReclaimFreeRangeSucceeds)
{
    // Reclaim the lowest block while it is entirely free.
    auto res = buddy.reclaimRange(PageRange{0, kBlock});
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.migrated, 0u);
    EXPECT_EQ(buddy.freePages(), 15 * kBlock);
    buddy.checkInvariants();
    // The reclaimed pages can be donated back.
    buddy.addFreeRange(PageRange{0, kBlock});
    EXPECT_EQ(buddy.freePages(), 16 * kBlock);
    buddy.checkInvariants();
}

TEST_F(BuddyTest, ReclaimMigratesMovablePages)
{
    // Place unmovable allocations at the bottom, movable at the top.
    auto unmovable = buddy.alloc(4, Migrate::Unmovable);
    auto movable = buddy.alloc(4, Migrate::Movable);
    ASSERT_TRUE(unmovable && movable);
    ASSERT_GE(movable->range.first, 15 * kBlock);

    // Reclaiming the top block must evacuate the movable pages.
    auto res = buddy.reclaimRange(PageRange{15 * kBlock, kBlock});
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.migrated, 16u);
    EXPECT_GT(res.work, 0u);
    buddy.checkInvariants();
    // Allocated count is preserved (pages were migrated, not freed).
    EXPECT_EQ(buddy.allocatedPages(), 32u);
}

TEST_F(BuddyTest, ReclaimFailsOnUnmovablePages)
{
    // Force an unmovable allocation into the top block by exhausting
    // all lower memory first.
    std::vector<Pfn> held;
    for (int i = 0; i < 15; ++i) {
        auto r = buddy.alloc(BuddyAllocator::kMaxOrder,
                             Migrate::Unmovable);
        ASSERT_TRUE(r);
        held.push_back(r->range.first);
    }
    auto top = buddy.alloc(0, Migrate::Unmovable);
    ASSERT_TRUE(top);
    ASSERT_GE(top->range.first, 15 * kBlock);

    const auto before_free = buddy.freePages();
    auto res = buddy.reclaimRange(PageRange{15 * kBlock, kBlock});
    EXPECT_FALSE(res.ok);
    // No side effects on failure.
    EXPECT_EQ(buddy.freePages(), before_free);
    buddy.checkInvariants();
}

TEST_F(BuddyTest, MovablePagesInCountsCorrectly)
{
    auto m = buddy.alloc(3, Migrate::Movable); // 8 pages at top
    ASSERT_TRUE(m);
    EXPECT_EQ(buddy.movablePagesIn(PageRange{15 * kBlock, kBlock}), 8u);
    EXPECT_EQ(buddy.movablePagesIn(PageRange{0, kBlock}), 0u);
}

TEST(BuddySections, AllocatedWhenFirstOwned)
{
    // A 64-block window that owns two blocks has metadata for two.
    BuddyAllocator b("sparse", 0, 64 * kBlock);
    for (std::uint64_t s = 0; s < 64; ++s)
        EXPECT_FALSE(b.hasSection(s * kBlock));
    b.checkInvariants();
    b.addFreeRange(PageRange{5 * kBlock, kBlock});
    b.addFreeRange(PageRange{40 * kBlock + 100, 200}); // Part of one.
    for (std::uint64_t s = 0; s < 64; ++s)
        EXPECT_EQ(b.hasSection(s * kBlock), s == 5 || s == 40) << s;
    b.checkInvariants();

    // Allocations and a reclaim keep the sparse metadata consistent,
    // and a reclaimed range reads as unowned again: it can be donated
    // back.
    auto r = b.alloc(3, Migrate::Movable);
    ASSERT_TRUE(r.has_value());
    b.checkInvariants();
    ASSERT_TRUE(b.reclaimRange(PageRange{5 * kBlock, kBlock}).ok);
    EXPECT_EQ(b.freePages() + b.allocatedPages(), 200u);
    b.checkInvariants();
    b.addFreeRange(PageRange{5 * kBlock, kBlock});
    EXPECT_EQ(b.ownedPages(), kBlock + 200);
    b.checkInvariants();
}

TEST(BuddyConfig, UnalignedBaseIsFatal)
{
    EXPECT_THROW(BuddyAllocator("bad", 17, 4096), sim::FatalError);
}

/** Property test: randomized alloc/free sequences keep invariants. */
class BuddyPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(BuddyPropertyTest, RandomOpsPreserveInvariants)
{
    sim::Rng rng(GetParam());
    BuddyAllocator buddy("prop", 0, 8 * kBlock);
    buddy.addFreeRange(PageRange{0, 8 * kBlock});

    std::vector<Pfn> live;
    std::uint64_t expect_free = 8 * kBlock;
    std::uint64_t live_pages = 0;

    for (int step = 0; step < 2000; ++step) {
        const bool do_alloc = live.empty() || rng.chance(0.55);
        if (do_alloc) {
            const auto order = static_cast<unsigned>(rng.below(9));
            const auto mig = rng.chance(0.75) ? Migrate::Movable
                                              : Migrate::Unmovable;
            auto r = buddy.alloc(order, mig);
            if (r) {
                live.push_back(r->range.first);
                expect_free -= r->range.count;
                live_pages += r->range.count;
                // Block alignment invariant.
                EXPECT_EQ(r->range.first % r->range.count, 0u);
            }
        } else {
            const auto idx = rng.below(live.size());
            const Pfn p = live[idx];
            const std::uint64_t n =
                1ull << (buddy.isAllocated(p) ? 0 : 0); // placeholder
            (void)n;
            // Count pages via allocated delta.
            const auto before = buddy.allocatedPages();
            buddy.free(p);
            const auto freed = before - buddy.allocatedPages();
            expect_free += freed;
            live_pages -= freed;
            live[idx] = live.back();
            live.pop_back();
        }
        EXPECT_EQ(buddy.freePages(), expect_free);
        EXPECT_EQ(buddy.allocatedPages(), live_pages);
    }
    buddy.checkInvariants();

    // Free everything: memory fully coalesces.
    for (Pfn p : live)
        buddy.free(p);
    buddy.checkInvariants();
    EXPECT_EQ(buddy.freePages(), 8 * kBlock);
    EXPECT_EQ(buddy.largestFreeOrder(),
              std::optional<unsigned>(BuddyAllocator::kMaxOrder));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 1337, 99991));

/** Property test: repeated reclaim/donate cycles are lossless. */
TEST(BuddyBalloonProperty, ReclaimDonateCycles)
{
    sim::Rng rng(7);
    BuddyAllocator buddy("cycle", 0, 8 * kBlock);
    buddy.addFreeRange(PageRange{0, 8 * kBlock});

    std::vector<Pfn> live;
    for (int i = 0; i < 50; ++i) {
        auto r = buddy.alloc(static_cast<unsigned>(rng.below(6)),
                             Migrate::Movable);
        if (r)
            live.push_back(r->range.first);
    }

    std::vector<PageRange> out; // ranges currently reclaimed
    for (int cycle = 0; cycle < 30; ++cycle) {
        if (out.empty() || rng.chance(0.5)) {
            const std::uint64_t blk = rng.below(8);
            const PageRange range{blk * kBlock, kBlock};
            // Skip if already reclaimed.
            bool taken = false;
            for (const auto &o : out)
                taken |= (o.first == range.first);
            if (taken)
                continue;
            auto res = buddy.reclaimRange(range);
            if (res.ok)
                out.push_back(range);
        } else {
            buddy.addFreeRange(out.back());
            out.pop_back();
        }
        buddy.checkInvariants();
    }
}

} // namespace
} // namespace k2::kern
