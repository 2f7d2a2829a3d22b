/**
 * @file
 * Tests for the SD-card device model and the write-back block cache,
 * including ext2 running on the cached SD stack.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "baseline/linux_system.h"
#include "svc/ext2.h"
#include "svc/sdcard.h"

namespace k2::svc {
namespace {

using kern::Thread;
using sim::Task;

class SdTest : public ::testing::Test
{
  protected:
    SdTest()
    {
        baseline::LinuxConfig cfg;
        cfg.soc.costs.inactiveTimeout = 0;
        sys = std::make_unique<baseline::LinuxSystem>(cfg);
        proc = &sys->createProcess("p");
    }

    void
    run(std::function<Task<void>(Thread &)> body)
    {
        sys->spawnNormal(*proc, "t", std::move(body));
        sys->ownedEngine().run();
    }

    std::unique_ptr<baseline::LinuxSystem> sys;
    kern::Process *proc = nullptr;
};

TEST_F(SdTest, SdCardIsMuchSlowerThanRamdisk)
{
    SdCard sd(4096, 256);
    RamDisk ram(4096, 256);
    sim::Duration sd_t = 0;
    sim::Duration ram_t = 0;
    run([&](Thread &t) -> Task<void> {
        std::vector<std::uint8_t> buf(4096, 7);
        auto t0 = sys->ownedEngine().now();
        co_await sd.write(t, 0, buf);
        sd_t = sys->ownedEngine().now() - t0;
        t0 = sys->ownedEngine().now();
        co_await ram.write(t, 0, buf);
        ram_t = sys->ownedEngine().now() - t0;
    });
    // SD write: 300 us command + 4K at 8 MB/s (~512 us) >> ramdisk.
    EXPECT_GT(sd_t, sim::usec(700));
    EXPECT_LT(ram_t, sim::usec(10));
}

TEST_F(SdTest, SdCardGcPausesHitPeriodically)
{
    SdCard::Timing timing;
    timing.gcEvery = 4;
    SdCard sd(4096, 64, timing);
    run([&](Thread &t) -> Task<void> {
        std::vector<std::uint8_t> buf(4096, 1);
        for (int i = 0; i < 12; ++i)
            co_await sd.write(t, static_cast<std::uint64_t>(i % 8),
                              buf);
    });
    EXPECT_EQ(sd.gcPauses.value(), 3u);
}

TEST_F(SdTest, SdIoBlocksInsteadOfBurningCpu)
{
    SdCard sd(4096, 64);
    run([&](Thread &t) -> Task<void> {
        std::vector<std::uint8_t> buf(4096, 1);
        const auto active0 = t.core().activeTime();
        co_await sd.read(t, 0, buf);
        // The ~500 us of card time was idle, not active.
        EXPECT_LT(t.core().activeTime() - active0, sim::usec(20));
    });
}

TEST_F(SdTest, RamDiskAllocatesOnlyWrittenBlocks)
{
    RamDisk ram(4096, 16384); // 64 MB, the testbed's disk
    EXPECT_EQ(ram.allocatedBlocks(), 0u);
    run([&](Thread &t) -> Task<void> {
        std::vector<std::uint8_t> a(4096, 0xA5);
        std::vector<std::uint8_t> b(4096, 0x3C);
        co_await ram.write(t, 7, a);
        co_await ram.write(t, 16383, b);
        co_await ram.write(t, 7, b); // Rewrite: no new block.
        std::vector<std::uint8_t> back(4096, 0xFF);
        co_await ram.read(t, 7, back);
        EXPECT_EQ(back, b);
        co_await ram.read(t, 16383, back);
        EXPECT_EQ(back, b);
        // Never-written blocks, including the neighbours of written
        // ones, read back as zeroes and allocate nothing.
        for (const std::uint64_t blk : {0ull, 6ull, 8ull, 16382ull}) {
            std::fill(back.begin(), back.end(), 0xFF);
            co_await ram.read(t, blk, back);
            EXPECT_EQ(back, std::vector<std::uint8_t>(4096, 0));
        }
    });
    EXPECT_EQ(ram.allocatedBlocks(), 2u);
    EXPECT_EQ(ram.writes.value(), 3u);
    EXPECT_EQ(ram.reads.value(), 6u);
}

TEST_F(SdTest, CacheHitAvoidsTheDevice)
{
    SdCard sd(4096, 64);
    CachedBlockDevice cache(sd, 8);
    run([&](Thread &t) -> Task<void> {
        std::vector<std::uint8_t> buf(4096, 3);
        co_await cache.write(t, 5, buf);
        std::vector<std::uint8_t> back(4096);
        const auto t0 = sys->ownedEngine().now();
        co_await cache.read(t, 5, back);
        // Served from cache: microseconds, not hundreds.
        EXPECT_LT(sys->ownedEngine().now() - t0, sim::usec(30));
        EXPECT_EQ(back, buf);
    });
    EXPECT_EQ(sd.reads.value(), 0u);
    EXPECT_EQ(cache.hits.value(), 1u);
    EXPECT_EQ(cache.misses.value(), 1u); // the write's residency miss
}

TEST_F(SdTest, EvictionWritesBackDirtyBlocks)
{
    SdCard sd(4096, 64);
    CachedBlockDevice cache(sd, 4);
    run([&](Thread &t) -> Task<void> {
        std::vector<std::uint8_t> buf(4096);
        for (std::uint64_t b = 0; b < 6; ++b) {
            std::fill(buf.begin(), buf.end(),
                      static_cast<std::uint8_t>(b));
            co_await cache.write(t, b, buf);
        }
        // Blocks 0 and 1 were evicted and written back.
        EXPECT_EQ(cache.cachedBlocks(), 4u);
        EXPECT_EQ(cache.writebacks.value(), 2u);
        EXPECT_EQ(sd.writes.value(), 2u);

        // Reading an evicted block refetches the written-back data.
        std::vector<std::uint8_t> back(4096);
        co_await cache.read(t, 0, back);
        EXPECT_EQ(back[100], 0u);
        co_await cache.read(t, 1, back);
        EXPECT_EQ(back[100], 1u);
    });
}

TEST_F(SdTest, FlushPersistsEverythingDirty)
{
    SdCard sd(4096, 64);
    CachedBlockDevice cache(sd, 8);
    run([&](Thread &t) -> Task<void> {
        std::vector<std::uint8_t> buf(4096, 0xEE);
        for (std::uint64_t b = 0; b < 5; ++b)
            co_await cache.write(t, b, buf);
        EXPECT_EQ(cache.dirtyBlocks(), 5u);
        co_await cache.flush(t);
        EXPECT_EQ(cache.dirtyBlocks(), 0u);
        EXPECT_EQ(sd.writes.value(), 5u);
        // Clean blocks are not rewritten on a second flush.
        co_await cache.flush(t);
        EXPECT_EQ(sd.writes.value(), 5u);
    });
}

TEST_F(SdTest, Ext2WorksOnCachedSdCard)
{
    SdCard sd(Ext2Fs::kBlockBytes, 4096);
    CachedBlockDevice cache(sd, 64);
    Ext2Fs fs(*sys, cache);
    run([&](Thread &t) -> Task<void> {
        EXPECT_EQ(co_await fs.mkfs(t), FsStatus::Ok);
        const std::int64_t fd = co_await fs.create(t, "/on-sd");
        EXPECT_GE(fd, 0);
        std::vector<std::uint8_t> data(20000);
        std::iota(data.begin(), data.end(), 0);
        EXPECT_EQ(co_await fs.write(t, static_cast<int>(fd), data),
                  20000);
        co_await fs.seek(t, static_cast<int>(fd), 0);
        std::vector<std::uint8_t> back(20000);
        EXPECT_EQ(co_await fs.read(t, static_cast<int>(fd), back),
                  20000);
        EXPECT_EQ(back, data);
        co_await fs.close(t, static_cast<int>(fd));
        co_await cache.flush(t);
    });
    EXPECT_GT(cache.hits.value(), 0u);
}

TEST_F(SdTest, CacheSpeedsUpMetadataHeavyWorkloads)
{
    // The same fs workload with and without the cache: the cached
    // stack must be much faster because the superblock and bitmaps
    // are re-read constantly.
    auto workload = [this](Ext2Fs &fs) -> sim::Duration {
        sim::Time t0 = 0, t1 = 0;
        run([&](Thread &t) -> Task<void> {
            co_await fs.mkfs(t);
            t0 = sys->ownedEngine().now();
            std::vector<std::uint8_t> buf(4096, 1);
            for (int i = 0; i < 8; ++i) {
                const std::int64_t fd = co_await fs.create(
                    t, "/f" + std::to_string(i));
                co_await fs.write(t, static_cast<int>(fd), buf);
                co_await fs.close(t, static_cast<int>(fd));
            }
            t1 = sys->ownedEngine().now();
        });
        return t1 - t0;
    };

    SdCard raw_sd(Ext2Fs::kBlockBytes, 4096);
    Ext2Fs raw_fs(*sys, raw_sd);
    const auto raw_time = workload(raw_fs);

    SdCard sd(Ext2Fs::kBlockBytes, 4096);
    CachedBlockDevice cache(sd, 128);
    Ext2Fs cached_fs(*sys, cache);
    const auto cached_time = workload(cached_fs);

    EXPECT_LT(cached_time, raw_time / 3);
}

} // namespace
} // namespace k2::svc
