/**
 * @file
 * Block-device interface and the RAM-backed disk used by the paper's
 * ext2 benchmark (§9.2: "we use ramdisk as the underlying block
 * device, as the SD card driver of K2 is not yet fully functional").
 */

#ifndef K2_SVC_BLOCK_H
#define K2_SVC_BLOCK_H

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "sim/stats.h"
#include "sim/task.h"
#include "kern/thread.h"

namespace k2 {
namespace svc {

/**
 * Sparse backing store for simulated disks.
 *
 * A block is allocated on its first write; a block never written
 * reads as zeroes. Booting a 64 MB disk therefore costs one null
 * pointer per block, and a disk's host memory follows its working
 * set, not its capacity.
 */
class BlockStore
{
  public:
    BlockStore(std::size_t block_bytes, std::uint64_t num_blocks)
        : blockBytes_(block_bytes), blocks_(num_blocks)
    {}

    std::size_t blockBytes() const { return blockBytes_; }
    std::uint64_t numBlocks() const { return blocks_.size(); }

    /** Blocks written at least once (the ones holding host memory). */
    std::uint64_t allocatedBlocks() const { return allocated_; }

    /** Copy block @p b into @p out (blockBytes() long). */
    void
    read(std::uint64_t b, std::span<std::uint8_t> out) const
    {
        if (const std::uint8_t *p = blocks_[b].get())
            std::memcpy(out.data(), p, blockBytes_);
        else
            std::memset(out.data(), 0, blockBytes_);
    }

    /** Copy @p in (blockBytes() long) into block @p b. */
    void
    write(std::uint64_t b, std::span<const std::uint8_t> in)
    {
        std::unique_ptr<std::uint8_t[]> &p = blocks_[b];
        if (!p) {
            p = std::make_unique_for_overwrite<std::uint8_t[]>(
                blockBytes_);
            ++allocated_;
        }
        std::memcpy(p.get(), in.data(), blockBytes_);
    }

  private:
    std::size_t blockBytes_;
    std::vector<std::unique_ptr<std::uint8_t[]>> blocks_;
    std::uint64_t allocated_ = 0;
};

/** A synchronous block device accessed from thread context. */
class BlockDevice
{
  public:
    virtual ~BlockDevice() = default;

    virtual std::size_t blockBytes() const = 0;
    virtual std::uint64_t numBlocks() const = 0;

    /** Read one block into @p out (must be blockBytes() long). */
    virtual sim::Task<void> read(kern::Thread &t, std::uint64_t block,
                                 std::span<std::uint8_t> out) = 0;

    /** Write one block from @p in (must be blockBytes() long). */
    virtual sim::Task<void> write(kern::Thread &t, std::uint64_t block,
                                  std::span<const std::uint8_t> in) = 0;
};

/**
 * A RAM-backed block device.
 *
 * Transfers cost CPU time at the accessing core's memory-copy
 * bandwidth plus a small fixed request overhead -- a ramdisk is "a
 * much faster block device than real flash storage", which (as the
 * paper notes) favours the baseline by shortening the idle periods
 * that are expensive for strong cores.
 */
class RamDisk : public BlockDevice
{
  public:
    RamDisk(std::size_t block_bytes, std::uint64_t num_blocks,
            std::uint64_t request_instr = 150);

    std::size_t blockBytes() const override
    {
        return store_.blockBytes();
    }

    std::uint64_t numBlocks() const override
    {
        return store_.numBlocks();
    }

    sim::Task<void> read(kern::Thread &t, std::uint64_t block,
                         std::span<std::uint8_t> out) override;
    sim::Task<void> write(kern::Thread &t, std::uint64_t block,
                          std::span<const std::uint8_t> in) override;

    /** @name Statistics. @{ */
    sim::Counter reads;
    sim::Counter writes;
    /** @} */

    /** Blocks written at least once. */
    std::uint64_t allocatedBlocks() const { return store_.allocatedBlocks(); }

  private:
    sim::Duration copyTime(const kern::Thread &t) const;

    std::uint64_t requestInstr_;
    BlockStore store_;
};

} // namespace svc
} // namespace k2

#endif // K2_SVC_BLOCK_H
