#include "svc/block.h"

#include "sim/log.h"
#include "soc/core.h"

namespace k2 {
namespace svc {

RamDisk::RamDisk(std::size_t block_bytes, std::uint64_t num_blocks,
                 std::uint64_t request_instr)
    : requestInstr_(request_instr), store_(block_bytes, num_blocks)
{}

sim::Duration
RamDisk::copyTime(const kern::Thread &t) const
{
    const double bw =
        const_cast<kern::Thread &>(t).core().spec().memBytesPerSec;
    return static_cast<sim::Duration>(
        static_cast<double>(blockBytes()) / bw * 1e12);
}

sim::Task<void>
RamDisk::read(kern::Thread &t, std::uint64_t block,
              std::span<std::uint8_t> out)
{
    K2_ASSERT(block < numBlocks());
    K2_ASSERT(out.size() == blockBytes());
    co_await t.exec(requestInstr_);
    co_await t.execTime(copyTime(t));
    store_.read(block, out);
    reads.inc();
}

sim::Task<void>
RamDisk::write(kern::Thread &t, std::uint64_t block,
               std::span<const std::uint8_t> in)
{
    K2_ASSERT(block < numBlocks());
    K2_ASSERT(in.size() == blockBytes());
    co_await t.exec(requestInstr_);
    co_await t.execTime(copyTime(t));
    store_.write(block, in);
    writes.inc();
}

} // namespace svc
} // namespace k2
