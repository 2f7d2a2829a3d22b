#include "os/coherence/directory.h"

#include <algorithm>

#include "obs/metrics.h"
#include "sim/log.h"

namespace k2 {
namespace os {
namespace coherence {

Directory::Directory(ProtocolKind kind, std::size_t num_kernels,
                     std::uint64_t num_pages)
    : kind_(kind), n_(num_kernels), numPages_(num_pages)
{
    K2_ASSERT(kind == ProtocolKind::ThreeState ||
              kind == ProtocolKind::Mesi || kind == ProtocolKind::Moesi);
    K2_ASSERT(n_ >= 2 && n_ <= 32);
    K2_ASSERT(numPages_ <= kOpMaxPages);
}

Directory::Entry &
Directory::entry(std::uint64_t page)
{
    K2_ASSERT(page < numPages_);
    return entries_[page];
}

std::size_t
Directory::ownerOf(std::uint64_t page) const
{
    auto it = entries_.find(page);
    return it == entries_.end() ? 0 : it->second.owner;
}

bool
Directory::readValid(std::size_t k, std::uint64_t page) const
{
    auto it = entries_.find(page);
    const std::uint32_t sharers =
        it == entries_.end() ? 1u : it->second.sharers;
    return (sharers & bit(k)) != 0;
}

bool
Directory::writeValid(std::size_t k, std::uint64_t page)
{
    Entry &e = entry(page);
    if (!writable(k, page))
        return false;
    e.dirty = true; // Silent E->M upgrade (no-op when already M).
    return true;
}

bool
Directory::writable(std::size_t k, std::uint64_t page) const
{
    auto it = entries_.find(page);
    const Entry e = it == entries_.end() ? Entry{} : it->second;
    if (e.owner != k || e.sharers != bit(k))
        return false;
    // Sole clean owner: MESI/MOESI upgrade E->M silently; MSI has no
    // E state, so even the last holder standing pays a GetX.
    return e.dirty || kind_ != ProtocolKind::ThreeState;
}

void
Directory::finishWrite(Entry &e, std::size_t req)
{
    e.owner = static_cast<std::uint32_t>(req);
    e.sharers = bit(req);
    e.dirty = true;
    e.reqActive = false;
    e.ackWait = 0;
}

std::vector<std::uint64_t>
Directory::reclaim(std::size_t dead, std::size_t to,
                   std::vector<std::uint64_t> &completed)
{
    // Ascending page order for deterministic recovery.
    std::vector<std::uint64_t> keys;
    keys.reserve(entries_.size());
    for (const auto &kv : entries_)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());

    std::vector<std::uint64_t> moved;
    for (std::uint64_t page : keys) {
        Entry &e = entries_.at(page);
        e.sharers &= ~bit(dead);
        if (e.owner == dead) {
            // The dirty copy (if any) died with the domain; the
            // inheritor re-syncs data out of band and owns it clean.
            e.owner = static_cast<std::uint32_t>(to);
            e.sharers |= bit(to);
            e.dirty = false;
            moved.push_back(page);
        }
        if (e.reqActive && e.requester == dead) {
            // The faulter is gone; cancel its transaction.
            e.reqActive = false;
            e.ackWait = 0;
            continue;
        }
        if ((e.ackWait & bit(dead)) != 0) {
            e.ackWait &= ~bit(dead);
            if (e.reqActive && e.reqWrite && e.ackWait == 0) {
                finishWrite(e, e.requester);
                completed.push_back(page);
            }
        }
        if (e.reqActive && !e.reqWrite && e.owner == to &&
            !moved.empty() && moved.back() == page) {
            // A read stalled on the dead dirty owner: the inheritor's
            // clean copy satisfies it.
            e.sharers |= bit(e.requester);
            e.reqActive = false;
            completed.push_back(page);
        }
    }
    return moved;
}

void
Directory::registerMetrics(obs::MetricsRegistry &reg,
                           const std::string &prefix) const
{
    const std::string pp =
        prefix + "." + protocolName(kind_);
    reg.addCounter(pp + ".invalidations", invalidations_);
    reg.addCounter(pp + ".forwards", forwards_);
    reg.addCounter(pp + ".writebacks", writebacks_);
}

} // namespace coherence
} // namespace os
} // namespace k2
