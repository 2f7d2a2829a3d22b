/**
 * @file
 * The N-domain page directory (home-based MSI / MESI / MOESI).
 *
 * One kernel -- the *home*, index 0 on the strong domain, where the
 * directory memory lives -- tracks, per page, the owner, a sharer
 * bitmap and a dirty bit, and serialises transactions: a requester
 * sends GetS/GetX to the home; the home grants directly, forwards a
 * read to the dirty owner (3-hop: the owner grants straight to the
 * requester), or fans out invalidations to every sharer and collects
 * InvAcks before granting exclusivity.
 *
 * Directory is the pure state table plus the transition rules; timing,
 * mail and task structure stay with os::Dsm. The E and O refinements
 * are encoded rather than stored: E (clean exclusive, MESI/MOESI) is
 * `owner == k, sharers == {k}, !dirty` and upgrades silently; O
 * (owned-dirty, MOESI) is `dirty` with `sharers` larger than {owner} --
 * reached because MOESI read-forwards keep the dirty bit where MSI and
 * MESI write back and clear it.
 */

#ifndef K2_OS_COHERENCE_DIRECTORY_H
#define K2_OS_COHERENCE_DIRECTORY_H

#include <unordered_map>
#include <vector>

#include "os/coherence/protocol.h"

namespace k2 {
namespace os {
namespace coherence {

class Directory
{
  public:
    /** Per-page directory entry. Pages are born at the home. */
    struct Entry
    {
        std::uint32_t owner = 0;
        std::uint32_t sharers = 1; //!< Bitmap; bit 0 is the home.
        bool dirty = false;
        /** @name In-flight transaction (at most one per page). @{ */
        bool reqActive = false;
        bool reqWrite = false;
        std::uint32_t requester = 0;
        std::uint32_t ackWait = 0; //!< Sharers still owing an InvAck.
        sim::Time serviceStart = 0;
        /** @} */
    };

    /**
     * @param kind ThreeState (MSI), Mesi or Moesi.
     * @param num_kernels Domain count (home is kernel 0).
     * @param num_pages DSM page keys available.
     */
    Directory(ProtocolKind kind, std::size_t num_kernels,
              std::uint64_t num_pages);

    ProtocolKind kind() const { return kind_; }

    static std::uint32_t bit(std::size_t k)
    {
        return 1u << static_cast<std::uint32_t>(k);
    }

    Entry &entry(std::uint64_t page);

    /** Owner without instantiating the entry. */
    std::size_t ownerOf(std::uint64_t page) const;

    /** True if @p k holds a readable copy. */
    bool readValid(std::size_t k, std::uint64_t page) const;

    /**
     * True if @p k may write without a transaction: it is the sole
     * dirty owner, or (MESI/MOESI) the sole clean owner -- in which
     * case the E->M upgrade happens silently here.
     */
    bool writeValid(std::size_t k, std::uint64_t page);

    /** writeValid() without the silent upgrade (introspection). */
    bool writable(std::size_t k, std::uint64_t page) const;

    /** Close a write transaction: @p req becomes sole dirty owner. */
    void finishWrite(Entry &e, std::size_t req);

    /**
     * Crash recovery at the directory: scrub @p dead from every
     * entry's sharers/ackWait, move its ownership to @p to (clean:
     * the dirty copy died with the domain), and finalise transactions
     * @p dead participated in. Returns pages whose owner moved, in
     * ascending order, plus (via @p completed) pages whose stalled
     * transaction can now be granted -- the caller wakes those
     * requesters.
     */
    std::vector<std::uint64_t> reclaim(std::size_t dead, std::size_t to,
                                       std::vector<std::uint64_t>
                                           &completed);

    std::uint64_t invalidations() const
    {
        return invalidations_.value();
    }
    std::uint64_t forwards() const { return forwards_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }

    sim::Counter &invalidationsCounter() { return invalidations_; }
    sim::Counter &forwardsCounter() { return forwards_; }
    sim::Counter &writebacksCounter() { return writebacks_; }

    /** Register directory counters under "<prefix>.<proto>.*". */
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const;

  private:
    ProtocolKind kind_;
    std::size_t n_;
    std::uint64_t numPages_;
    std::unordered_map<std::uint64_t, Entry> entries_;
    sim::Counter invalidations_; //!< Inv messages fanned out.
    sim::Counter forwards_;      //!< MOESI dirty cache-to-cache grants.
    sim::Counter writebacks_;    //!< Dirty writebacks (MSI/MESI).
};

} // namespace coherence
} // namespace os
} // namespace k2

#endif // K2_OS_COHERENCE_DIRECTORY_H
