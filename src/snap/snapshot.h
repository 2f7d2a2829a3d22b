/**
 * @file
 * Warm-state snapshot of a quiesced simulation.
 *
 * Snapshot::of() captures any object exposing snapState(snap::Io &)
 * -- in practice a wl::Testbed, an os::SystemImage, or a raw
 * sim::Engine -- into a compact in-memory byte image; restore() writes
 * that image back, returning the instance to the captured state.
 * Restoring is the "fork" operation of the boot-once sweep mode:
 * instead of duplicating host objects, the captured instance itself is
 * rewound, which is equivalent to handing out a fresh warm clone
 * because *all* semantic state (simulated clock, event-pool free-list
 * permutation, RNG streams, energy accumulators, tracer cursors,
 * service state, disk blocks) is rewritten exactly.
 *
 * Preconditions (asserted by the component snapState methods):
 *  - The engine is quiescent: Engine::run() returned, the event heap
 *    is empty and no live records remain. All scheduler core loops are
 *    parked, every live thread is Blocked (Done threads have been
 *    reaped and freed), no DSM fault, DMA transfer, or reliable-mail
 *    exchange is in flight.
 *  - Restore targets the instance the snapshot was captured from (or
 *    one whose structural history extends it): objects that only ever
 *    grow (processes, DSM page infos, tracer tracks) are pruned back
 *    to the captured prefix, and the live thread tables must match
 *    the captured ones by tid; none of them is recreated from bytes.
 *
 * See DESIGN.md §10 for the full model.
 */

#ifndef K2_SNAP_SNAPSHOT_H
#define K2_SNAP_SNAPSHOT_H

#include <cstdint>
#include <utility>
#include <vector>

#include "snap/io.h"

namespace k2 {
namespace snap {

class Snapshot
{
  public:
    Snapshot() = default;

    /** Capture @p target's state (it must be quiesced). */
    template <typename T>
    static Snapshot
    of(T &target)
    {
        Snapshot s;
        Io io(s.bytes_);
        target.snapState(io);
        return s;
    }

    /** Rewind @p target to the captured state. */
    template <typename T>
    void
    restore(T &target) const
    {
        K2_ASSERT(!bytes_.empty());
        Io io(bytes_);
        target.snapState(io);
        io.finish();
    }

    bool empty() const { return bytes_.empty(); }

    /** Image size in bytes (compactness metric). */
    std::size_t sizeBytes() const { return bytes_.size(); }

    /** Byte-level image comparison (round-trip tests). */
    bool operator==(const Snapshot &other) const = default;

  private:
    std::vector<std::uint8_t> bytes_;
};

} // namespace snap
} // namespace k2

#endif // K2_SNAP_SNAPSHOT_H
