#include "sim/engine.h"

#include <algorithm>

namespace k2 {
namespace sim {

Engine::~Engine()
{
    // Destroy payloads of events still pending at teardown (coroutine
    // frames are owned elsewhere; callables are destroyed in place).
    for (const HeapEntry &e : heap_)
        destroyPayload(rec(e.slot));
}

Engine::Slot
Engine::allocSlot(Time when)
{
    if (when < now_)
        K2_PANIC("event scheduled in the past (%llu < %llu)",
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(now_));
    std::uint32_t slot;
    if (freeHead_ != EventId::kInvalidSlot) {
        slot = freeHead_;
        freeHead_ = rec(slot).nextFree;
    } else {
        if (allocatedSlots_ == chunks_.size() * kChunkSize)
            chunks_.push_back(std::make_unique<Record[]>(kChunkSize));
        slot = allocatedSlots_++;
    }
    Record &r = rec(slot);
    heapPush(HeapEntry{when, seq_++, slot});
    return Slot{&r, slot};
}

void
Engine::freeSlot(std::uint32_t slot, Record &r)
{
    ++r.gen;
    r.kind = Record::Kind::Free;
    r.manager = nullptr;
    r.nextFree = freeHead_;
    freeHead_ = slot;
}

void
Engine::destroyPayload(Record &r)
{
    switch (r.kind) {
      case Record::Kind::Coro:
        // The engine does not own coroutine frames; dropping the
        // handle matches the previous std::function behaviour.
        break;
      case Record::Kind::Inline:
        r.manager(CbOp::Destroy, r.payload.buf, nullptr);
        break;
      case Record::Kind::Heap:
        r.manager(CbOp::Destroy, r.payload.heap, nullptr);
        break;
      case Record::Kind::Free:
        break;
    }
}

void
Engine::cancel(EventId &id)
{
    if (id.slot_ != EventId::kInvalidSlot && id.slot_ < allocatedSlots_) {
        Record &r = rec(id.slot_);
        if (r.gen == id.gen_ && r.kind != Record::Kind::Free) {
            heapRemove(r.heapPos);
            destroyPayload(r);
            freeSlot(id.slot_, r);
        }
    }
    id = EventId();
}

EventId
Engine::atResume(Time when, std::coroutine_handle<> h)
{
    Slot s = allocSlot(when);
    s.rec->payload.coro = h;
    s.rec->kind = Record::Kind::Coro;
    return EventId(s.slot, s.rec->gen);
}

void
Engine::spawn(Task<void> task)
{
    if (!task.valid())
        K2_PANIC("spawn of an empty task");
    auto handle = task.release();
    handle.promise().setDetached();
    atResume(now_, handle);
}

void
Engine::heapPush(const HeapEntry &e)
{
    heap_.push_back(e);
    siftUp(heap_.size() - 1, e);
}

void
Engine::heapRemove(std::size_t i)
{
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size())
        return;
    if (i > 0 && earlier(last, heap_[(i - 1) >> 2]))
        siftUp(i, last);
    else
        siftDown(i, last);
}

void
Engine::siftUp(std::size_t i, const HeapEntry &moved)
{
    while (i > 0) {
        const std::size_t parent = (i - 1) >> 2;
        if (!earlier(moved, heap_[parent]))
            break;
        place(i, heap_[parent]);
        i = parent;
    }
    place(i, moved);
}

void
Engine::siftDown(std::size_t i, const HeapEntry &moved)
{
    // Move `moved` down from hole i until all four children of its
    // final position are later (one write per level, no swaps).
    const std::size_t n = heap_.size();
    for (;;) {
        const std::size_t first = (i << 2) + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        const std::size_t last = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < last; ++c) {
            if (earlier(heap_[c], heap_[best]))
                best = c;
        }
        if (!earlier(heap_[best], moved))
            break;
        place(i, heap_[best]);
        i = best;
    }
    place(i, moved);
}

void
Engine::dispatch(std::uint32_t slot, Record &r)
{
    switch (r.kind) {
      case Record::Kind::Coro: {
        const std::coroutine_handle<> h = r.payload.coro;
        freeSlot(slot, r);
        h.resume();
        break;
      }
      case Record::Kind::Inline: {
        // Relocate the callable out of the pool before invoking so it
        // may reschedule (and even land in this very slot) safely.
        alignas(std::max_align_t) unsigned char tmp[kInlineCapture];
        const Manager mgr = r.manager;
        mgr(CbOp::Relocate, r.payload.buf, tmp);
        freeSlot(slot, r);
        PayloadGuard guard{mgr, tmp};
        mgr(CbOp::Invoke, tmp, nullptr);
        break;
      }
      case Record::Kind::Heap: {
        void *obj = r.payload.heap;
        const Manager mgr = r.manager;
        freeSlot(slot, r);
        PayloadGuard guard{mgr, obj};
        mgr(CbOp::Invoke, obj, nullptr);
        break;
      }
      case Record::Kind::Free:
        K2_PANIC("dispatch of a free event slot");
    }
}

bool
Engine::runOne()
{
    if (heap_.empty())
        return false;
    const HeapEntry e = heap_[0];
    heapRemove(0);
    now_ = e.when;
    ++dispatched_;
    dispatch(e.slot, rec(e.slot));
    return true;
}

std::uint64_t
Engine::run(Time until)
{
    std::uint64_t n = 0;
    while (!heap_.empty() && heap_[0].when <= until) {
        runOne();
        ++n;
    }
    if (until != kTimeNever && now_ < until)
        now_ = until;
    return n;
}

} // namespace sim
} // namespace k2
