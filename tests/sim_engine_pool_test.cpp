/**
 * @file
 * Stress tests for the pooled event core: handle/generation safety
 * (cancel-after-fire, cancel-twice, stale handles across slot reuse),
 * pool boundedness under churn, payload lifetime for all three payload
 * kinds, FIFO tie-break order identical to the seed engine, a throwing
 * capture copy in at(), and a reference-model fuzz of the indexed
 * heap's cancel-removes-entry path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/time.h"

namespace k2::sim {
namespace {

TEST(EventPool, CancelAfterFireIsNoop)
{
    Engine eng;
    int ran = 0;
    EventId id = eng.at(usec(1), [&]() { ++ran; });
    eng.run();
    EXPECT_EQ(ran, 1);
    eng.cancel(id); // must not disturb anything
    EXPECT_FALSE(id.valid());
    eng.run();
    EXPECT_EQ(ran, 1);
}

TEST(EventPool, CancelTwiceIsNoop)
{
    Engine eng;
    int ran = 0;
    EventId id = eng.at(usec(1), [&]() { ++ran; });
    EventId copy = id;
    eng.cancel(id);
    eng.cancel(id);   // already invalidated handle
    eng.cancel(copy); // aliasing handle, generation already bumped
    eng.run();
    EXPECT_EQ(ran, 0);
    EXPECT_EQ(eng.pendingEvents(), 0u);
}

TEST(EventPool, StaleHandleDoesNotCancelSlotReuse)
{
    Engine eng;
    int first = 0;
    int second = 0;
    EventId a = eng.at(usec(1), [&]() { ++first; });
    EventId stale = a;
    eng.cancel(a); // frees the slot
    // The very next schedule reuses the freed slot (LIFO free list).
    EventId b = eng.at(usec(1), [&]() { ++second; });
    eng.cancel(stale); // generation mismatch: must be a no-op
    eng.run();
    EXPECT_EQ(first, 0);
    EXPECT_EQ(second, 1) << "stale cancel must not kill the new event";
    (void)b;
}

TEST(EventPool, StaleHandleAfterFireDoesNotCancelReuse)
{
    Engine eng;
    int second = 0;
    EventId a = eng.at(usec(1), [&]() {});
    eng.run();
    // Slot of `a` was recycled when it fired; schedule into it.
    eng.at(usec(2), [&]() { ++second; });
    eng.cancel(a);
    eng.run();
    EXPECT_EQ(second, 1);
}

TEST(EventPool, ChurnKeepsPoolBounded)
{
    Engine eng;
    // 100k schedule/cancel pairs with at most 64 events in flight must
    // not grow the pool beyond one slab.
    std::vector<EventId> ids;
    int ran = 0;
    for (int round = 0; round < 100000 / 64; ++round) {
        for (int i = 0; i < 64; ++i)
            ids.push_back(eng.at(usec(1000), [&]() { ++ran; }));
        for (auto &id : ids)
            eng.cancel(id);
        ids.clear();
    }
    EXPECT_EQ(eng.pendingEvents(), 0u);
    EXPECT_LE(eng.poolCapacity(), 256u)
        << "pool must recycle slots, not grow per event";
    eng.run();
    EXPECT_EQ(ran, 0);
}

TEST(EventPool, ChurnWhileDispatchingKeepsPoolBounded)
{
    Engine eng;
    std::uint64_t ran = 0;
    // A self-rescheduling chain: each dispatch frees its slot before
    // running, so the whole 100k-event chain should reuse one slot row.
    std::uint64_t remaining = 100000;
    std::function<void()> step = [&]() {
        ++ran;
        if (--remaining > 0)
            eng.after(nsec(1), [&]() { step(); });
    };
    eng.after(nsec(1), [&]() { step(); });
    eng.run();
    EXPECT_EQ(ran, 100000u);
    EXPECT_LE(eng.poolCapacity(), 256u);
}

TEST(EventPool, FifoTieBreakMatchesSeedEngine)
{
    Engine eng;
    std::vector<int> order;
    // Interleave two times plus cancellations; dispatch order must be
    // (time, insertion sequence) with cancelled entries skipped --
    // exactly what the seed std::priority_queue engine produced.
    std::vector<EventId> cancelled;
    for (int i = 0; i < 100; ++i) {
        const Time t = (i % 2 == 0) ? usec(5) : usec(3);
        EventId id = eng.at(t, [&order, i]() { order.push_back(i); });
        if (i % 7 == 0)
            cancelled.push_back(id);
    }
    for (auto &id : cancelled)
        eng.cancel(id);
    eng.run();

    std::vector<int> expect;
    for (int i = 1; i < 100; i += 2) // usec(3) group, insertion order
        if (i % 7 != 0)
            expect.push_back(i);
    for (int i = 0; i < 100; i += 2) // usec(5) group, insertion order
        if (i % 7 != 0)
            expect.push_back(i);
    EXPECT_EQ(order, expect);
}

TEST(EventPool, LargeCaptureFallsBackToHeapAndStillRuns)
{
    Engine eng;
    std::array<std::uint64_t, 16> big{};
    big[0] = 7;
    big[15] = 9;
    std::uint64_t sum = 0;
    static_assert(sizeof(big) > Engine::kInlineCapture);
    eng.at(usec(1), [big, &sum]() { sum = big[0] + big[15]; });
    eng.run();
    EXPECT_EQ(sum, 16u);
}

TEST(EventPool, CancelDestroysInlineCapture)
{
    Engine eng;
    auto token = std::make_shared<int>(42);
    std::weak_ptr<int> watch = token;
    EventId id = eng.at(usec(1), [t = std::move(token)]() { (void)t; });
    EXPECT_FALSE(watch.expired());
    eng.cancel(id);
    EXPECT_TRUE(watch.expired())
        << "cancel must destroy the captured state immediately";
}

TEST(EventPool, CancelDestroysHeapCapture)
{
    Engine eng;
    auto token = std::make_shared<int>(42);
    std::weak_ptr<int> watch = token;
    std::array<char, 64> pad{};
    EventId id = eng.at(
        usec(1), [t = std::move(token), pad]() { (void)t; (void)pad; });
    EXPECT_FALSE(watch.expired());
    eng.cancel(id);
    EXPECT_TRUE(watch.expired());
}

TEST(EventPool, DestructorReleasesPendingPayloads)
{
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    {
        Engine eng;
        eng.at(usec(1), [t = std::move(token)]() { (void)t; });
        // Engine destroyed with the event still pending.
    }
    EXPECT_TRUE(watch.expired());
}

TEST(EventPool, RescheduleFromCallbackIntoOwnSlot)
{
    Engine eng;
    int phase = 0;
    eng.at(usec(1), [&]() {
        ++phase;
        // Dispatch freed our slot before invoking; this reuses it.
        eng.after(usec(1), [&]() { ++phase; });
    });
    eng.run();
    EXPECT_EQ(phase, 2);
    EXPECT_LE(eng.poolCapacity(), 256u);
}

TEST(EventPool, ManyPendingEventsAcrossSlabsFireInOrder)
{
    Engine eng;
    // Force multiple slabs (256 slots each) to be live at once.
    constexpr int kEvents = 3000;
    std::vector<int> order;
    order.reserve(kEvents);
    for (int i = 0; i < kEvents; ++i)
        eng.at(usec(1) + static_cast<Time>(i % 17),
               [&order, i]() { order.push_back(i); });
    EXPECT_EQ(eng.pendingEvents(), static_cast<std::size_t>(kEvents));
    EXPECT_GE(eng.poolCapacity(), static_cast<std::size_t>(kEvents));
    eng.run();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(kEvents));
    // Within each time bucket, FIFO by insertion.
    for (int t = 0; t < 17; ++t) {
        int prev = -1;
        for (int v : order) {
            if (v % 17 != t)
                continue;
            EXPECT_LT(prev, v);
            prev = v;
        }
    }
}

TEST(EventPool, SleepResumeReusesSlots)
{
    Engine eng;
    std::uint64_t laps = 0;
    eng.spawn([](Engine &e, std::uint64_t *laps) -> Task<void> {
        for (int i = 0; i < 10000; ++i) {
            co_await e.sleep(nsec(1));
            ++*laps;
        }
    }(eng, &laps));
    eng.run();
    EXPECT_EQ(laps, 10000u);
    EXPECT_LE(eng.poolCapacity(), 256u)
        << "the coroutine fast path must recycle its slot";
}

/** A callable too large for the inline buffer whose copy throws. */
struct ThrowingCopy
{
    explicit ThrowingCopy(int *ran)
        : ran(ran)
    {}

    ThrowingCopy(const ThrowingCopy &other)
        : pad(other.pad), ran(other.ran)
    {
        throw std::runtime_error("capture copy failed");
    }

    void operator()() const { ++*ran; }

    std::array<std::uint64_t, 8> pad{};
    int *ran;
};

TEST(EventPool, ThrowingCaptureCopyLeavesNoHeapEntry)
{
    static_assert(sizeof(ThrowingCopy) > Engine::kInlineCapture);
    Engine eng;
    std::vector<int> order;
    for (int i = 0; i < 9; ++i)
        eng.at(usec(1 + i % 3), [&order, i]() { order.push_back(i); });
    const std::size_t pending = eng.pendingEvents();

    int ran = 0;
    ThrowingCopy bad(&ran);
    // The entry is pushed before the copy runs: the earliest time sifts
    // it to the top, the latest leaves it last in the heap array.
    EXPECT_THROW(eng.at(0, bad), std::runtime_error);
    EXPECT_EQ(eng.pendingEvents(), pending);
    EXPECT_THROW(eng.at(usec(9), bad), std::runtime_error);
    EXPECT_EQ(eng.pendingEvents(), pending);

    EXPECT_EQ(eng.run(), pending);
    EXPECT_EQ(ran, 0);
    EXPECT_EQ(order, (std::vector<int>{0, 3, 6, 1, 4, 7, 2, 5, 8}));
    EXPECT_EQ(eng.pendingEvents(), 0u);
}

/**
 * Random at/after/cancel/runOne interleavings checked against a
 * std::set of (when, seq) keys. Every at() takes one sequence number,
 * so an event's tag (its index in handles_) is its seq. Callbacks also
 * cancel other events and schedule new ones, which reuse the slot the
 * dispatch just freed.
 */
class HeapFuzz
{
  public:
    explicit HeapFuzz(std::uint64_t seed)
        : rng_(seed)
    {}

    void
    step()
    {
        const std::uint64_t r = rng_() % 16;
        if (r < 6) {
            for (std::uint64_t n = 1 + rng_() % 4; n > 0; --n)
                schedule();
        } else if (r == 6 && !model_.empty()) {
            cancelTag(model_.begin()->second); // the top
        } else if (r == 7 && !model_.empty()) {
            cancelTag(model_.rbegin()->second); // the latest deadline
        } else if (r == 8 && !handles_.empty()) {
            cancelTag(handles_.size() - 1); // the newest, often last
        } else if (r == 9 && !model_.empty()) {
            cancelTag(std::next(model_.begin(),
                                rng_() % model_.size())->second);
        } else if (r == 10 && !handles_.empty()) {
            // Any tag, usually dead by now: a stale handle whose slot
            // has been reused must not disturb the new occupant.
            const std::uint64_t tag = rng_() % handles_.size();
            cancelTag(tag);
            cancelTag(tag);
        } else {
            const bool expect = !model_.empty();
            const std::uint64_t fired = fired_;
            EXPECT_EQ(eng_.runOne(), expect);
            EXPECT_EQ(fired_, fired + (expect ? 1 : 0));
        }
        EXPECT_EQ(eng_.pendingEvents(), model_.size());
    }

    void
    drain()
    {
        draining_ = true;
        const std::size_t pending = model_.size();
        EXPECT_EQ(eng_.run(), pending);
        EXPECT_TRUE(model_.empty());
        EXPECT_EQ(eng_.pendingEvents(), 0u);
    }

    std::uint64_t fired() const { return fired_; }

  private:
    using Key = std::pair<Time, std::uint64_t>; // (when, seq)

    Duration
    delay()
    {
        // Ties at every scale, plus the long timers of the Core model.
        static constexpr std::array<Duration, 6> kDelays = {
            0, nsec(1), nsec(2), nsec(5), usec(1), sec(5)};
        return kDelays[rng_() % kDelays.size()];
    }

    void
    schedule()
    {
        const std::uint64_t tag = handles_.size();
        const Duration d = delay();
        const Time when = eng_.now() + d;
        handles_.emplace_back();
        whens_.push_back(when);
        model_.insert(Key(when, tag));
        switch (rng_() % 3) {
          case 0:
            handles_[tag] = eng_.at(when, [this, tag]() { fire(tag); });
            break;
          case 1:
            handles_[tag] = eng_.after(d, [this, tag]() { fire(tag); });
            break;
          default: {
            // Out-of-line payload.
            std::array<std::uint64_t, 6> pad{};
            pad[0] = tag;
            handles_[tag] =
                eng_.at(when, [this, pad]() { fire(pad[0]); });
            break;
          }
        }
    }

    /** Cancel through a copy, so handles_[tag] stays behind stale. */
    void
    cancelTag(std::uint64_t tag)
    {
        EventId id = handles_[tag];
        eng_.cancel(id);
        EXPECT_FALSE(id.valid());
        model_.erase(Key(whens_[tag], tag));
    }

    void
    fire(std::uint64_t tag)
    {
        ASSERT_FALSE(model_.empty());
        EXPECT_EQ(*model_.begin(), Key(eng_.now(), tag))
            << "dispatch left (when, seq) order";
        model_.erase(Key(whens_[tag], tag));
        ++fired_;
        if (draining_)
            return;
        const std::uint64_t r = rng_() % 4;
        if (r == 0 && !model_.empty())
            cancelTag(std::next(model_.begin(),
                                rng_() % model_.size())->second);
        else if (r == 1)
            schedule(); // lands in the slot this dispatch freed
    }

    Engine eng_;
    std::mt19937_64 rng_;
    std::set<Key> model_;
    std::vector<EventId> handles_;
    std::vector<Time> whens_;
    std::uint64_t fired_ = 0;
    bool draining_ = false;
};

TEST(EventPool, IndexedHeapMatchesReferenceModel)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(seed);
        HeapFuzz fuzz(seed);
        for (int i = 0; i < 3000; ++i)
            fuzz.step();
        fuzz.drain();
        EXPECT_GT(fuzz.fired(), 0u);
    }
}

TEST(EventPool, TimerRearmAroundSleepsDispatchesOnlyLiveEvents)
{
    // The soc::Core::exec pattern: a 5 s inactive timer cancelled and
    // re-armed around every 1 ns sleep. Only the sleeps and the last
    // timer ever dispatch, and the heap never holds a cancelled timer.
    constexpr int kSleeps = 10000;
    Engine eng;
    int timerFired = 0;
    std::size_t maxPending = 0;
    eng.spawn([](Engine &e, int *fired, std::size_t *maxPending)
                  -> Task<void> {
        EventId timer;
        for (int i = 0; i < kSleeps; ++i) {
            e.cancel(timer);
            co_await e.sleep(nsec(1));
            timer = e.at(e.now() + sec(5), [fired]() { ++*fired; });
            *maxPending = std::max(*maxPending, e.pendingEvents());
        }
    }(eng, &timerFired, &maxPending));
    // The spawn's start event, the sleeps, the final timer.
    EXPECT_EQ(eng.run(), 1u + kSleeps + 1u);
    EXPECT_EQ(timerFired, 1);
    EXPECT_EQ(maxPending, 1u);
    EXPECT_EQ(eng.now(), nsec(kSleeps) + sec(5));
    EXPECT_EQ(eng.pendingEvents(), 0u);
    EXPECT_LE(eng.poolCapacity(), 256u);
}

} // namespace
} // namespace k2::sim
