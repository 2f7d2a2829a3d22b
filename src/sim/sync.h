/**
 * @file
 * Coroutine synchronisation primitives for simulated activities.
 *
 * All wakeups are routed through the Engine's event queue (at the
 * current simulated time) rather than resumed inline, so waker code
 * never runs re-entrantly inside the waiter and wake order is
 * deterministic FIFO.
 */

#ifndef K2_SIM_SYNC_H
#define K2_SIM_SYNC_H

#include <coroutine>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "sim/engine.h"
#include "sim/log.h"

namespace k2 {
namespace sim {

/**
 * A level-triggered event (a "latch").
 *
 * wait() suspends until the event is set; if it is already set, wait()
 * completes immediately. set() wakes all waiters. reset() re-arms it.
 */
class Event
{
  public:
    explicit Event(Engine &eng)
        : engine_(eng)
    {}

    bool isSet() const { return set_; }

    /** Set the event and wake all current waiters. */
    void
    set()
    {
        set_ = true;
        wakeAll();
    }

    /** Clear the event so future wait()s block again. */
    void reset() { set_ = false; }

    /** Wake all current waiters without latching (edge trigger). */
    void
    pulse()
    {
        wakeAll();
    }

    class Awaiter
    {
      public:
        explicit Awaiter(Event &ev)
            : event_(ev)
        {}

        bool await_ready() const { return event_.set_; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            event_.waiters_.push_back(h);
        }

        void await_resume() const {}

      private:
        Event &event_;
    };

    /** Suspend until the event is set (or was pulsed while waiting). */
    Awaiter wait() { return Awaiter(*this); }

    std::size_t waiterCount() const { return waiters_.size(); }

  private:
    void
    wakeAll()
    {
        std::deque<std::coroutine_handle<>> ws;
        ws.swap(waiters_);
        for (auto h : ws)
            engine_.resumeLater(h);
    }

    Engine &engine_;
    std::deque<std::coroutine_handle<>> waiters_;
    bool set_ = false;
};

/**
 * A counting semaphore with FIFO wakeups.
 */
class Semaphore
{
  public:
    Semaphore(Engine &eng, std::size_t initial)
        : engine_(eng), count_(initial)
    {}

    std::size_t count() const { return count_; }

    class Awaiter
    {
      public:
        explicit Awaiter(Semaphore &s)
            : sem_(s)
        {}

        bool
        await_ready()
        {
            if (sem_.count_ > 0) {
                --sem_.count_;
                return true;
            }
            return false;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            sem_.waiters_.push_back(h);
        }

        void await_resume() const {}

      private:
        Semaphore &sem_;
    };

    /** Acquire one unit, suspending if none are available. */
    Awaiter acquire() { return Awaiter(*this); }

    /** Try to acquire without suspending. */
    bool
    tryAcquire()
    {
        if (count_ == 0)
            return false;
        --count_;
        return true;
    }

    /** Release one unit, waking the oldest waiter if any. */
    void
    release()
    {
        if (!waiters_.empty()) {
            auto h = waiters_.front();
            waiters_.pop_front();
            engine_.resumeLater(h);
        } else {
            ++count_;
        }
    }

  private:
    Engine &engine_;
    std::size_t count_;
    std::deque<std::coroutine_handle<>> waiters_;
};

/**
 * A coroutine mutex (binary semaphore) with an RAII guard.
 */
class CoMutex
{
  public:
    explicit CoMutex(Engine &eng)
        : sem_(eng, 1)
    {}

    class Guard
    {
      public:
        explicit Guard(CoMutex *m)
            : mutex_(m)
        {}

        Guard(Guard &&other) noexcept
            : mutex_(std::exchange(other.mutex_, nullptr))
        {}

        Guard(const Guard &) = delete;
        Guard &operator=(const Guard &) = delete;
        Guard &operator=(Guard &&) = delete;

        ~Guard()
        {
            if (mutex_)
                mutex_->sem_.release();
        }

      private:
        CoMutex *mutex_;
    };

    /** Acquire the mutex; release by destroying the returned Guard. */
    Task<Guard>
    lock()
    {
        co_await sem_.acquire();
        co_return Guard(this);
    }

    bool locked() const { return sem_.count() == 0; }

  private:
    Semaphore sem_;
};

/**
 * An unbounded FIFO channel of T with awaitable receive.
 */
template <typename T>
class Channel
{
  public:
    explicit Channel(Engine &eng)
        : engine_(eng)
    {}

    /** Enqueue an item, waking the oldest receiver if any. */
    void
    send(T item)
    {
        items_.push_back(std::move(item));
        if (!waiters_.empty()) {
            auto h = waiters_.front();
            waiters_.pop_front();
            engine_.resumeLater(h);
        }
    }

    class Awaiter
    {
      public:
        explicit Awaiter(Channel &c)
            : chan_(c)
        {}

        bool await_ready() const { return !chan_.items_.empty(); }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            chan_.waiters_.push_back(h);
        }

        T
        await_resume()
        {
            // A competing receiver woken earlier in the same event
            // round may have drained the queue; that cannot happen
            // here because each send wakes at most one waiter, but be
            // defensive anyway.
            K2_ASSERT(!chan_.items_.empty());
            T item = std::move(chan_.items_.front());
            chan_.items_.pop_front();
            return item;
        }

      private:
        Channel &chan_;
    };

    /** Suspend until an item is available, then dequeue it. */
    Awaiter recv() { return Awaiter(*this); }

    /** Dequeue without suspending, if an item is available. */
    std::optional<T>
    tryRecv()
    {
        if (items_.empty())
            return std::nullopt;
        T item = std::move(items_.front());
        items_.pop_front();
        return item;
    }

    std::size_t size() const { return items_.size(); }
    bool empty() const { return items_.empty(); }

  private:
    Engine &engine_;
    std::deque<T> items_;
    std::deque<std::coroutine_handle<>> waiters_;
};

/**
 * Run a set of tasks to completion concurrently.
 *
 * Spawns each task detached and suspends the caller until all of them
 * have finished.
 */
Task<void> whenAll(Engine &eng, std::vector<Task<void>> tasks);

} // namespace sim
} // namespace k2

#endif // K2_SIM_SYNC_H
