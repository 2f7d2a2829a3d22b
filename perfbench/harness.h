/**
 * @file
 * Measurement harness of the K2 benchmark: op records, host-side
 * spans, registry tallies and the stall guard shared by the four
 * workloads (workloads.cpp) and the k2perf program (main.cpp).
 *
 * The benchmark reaches the simulator only through the entry points
 * the paper binaries use (wl::Testbed, wl::runEpisode, the episode
 * factories, SystemImage::createSharedRegion, wl::SweepRunner,
 * wl::warmK2/warmLinux, the fleet calibration and synthesis calls and
 * obs::MetricsRegistry), so it keeps compiling while internals move.
 */

#ifndef K2PERF_HARNESS_H
#define K2PERF_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/metrics.h"
#include "sim/engine.h"
#include "sim/time.h"
#include "workloads/episode.h"

namespace k2perf {

namespace sim = k2::sim;
namespace wl = k2::wl;
namespace obs = k2::obs;

inline std::int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** splitmix64: the benchmark's own input generator, so inputs do not
 *  depend on any RNG inside the simulator. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Deterministic draw in [0, n) for (seed, op, salt). */
inline std::uint64_t
draw(std::uint64_t seed, std::uint64_t op, std::uint64_t salt,
     std::uint64_t n)
{
    return mix64(mix64(seed ^ (salt * 0x632be59bd9b4e019ULL)) + op) % n;
}

/** What one op reports besides its host time. */
struct OpOut
{
    double simMs = 0;          //!< Simulated latency of the op.
    double energyUj = 0;       //!< Simulated energy of the op.
    std::uint64_t bytes = 0;   //!< Useful bytes the op moved.
    std::string failure;       //!< First failed check; empty when ok.
};

/** Thrown by the simulated-time cap of the stall guard. */
struct Stall : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Per-op simulated-time cap: an op whose workload has not finished
 *  after this much simulated time is a stalled (livelocked) op. */
constexpr sim::Duration kSimCap = sim::sec(30);

/**
 * Await @p task under the simulated-time cap: Stall is thrown out of
 * the engine if the task has not completed kSimCap of simulated time
 * after it started. The cap event is cancelled on completion, so a
 * healthy op simulates exactly as without the guard (a cancelled
 * event never advances time).
 */
template <typename T>
sim::Task<T>
capped(sim::Engine &eng, sim::Task<T> task)
{
    sim::EventId id = eng.after(kSimCap, [] {
        throw Stall("op exceeded the simulated-time cap");
    });
    if constexpr (std::is_void_v<T>) {
        co_await task;
        eng.cancel(id);
    } else {
        T v = co_await task;
        eng.cancel(id);
        co_return v;
    }
}

/** @p w with every run of it under capped(). */
wl::Workload guarded(sim::Engine &eng, wl::Workload w);

/**
 * Host-side spans of the traced run, kept in memory and written out
 * at the end. A span's layer is the first dotted component of its
 * name; a span's self time is its duration minus its children's.
 */
class Spans
{
  public:
    struct Span
    {
        const char *name; //!< A string literal: read after the run.
        std::uint32_t op;
        std::int32_t parent; //!< Index into spans(), -1 for the root.
        std::int64_t t0, t1;
    };

    explicit Spans(bool on) : on_(on) {}

    bool on() const { return on_; }
    const std::vector<Span> &spans() const { return spans_; }
    void reserve(std::size_t n) { spans_.reserve(n); }

    /** RAII span around one call; a no-op when tracing is off. */
    class Scope
    {
      public:
        Scope(Spans &s, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans *s_ = nullptr;
        std::size_t idx_ = 0;
    };

    /** Set the op id that following spans carry. */
    void setOp(std::uint32_t op) { op_ = op; }

  private:
    bool on_;
    std::uint32_t op_ = 0;
    std::int32_t open_ = -1;
    std::vector<Span> spans_;
};

/** Additive per-layer raw totals (counts, sums of host time). */
using Tally = std::map<std::string, double>;

/**
 * Sum of registry deltas across any number of systems or cells,
 * keyed by metric name: counters and accumulator sample counts in
 * `count`, gauges in `value`, accumulator sums in `sum`.
 */
struct RegTotals
{
    struct Entry
    {
        double count = 0, value = 0, sum = 0;
    };
    std::map<std::string, Entry> m;
    double poolCapacity = 0; //!< sim.pool_capacity: a level, not a delta.

    void add(const obs::MetricsSnapshot &delta);
    void notePool(const obs::MetricsSnapshot &snap);

    /** Scalar of one metric: counter/accumulator count or gauge. */
    double get(const std::string &name) const;
    /** Over names with @p prefix and @p suffix: the sum of get(), and
     *  the sum of accumulator sums. @{ */
    double sumWhere(const std::string &prefix,
                    const std::string &suffix) const;
    double sumOfSums(const std::string &prefix,
                     const std::string &suffix) const;
    /** @} */

    /** FNV-1a over the totals, for the determinism check. */
    std::uint64_t digest() const;

  private:
    double sumField(double Entry::*field, const std::string &prefix,
                    const std::string &suffix) const;
};

/** FNV-1a 64 over @p s, continuing from @p h. */
std::uint64_t fnv1a(const std::string &s,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/** Resident set (VmRSS) and its peak (VmHWM) of this process, kB. */
double rssKb();
double peakRssKb();

} // namespace k2perf

#endif // K2PERF_HARNESS_H
