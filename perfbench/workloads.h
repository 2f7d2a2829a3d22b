/**
 * @file
 * The four benchmark workloads. Each is a closed loop of ops run by
 * one lane (host thread); every lane of a run executes the same op
 * sequence, so their registry digests must agree.
 */

#ifndef K2PERF_WORKLOADS_H
#define K2PERF_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace k2perf {

/** Test-only fault planted into testbed_mix op plantOp of every lane:
 *  a short op (moves one byte less than requested), a simulated-time
 *  livelock, or a zero-time livelock. */
enum class Plant { None, Short, Hang, Spin };

struct Params
{
    std::uint64_t seed = 1;
    std::uint64_t ops = 0; //!< Chain length: ops per lane per pass.
    Plant plant = Plant::None;
    std::uint64_t plantOp = 0;
};

class Work
{
  public:
    virtual ~Work() = default;

    /** Provision and warm up: everything before the first timed op.
     *  Adds set-up host times (boot_ms, calibrate_ms) to @p tally. */
    virtual void setup(Tally &tally) = 0;

    /** Start of the timed ops: take the "before" registry snapshots. */
    virtual void begin() = 0;

    /** Run op @p i (timed by the caller). */
    virtual OpOut op(std::uint64_t i, Spans &spans) = 0;

    /** Checks too costly to time with the op; may fail @p out. */
    virtual void verify(std::uint64_t, OpOut &) {}

    /** After the last op: registry deltas and per-layer totals.
     *  @return A failed whole-run check, or empty. */
    virtual std::string end(RegTotals &reg, Tally &tally) = 0;
};

const std::vector<std::string> &workloadNames();

/** Null for an unknown workload name. */
std::unique_ptr<Work> makeWork(const std::string &name, const Params &p);

/**
 * Ops per round of workload @p name: every round runs the same mix of
 * op kinds (in a seeded order), so equal numbers of whole rounds do
 * equal work.
 */
std::uint64_t opRound(const std::string &name);

/** One-line configuration of op @p i: a pure function of the inputs,
 *  safe to call from the watchdog thread. */
std::string describeOp(const std::string &name, const Params &p,
                       std::uint64_t i);

} // namespace k2perf

#endif // K2PERF_WORKLOADS_H
