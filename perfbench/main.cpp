/**
 * @file
 * k2perf: the K2 simulator benchmark binary. A pass sets up one
 * workload on every lane (host thread) and runs a fixed number of ops
 * on each as a closed loop, checking every op's outputs; a run makes
 * --passes passes and writes the end-to-end metrics as one JSON
 * object. With --trace 1 it alternates plain and traced passes instead
 * and writes the per-layer metrics. perfbench/run.py builds and drives
 * it.
 *
 *   k2perf --workload NAME --seed N --ops N [--lanes N] [--passes N]
 *          [--trace 0|1] [--out FILE] [--spans FILE]
 *          [--plant short|hang|spin --plant-op N] [--op-timeout-s S]
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <exception>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "workloads.h"
#include "workloads/fleet.h"

#if !defined(NDEBUG)
#error "k2perf measures an optimized build: configure with -DCMAKE_BUILD_TYPE=Release"
#endif

namespace {

using namespace k2perf;

constexpr std::size_t kMaxLanes = 64;
constexpr std::size_t kMaxFailureLines = 10;
constexpr unsigned kTracedPairs = 3; //!< Plain/traced pass pairs of --trace 1.

/**
 * Reference work (see referenceSeconds) and its host time on the
 * reference host, each of four lanes running it. Every lane runs the
 * reference right before and right after its timed ops, and its host
 * times are scaled by the ratio to this nominal time: the host's speed
 * drifts by a third over minutes, and the reference tracks that drift
 * where no in-run statistic can.
 */
constexpr std::uint64_t kRefIterations = 100000;
constexpr double kRefNominalS = 0.0085;

struct Options
{
    std::string workload;
    Params params;
    std::uint64_t ops = 0;
    unsigned lanes = 0;
    unsigned passes = 3;
    bool trace = false;
    std::string out;
    std::string spansOut;
    double opTimeoutS = 30;
    std::string argvLine;
};

/** One lane's measured pass. */
struct LaneRun
{
    std::vector<double> hostUs;
    std::vector<double> simMs, energyUj;
    std::vector<std::uint64_t> bytes;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    double setupS = 0;
    std::int64_t t0 = 0, t1 = 0; //!< Timed phase, host ns.
    double speed = 1; //!< Host speed vs the reference host, this pass.
    RegTotals reg;
    Tally tally, setupTally;
    Spans spans{false};
    std::uint64_t digest = 0;
};

/** What the host watchdog sees of each lane. */
struct Watch
{
    std::atomic<std::int64_t> since{0}; //!< Busy since (ns), 0 = idle.
    std::atomic<std::int64_t> op{-1};   //!< Current op, -1 = set-up.
};
std::array<Watch, kMaxLanes> gWatch;

constexpr const char *kBuildType = K2PERF_BUILD_TYPE;

/** Each lane runs its own op sequence, seeded from the run's seed and
 *  the lane index, so a run covers lanes x ops distinct ops. */
Params
laneParams(const Options &o, unsigned lane)
{
    Params p = o.params;
    p.seed = mix64(o.params.seed * kMaxLanes + lane);
    p.ops = o.ops;
    return p;
}

std::string
failureLine(const Options &o, unsigned lane, std::int64_t op,
            const std::string &why)
{
    std::string cfg = op >= 0 ? describeOp(o.workload, laneParams(o, lane),
                                            static_cast<std::uint64_t>(op))
                              : "set-up";
    return "workload=" + o.workload +
           " seed=" + std::to_string(o.params.seed) +
           " lane=" + std::to_string(lane) + " op=" + std::to_string(op) +
           " config=[" + cfg + "]: " + why + " (repro: " + o.argvLine + ")";
}

std::atomic<std::uint64_t> gSink{0};

/**
 * The host-speed reference: a fixed amount of allocation-heavy, branchy
 * tree work, the kind of work the simulator's host time goes to, and
 * independent of src/. Returns its host time in seconds.
 */
double
referenceSeconds()
{
    const std::int64_t t0 = hostNs();
    std::map<std::uint64_t, std::uint64_t> m;
    std::uint64_t h = 0;
    for (std::uint64_t i = 0; i < kRefIterations; ++i) {
        h = mix64(h + i);
        m[h & 0xffff] = i;
        if (m.size() > 4096)
            m.erase(m.begin());
    }
    gSink += h + m.size();
    return (hostNs() - t0) / 1e9;
}

std::uint64_t
mixDouble(std::uint64_t h, double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g,", v);
    return fnv1a(buf, h);
}

struct Pass
{
    std::vector<LaneRun> lanes;
    double rssBeforeKb = 0, rssAfterKb = 0; //!< Around the timed ops.
};

/** Barrier completion: records the RSS when every lane has set up and
 *  when every lane has run its ops. */
struct PhaseRss
{
    Pass *p;
    int phase = 0;
    void
    operator()() noexcept
    {
        (phase++ == 0 ? p->rssBeforeKb : p->rssAfterKb) = rssKb();
    }
};
using Barrier = std::barrier<PhaseRss>;

/** One lane of a pass: set-up, barrier, timed ops, barrier. */
void
runLaneBody(const Options &o, unsigned lane, bool traced, Barrier *sync,
            int &arrived, LaneRun &r)
{
    Watch &w = gWatch[lane];
    std::unique_ptr<Work> work = makeWork(o.workload, laneParams(o, lane));
    w.op = -1;
    w.since = hostNs();
    const std::int64_t s0 = hostNs();
    work->setup(r.setupTally);
    r.setupS = (hostNs() - s0) / 1e9;
    w.since = 0;

    r.spans = Spans(traced);
    if (traced)
        r.spans.reserve(o.ops * 8);
    r.hostUs.resize(o.ops);
    r.simMs.resize(o.ops);
    r.energyUj.resize(o.ops);
    r.bytes.resize(o.ops);
    sync->arrive_and_wait();
    ++arrived;
    const double refBefore = referenceSeconds();
    work->begin();
    r.t0 = hostNs();
    for (std::uint64_t i = 0; i < o.ops; ++i) {
        w.op = static_cast<std::int64_t>(i);
        const std::int64_t t0 = hostNs();
        w.since = t0;
        OpOut out;
        {
            r.spans.setOp(static_cast<std::uint32_t>(i));
            Spans::Scope root(r.spans, "bench.op");
            out = work->op(i, r.spans);
        }
        const std::int64_t t1 = hostNs();
        work->verify(i, out);
        w.since = 0;
        r.hostUs[i] = (t1 - t0) / 1e3;
        r.simMs[i] = out.simMs;
        r.energyUj[i] = out.energyUj;
        r.bytes[i] = out.bytes;
        if (!out.failure.empty()) {
            ++r.failed;
            if (r.failures.size() < kMaxFailureLines)
                r.failures.push_back(failureLine(
                    o, lane, static_cast<std::int64_t>(i), out.failure));
        }
    }
    r.t1 = hostNs();
    r.speed = 2 * kRefNominalS / (refBefore + referenceSeconds());
    const std::string endFailure = work->end(r.reg, r.tally);
    if (!endFailure.empty()) {
        ++r.failed;
        r.failures.push_back(failureLine(
            o, lane, static_cast<std::int64_t>(o.ops) - 1, endFailure));
    }
    sync->arrive_and_wait();
    ++arrived;

    std::uint64_t h = r.reg.digest();
    for (std::uint64_t i = 0; i < o.ops; ++i) {
        h = mixDouble(h, r.simMs[i]);
        h = mixDouble(h, r.energyUj[i]);
        h = mixDouble(h, static_cast<double>(r.bytes[i]));
    }
    r.digest = h;
}

void
runLane(const Options &o, unsigned lane, bool traced, Barrier *sync,
        LaneRun &r)
{
    int arrived = 0;
    try {
        runLaneBody(o, lane, traced, sync, arrived, r);
    } catch (...) {
        // Leave the barrier so the other lanes are not left waiting;
        // runPass rethrows the error after they finish.
        if (arrived < 2)
            sync->arrive_and_drop();
        throw;
    }
}

/** Run every lane concurrently, each on a fresh host thread (so the
 *  thread-local fixture pools and calibrations start empty). */
Pass
runPass(const Options &o, bool traced)
{
    Pass p;
    p.lanes.resize(o.lanes);
    Barrier sync(static_cast<std::ptrdiff_t>(o.lanes), PhaseRss{&p});
    std::vector<std::exception_ptr> errors(o.lanes);
    {
        std::vector<std::jthread> threads;
        for (unsigned l = 0; l < o.lanes; ++l) {
            threads.emplace_back([&o, &p, &sync, &errors, l, traced] {
                try {
                    runLane(o, l, traced, &sync, p.lanes[l]);
                } catch (...) {
                    errors[l] = std::current_exception();
                }
            });
        }
    }
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    return p;
}

/**
 * Quantile @p u of @p v by the mid-distribution (Parzen) definition:
 * linear interpolation of F(x) - P(X = x) / 2 over the distinct
 * values. For distinct samples this is the usual interpolated
 * quantile; for the many equal simulated latencies a discrete model
 * produces, it still moves when the share of ops at each value does,
 * where an order statistic would sit on one value.
 */
double
quantile(std::vector<double> v, double u)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    double prevX = v.front(), prevF = -1, below = 0;
    for (std::size_t i = 0; i < v.size();) {
        std::size_t j = i;
        while (j < v.size() && v[j] == v[i])
            ++j;
        const double f = (below + (j - i) / 2.0) / n;
        if (f >= u)
            return prevF < 0 ? v[i]
                             : prevX + (v[i] - prevX) * (u - prevF) / (f - prevF);
        prevX = v[i];
        prevF = f;
        below = static_cast<double>(j);
        i = j;
    }
    return v.back();
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
ratio(double a, double b)
{
    return b != 0 ? a / b : 0;
}

/** Host throughput of a pass: the sum over lanes of ops / busy time;
 *  with @p norm, each lane's time scaled to the reference host. */
double
opsPerSec(const Pass &p, bool norm = false)
{
    double s = 0;
    for (const LaneRun &r : p.lanes) {
        const double busy =
            std::accumulate(r.hostUs.begin(), r.hostUs.end(), 0.0) / 1e6;
        s += ratio(static_cast<double>(r.hostUs.size()),
                   busy * (norm ? r.speed : 1));
    }
    return s;
}

double
passSpeed(const Pass &p)
{
    double s = 0;
    for (const LaneRun &r : p.lanes)
        s += r.speed;
    return s / static_cast<double>(p.lanes.size());
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, const char *>>>;

/** End-to-end metrics over @p passes, each lane's host times scaled
 *  to the reference host by that lane's measured speed in the pass:
 *  throughput is the median of the per-pass values, op host time
 *  quantiles and drift pool every pass's ops. Simulated metrics pool
 *  the lanes of the first pass (every pass repeats them; the digest
 *  check holds them equal). */
Metrics
endToEnd(const Options &o, const std::vector<Pass> &passes)
{
    std::vector<double> opsS, all, first, last, setups;
    const std::size_t tenth = o.ops / 10;
    for (const Pass &p : passes) {
        for (const LaneRun &r : p.lanes) {
            const std::size_t at = all.size();
            all.insert(all.end(), r.hostUs.begin(), r.hostUs.end());
            for (std::size_t i = at; i < all.size(); ++i)
                all[i] *= r.speed;
            first.insert(first.end(), all.begin() + at,
                         all.begin() + at + tenth);
            last.insert(last.end(), all.end() - tenth, all.end());
            setups.push_back(r.setupS * r.speed);
        }
        opsS.push_back(opsPerSec(p, true));
    }
    double bytes = 0, energy = 0;
    std::vector<double> simMs;
    for (const LaneRun &r : passes[0].lanes) {
        bytes += std::accumulate(r.bytes.begin(), r.bytes.end(), 0.0);
        energy += std::accumulate(r.energyUj.begin(), r.energyUj.end(), 0.0);
        simMs.insert(simMs.end(), r.simMs.begin(), r.simMs.end());
    }
    return {
        {"ops_per_s", {median(opsS), "1/s"}},
        {"op_host_us_p50", {quantile(all, 0.5), "us"}},
        {"op_host_us_p99", {quantile(all, 0.99), "us"}},
        {"op_cost_drift", {ratio(median(last), median(first)), "ratio"}},
        {"peak_rss_mb", {peakRssKb() / 1024, "MB"}},
        {"setup_s", {median(setups), "s"}},
        {"sim_mb_per_j", {ratio(bytes / 1e6, energy / 1e6), "MB/J"}},
        {"sim_energy_uj_per_op",
         {energy / static_cast<double>(simMs.size()), "uJ"}},
        {"sim_op_ms_p50", {quantile(simMs, 0.5), "ms"}},
        {"sim_op_ms_p99", {quantile(simMs, 0.99), "ms"}},
    };
}

/** Host-time totals of the traced passes, over every lane's spans. */
struct SpanStats
{
    std::map<std::string, std::pair<double, double>> byName; //!< sum us, n
    std::map<std::string, double> selfUs;                     //!< by layer

    explicit SpanStats(const std::vector<const Pass *> &traced)
    {
        for (const Pass *t : traced)
        for (const LaneRun &r : t->lanes) {
            const auto &sp = r.spans.spans();
            std::vector<std::int64_t> childNs(sp.size(), 0);
            for (const Spans::Span &s : sp)
                if (s.parent >= 0)
                    childNs[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
            for (std::size_t i = 0; i < sp.size(); ++i) {
                const std::string name = sp[i].name;
                const double us = (sp[i].t1 - sp[i].t0) / 1e3 * r.speed;
                auto &e = byName[name];
                e.first += us;
                e.second += 1;
                selfUs[name.substr(0, name.find('.'))] +=
                    us - childNs[i] / 1e3 * r.speed;
            }
        }
    }

    double
    sum(const std::string &prefix) const
    {
        double s = 0;
        for (auto it = byName.lower_bound(prefix);
             it != byName.end() && it->first.rfind(prefix, 0) == 0; ++it)
            s += it->second.first;
        return s;
    }

    double
    mean(const std::string &prefix) const
    {
        double s = 0, n = 0;
        for (auto it = byName.lower_bound(prefix);
             it != byName.end() && it->first.rfind(prefix, 0) == 0; ++it) {
            s += it->second.first;
            n += it->second.second;
        }
        return ratio(s, n);
    }
};

double
tallyOf(const Tally &t, const std::string &k)
{
    const auto it = t.find(k);
    return it == t.end() ? 0 : it->second;
}

/**
 * Per-layer metrics of a traced run: counts from the first traced
 * pass (every pass repeats them exactly), host times from the spans of
 * every traced pass, RSS growth from the first plain pass, and the
 * tracing overhead from the medians of the alternating plain and
 * traced passes.
 */
Metrics
perLayer(const Options &o, const std::vector<const Pass *> &plain,
         const std::vector<const Pass *> &traced)
{
    const LaneRun &r0 = traced[0]->lanes[0];
    const RegTotals &g = r0.reg;
    const Tally &ty = r0.tally;
    const double ops = static_cast<double>(o.ops);
    const double allOps = ops * o.lanes;
    // Ops covered by the spans: every lane of every traced pass.
    const double spanOps = allOps * static_cast<double>(traced.size());
    const SpanStats sp(traced);
    Tally setup;
    for (const LaneRun &r : plain[0]->lanes)
        for (const auto &[k, v] : r.setupTally)
            setup[k] += v;

    std::vector<double> nsPerOp, waitFrac, plainOps, tracedOps, speed;
    for (const Pass *p : plain) {
        double us = 0;
        std::int64_t start = p->lanes[0].t0, stop = p->lanes[0].t1;
        for (const LaneRun &r : p->lanes) {
            us += std::accumulate(r.hostUs.begin(), r.hostUs.end(), 0.0) *
                  r.speed;
            start = std::min(start, r.t0);
            stop = std::max(stop, r.t1);
        }
        double wait = 0;
        for (const LaneRun &r : p->lanes)
            wait += static_cast<double>(stop - r.t1);
        nsPerOp.push_back(us * 1e3 / allOps);
        waitFrac.push_back(
            ratio(wait, static_cast<double>(stop - start) * o.lanes));
        plainOps.push_back(opsPerSec(*p, true));
        speed.push_back(passSpeed(*p));
    }
    for (const Pass *p : traced)
        tracedOps.push_back(opsPerSec(*p, true));
    const Pass &first = *plain[0];

    const double events = g.get("sim.events_dispatched");
    const double strongWake = g.sumWhere("soc.domain0.", ".wakeups");
    const double strongActive = g.sumWhere("soc.domain0.", ".active_us");
    const double pairFaults = g.sumWhere("os.dsm.", ".faults");
    const double ndsmFaults = g.sumWhere("os.ndsm.", ".faults");
    auto phase = [&g](const char *suffix) {
        return ratio(g.sumOfSums("os.dsm.", suffix) +
                         g.sumOfSums("os.ndsm.", suffix),
                     g.sumWhere("os.dsm.", suffix) +
                         g.sumWhere("os.ndsm.", suffix));
    };
    const double tracked = g.get("os.recovery.mail.tracked_sent");
    const double retrans = g.get("os.recovery.mail.retransmits");
    const double votes = g.get("os.replica.votes");
    const double k2MbJ = ratio(tallyOf(ty, "grid.k2.bytes"),
                               tallyOf(ty, "grid.k2.energy_uj"));
    const double lxMbJ = ratio(tallyOf(ty, "grid.linux.bytes"),
                               tallyOf(ty, "grid.linux.energy_uj"));
    const double synth = tallyOf(ty, "fleet.episodes");

    Metrics m = {
        {"sim.events_per_op", {events / ops, "count"}},
        {"sim.host_ns_per_event",
         {ratio(median(nsPerOp), events / ops), "ns"}},
        {"sim.pool_capacity", {g.poolCapacity, "count"}},
        {"sim.sketch.merge_host_us", {sp.mean("workloads.fleet.merge"), "us"}},
        {"sim.sketch.samples_per_op",
         {tallyOf(ty, "fleet.sketch_samples") / ops, "count"}},
        {"soc.mailbox.sent_per_op", {g.get("soc.mailbox.sent") / ops, "count"}},
        {"soc.wakeups_per_op.strong", {strongWake / ops, "count"}},
        {"soc.wakeups_per_op.weak",
         {(g.sumWhere("soc.domain", ".wakeups") - strongWake) / ops, "count"}},
        {"soc.active_us_per_op.strong", {strongActive / ops, "us"}},
        {"soc.active_us_per_op.weak",
         {(g.sumWhere("soc.domain", ".active_us") - strongActive) / ops, "us"}},
        {"soc.energy_frac.strong",
         {ratio(g.get("soc.power.strong.energy_uj"),
                g.sumWhere("soc.power.", ".energy_uj")),
          "ratio"}},
        {"soc.spinlock.contended_polls_per_op",
         {g.get("soc.spinlock.contended_polls") / ops, "count"}},
        {"kern.threads_retained", {tallyOf(ty, "threads"), "count"}},
        {"kern.rss_kb_per_kop",
         {(first.rssAfterKb - first.rssBeforeKb) / (allOps / 1e3), "kB"}},
        {"kern.context_switches_per_op",
         {g.sumWhere("kern.", ".sched.context_switches") / ops, "count"}},
        {"os.dsm.faults_per_op", {(pairFaults + ndsmFaults) / ops, "count"}},
        {"os.dsm.messages_per_fault",
         {ratio(g.get("os.dsm.messages"), pairFaults), "count"}},
        {"os.dsm.tlb_hit_frac",
         {ratio(g.sumWhere("os.dsm.", ".tlb.hits"),
                g.sumWhere("os.dsm.", ".tlb.hits") +
                    g.sumWhere("os.dsm.", ".tlb.misses")),
          "ratio"}},
        {"os.dsm.fault_sim_us.entry", {phase(".fault_entry_us"), "us"}},
        {"os.dsm.fault_sim_us.protocol", {phase(".protocol_us"), "us"}},
        {"os.dsm.fault_sim_us.comm", {phase(".comm_us"), "us"}},
        {"os.dsm.fault_sim_us.service", {phase(".service_us"), "us"}},
        {"os.dsm.fault_sim_us.exit", {phase(".exit_us"), "us"}},
    };
    for (const char *p : {"2state", "mesi", "rac"}) {
        for (const char *eng : {"os.dsm.", "os.ndsm."}) {
            const std::string span = std::string(eng) + p;
            m.push_back({std::string(eng) + "fault_host_us." + p,
                         {ratio(sp.sum(span),
                                tallyOf(ty, "faults." + span) * spanOps / ops),
                          "us"}});
        }
    }
    const Metrics rest = {
        {"os.ndsm.messages_per_fault",
         {ratio(g.get("os.ndsm.messages"), ndsmFaults), "count"}},
        {"os.nightwatch.suspends_per_op",
         {g.get("os.nightwatch.suspends") / ops, "count"}},
        {"os.cross_isa.dispatches_per_op",
         {g.get("os.cross_isa.dispatches") / ops, "count"}},
        {"fault.injected_per_op", {g.sumWhere("fault.injected.", "") / ops, "count"}},
        {"os.recovery.retransmits_per_op", {retrans / ops, "count"}},
        {"os.mail.goodput_frac", {ratio(tracked, tracked + retrans), "ratio"}},
        {"os.replica.votes_per_op", {votes / ops, "count"}},
        {"os.replica.bad_vote_frac",
         {ratio(g.get("os.replica.vote_mismatches") +
                    g.get("os.replica.votes_absent") +
                    g.get("os.replica.votes_late"),
                votes),
          "ratio"}},
        {"svc.fs.ops_per_op", {g.sumWhere("svc.fs.ops_", "") / ops, "count"}},
        {"svc.disk.ios_per_op",
         {(g.get("svc.disk.reads") + g.get("svc.disk.writes")) / ops, "count"}},
        {"svc.net.packets_per_op", {g.get("svc.net.packets_sent") / ops, "count"}},
        {"svc.net.drop_frac",
         {ratio(g.get("svc.net.packets_dropped"), g.get("svc.net.packets_sent")),
          "ratio"}},
        {"svc.dma.transfers_per_op", {g.get("svc.dma.transfers") / ops, "count"}},
        {"svc.episode_host_us.dma", {sp.mean("svc.episode.dma"), "us"}},
        {"svc.episode_host_us.ext2", {sp.mean("svc.episode.ext2"), "us"}},
        {"svc.episode_host_us.udp", {sp.mean("svc.episode.udp"), "us"}},
        {"workloads.provision_ms", {sp.mean("workloads.provision") / 1e3, "ms"}},
        {"workloads.boot_ms",
         {ratio(tallyOf(setup, "boot_ms"), tallyOf(setup, "boots")), "ms"}},
        {"workloads.cell_episode_ms",
         {(sp.sum("svc.episode.") + sp.sum("baseline.episode.")) / spanOps / 1e3,
          "ms"}},
        {"workloads.sweep.lane_wait_frac",
         {median(waitFrac), "ratio"}},
        {"workloads.k2_vs_linux_mb_per_j", {ratio(k2MbJ, lxMbJ), "ratio"}},
        {"workloads.fleet.device_host_us",
         {sp.mean("workloads.fleet.synthesize"), "us"}},
        {"workloads.fleet.calibrate_ms",
         {ratio(tallyOf(setup, "calibrate_ms"), tallyOf(setup, "calibrations")),
          "ms"}},
        {"workloads.fleet.synth_frac",
         {ratio(synth, synth + 2.0 * k2::wl::kFleetKinds), "ratio"}},
        {"obs.snapshot_host_us", {sp.mean("obs.snapshot"), "us"}},
        {"obs.report_host_us", {sp.mean("obs.report"), "us"}},
        {"baseline.episode_host_us", {sp.mean("baseline.episode."), "us"}},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    for (const char *layer : {"bench", "workloads", "svc", "os", "obs", "baseline"}) {
        const auto it = sp.selfUs.find(layer);
        m.push_back({std::string("host.self_us_per_op.") + layer,
                     {it == sp.selfUs.end() ? 0 : it->second / spanOps, "us"}});
    }
    m.push_back({"host.ref_speed", {median(speed), "ratio"}});
    m.push_back({"obs.trace_overhead_frac",
                 {1 - ratio(median(tracedOps), median(plainOps)), "ratio"}});
    return m;
}

void
writeMetrics(std::ostream &os, const Metrics &m)
{
    os << "{";
    for (std::size_t i = 0; i < m.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", m[i].second.first);
        os << (i ? ", " : "") << "\"" << m[i].first << "\": {\"value\": "
           << buf << ", \"unit\": \"" << m[i].second.second << "\"}";
    }
    os << "}";
}

std::string
jsonStr(const std::string &s)
{
    std::string o = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            o += c;
    }
    return o + "\"";
}

void
writeSpans(const std::string &path, const Pass &t)
{
    std::ofstream os(path);
    os << "{\"traceEvents\": [";
    const auto &sp = t.lanes[0].spans.spans();
    const std::int64_t base = sp.empty() ? 0 : sp.front().t0;
    for (std::size_t i = 0; i < sp.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": 0, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"op\": %u}}",
                      i ? ",\n" : "\n", sp[i].name, (sp[i].t0 - base) / 1e3,
                      (sp[i].t1 - sp[i].t0) / 1e3, sp[i].op);
        os << buf;
    }
    os << "\n]}\n";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: k2perf --workload NAME --seed N --ops N [--lanes N] "
                 "[--passes N] [--trace 0|1] [--out FILE] [--spans FILE] "
                 "[--plant short|hang|spin --plant-op N] "
                 "[--op-timeout-s S]\n");
    return 2;
}

bool
parse(int argc, char **argv, Options &o)
{
    for (int i = 0; i < argc; ++i) {
        if (i)
            o.argvLine += ' ';
        o.argvLine += argv[i];
    }
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        char *end = nullptr;
        const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
        const bool num = !v.empty() && *end == '\0';
        if (k == "--workload")
            o.workload = v;
        else if (k == "--seed" && num)
            o.params.seed = n;
        else if (k == "--ops" && num && n > 0 && n < (1ULL << 31))
            o.ops = n;
        else if (k == "--lanes" && num && n > 0 && n <= kMaxLanes)
            o.lanes = static_cast<unsigned>(n);
        else if (k == "--passes" && num && n > 0 && n < 100)
            o.passes = static_cast<unsigned>(n);
        else if (k == "--trace" && (v == "0" || v == "1"))
            o.trace = v == "1";
        else if (k == "--out")
            o.out = v;
        else if (k == "--spans")
            o.spansOut = v;
        else if (k == "--plant" && v == "short")
            o.params.plant = Plant::Short;
        else if (k == "--plant" && v == "hang")
            o.params.plant = Plant::Hang;
        else if (k == "--plant" && v == "spin")
            o.params.plant = Plant::Spin;
        else if (k == "--plant-op" && num)
            o.params.plantOp = n;
        else if (k == "--op-timeout-s" && num && n > 0)
            o.opTimeoutS = static_cast<double>(n);
        else
            return false;
    }
    return argc % 2 == 1 && o.ops > 0 &&
           std::find(workloadNames().begin(), workloadNames().end(),
                     o.workload) != workloadNames().end();
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parse(argc, argv, o))
        return usage();
    if (std::strcmp(kBuildType, "Release") != 0) {
        std::fprintf(stderr, "k2perf: refusing a '%s' build; benchmark "
                             "numbers must come from Release\n",
                     kBuildType);
        return 2;
    }
    // Whole rounds in every tenth of a chain, so that the last tenth
    // can repeat the first tenth's inputs (see inputOf).
    const std::uint64_t quantum = 10 * opRound(o.workload);
    o.ops = (o.ops + quantum - 1) / quantum * quantum;
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    if (o.lanes == 0)
        o.lanes = std::min(4u, nproc);
    if (o.lanes > nproc) {
        std::fprintf(stderr, "k2perf: %u lanes exceed nproc=%u\n", o.lanes,
                     nproc);
        return 2;
    }

    // Host watchdog: an op (or set-up) busy for longer than the limit
    // is a livelock the simulated-time cap cannot see. Report it as a
    // failed op with its repro line and end the run.
    std::atomic<bool> done{false};
    std::thread watchdog([&o, &done] {
        const auto limit = static_cast<std::int64_t>(o.opTimeoutS * 1e9);
        while (!done) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            for (unsigned l = 0; l < o.lanes; ++l) {
                const std::int64_t since = gWatch[l].since;
                if (since == 0 || hostNs() - since < limit)
                    continue;
                const std::string line =
                    failureLine(o, l, gWatch[l].op,
                                "stalled: no progress for " +
                                    std::to_string(o.opTimeoutS) + " s host");
                std::fprintf(stderr, "k2perf: %s\n", line.c_str());
                if (!o.out.empty()) {
                    const unsigned passes = o.trace ? 2 * kTracedPairs : o.passes;
                    std::ofstream os(o.out);
                    os << "{\"stalled\": " << jsonStr(line)
                       << ", \"attempted\": " << o.ops * o.lanes * passes << "}\n";
                }
                std::fflush(nullptr);
                std::_Exit(3);
            }
        }
    });

    int rc = 0;
    try {
        // A traced run alternates plain and traced passes, so that the
        // tracing overhead compares passes made at nearly the same time.
        std::vector<Pass> passes;
        const unsigned n = o.trace ? 2 * kTracedPairs : o.passes;
        for (unsigned i = 0; i < n; ++i)
            passes.push_back(runPass(o, o.trace && i % 2 == 1));

        std::uint64_t attempted = 0, failed = 0;
        std::vector<std::string> failures;
        bool agree = true;
        for (const Pass &p : passes) {
            for (const LaneRun &r : p.lanes) {
                attempted += r.hostUs.size();
                failed += r.failed;
                agree = agree &&
                        r.digest == passes[0].lanes[&r - p.lanes.data()].digest;
                for (const std::string &f : r.failures)
                    if (failures.size() < kMaxFailureLines)
                        failures.push_back(f);
            }
        }

        std::ostringstream js;
        std::uint64_t h = fnv1a("");
        char digest[24];
        for (const LaneRun &r : passes[0].lanes) {
            std::snprintf(digest, sizeof digest, "%016llx",
                          static_cast<unsigned long long>(r.digest));
            h = fnv1a(digest, h);
        }
        std::snprintf(digest, sizeof digest, "%016llx",
                      static_cast<unsigned long long>(h));
        js << "{\"workload\": " << jsonStr(o.workload)
           << ", \"seed\": " << o.params.seed << ", \"ops_per_lane\": " << o.ops
           << ", \"lanes\": " << o.lanes << ", \"attempted\": " << attempted
           << ", \"failed\": " << failed << ", \"digest\": \"" << digest
           << "\", \"digests_agree\": " << (agree ? "true" : "false")
           << ", \"provenance\": {\"build_type\": " << jsonStr(kBuildType)
           << ", \"compiler\": " << jsonStr(K2PERF_COMPILER)
           << ", \"nproc\": " << nproc << ", \"lanes\": " << o.lanes
           << ", \"seed\": " << o.params.seed << "}, \"failures\": [";
        for (std::size_t i = 0; i < failures.size(); ++i)
            js << (i ? ", " : "") << jsonStr(failures[i]);
        js << "], \"pass_ops_per_s\": [";
        for (std::size_t i = 0; i < passes.size(); ++i)
            js << (i ? ", " : "") << opsPerSec(passes[i]);
        js << "], \"pass_speed\": [";
        for (std::size_t i = 0; i < passes.size(); ++i)
            js << (i ? ", " : "") << passSpeed(passes[i]);
        js << "], \"metrics\": ";
        if (o.trace) {
            std::vector<const Pass *> plain, traced;
            for (std::size_t i = 0; i < passes.size(); ++i)
                (i % 2 ? traced : plain).push_back(&passes[i]);
            writeMetrics(js, perLayer(o, plain, traced));
            if (!o.spansOut.empty())
                writeSpans(o.spansOut, passes[1]);
        } else {
            writeMetrics(js, endToEnd(o, passes));
        }
        js << "}\n";
        if (o.out.empty()) {
            std::fputs(js.str().c_str(), stdout);
        } else {
            std::ofstream os(o.out);
            os << js.str();
        }
        for (const std::string &f : failures)
            std::fprintf(stderr, "k2perf: failed op: %s\n", f.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "k2perf: %s\n", e.what());
        rc = 1;
    }
    done = true;
    watchdog.join();
    return rc;
}
