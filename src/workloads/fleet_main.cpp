/**
 * @file
 * The `fleet` binary: fleet-scale device population simulation.
 *
 *   fleet [--devices=N] [--hours=H] [--mix=NAME] [--seed=N]
 *         [--jobs=N] [--faults=SPEC] [--replicas=N]
 *         [--diurnal=AMPL] [--report=FILE]
 *
 * Simulates N devices' background traffic over H hours (see
 * DESIGN.md §11-12): per-kind episode costs are measured once per
 * unique config on a freshly booted K2 testbed (memoized), then the
 * device population's episode timelines are synthesised in batches
 * through mergeable quantile sketches. --diurnal=AMPL modulates
 * arrival rates sinusoidally over the day with amplitude AMPL in
 * [0, 1] (0 = off, the default, byte-identical to omitting the
 * flag). Prints fleet-level energy/latency distributions with
 * p50/p90/p99/p99.9 tails; --report additionally writes the sketches
 * as a JSON artifact.
 *
 * Both stdout and the report file are byte-identical at any --jobs=N;
 * the host-side throughput line (simulated device-hours per second)
 * goes to stderr so artifacts stay diffable.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "fault/plan.h"
#include "workloads/fleet.h"
#include "workloads/report.h"
#include "workloads/sweep.h"

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: fleet [--devices=N] [--hours=H] [--mix=NAME] "
        "[--seed=N]\n"
        "             [--jobs=N] [--faults=SPEC]\n"
        "             [--replicas=N] [--diurnal=AMPL] "
        "[--report=FILE]\n"
        "mixes: %s\n",
        k2::wl::mixNames().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace k2;

    wl::FleetConfig cfg;
    std::string reportFile;
    try {
        cfg.jobs = wl::parseJobsFlag(argc, argv);
        cfg.faults = wl::parseFaultsFlag(argc, argv);
        cfg.devices = wl::parseUintFlag(argc, argv, "--devices=",
                                        cfg.devices, 1, 100000000);
        cfg.hours = wl::parseFloatFlag(argc, argv, "--hours=",
                                       cfg.hours, 1e6);
        cfg.mix = wl::parseStringFlag(argc, argv, "--mix=", cfg.mix);
        cfg.seed =
            wl::parseUintFlag(argc, argv, "--seed=", cfg.seed, 0,
                              UINT64_MAX);
        cfg.replicas = static_cast<std::size_t>(wl::parseUintFlag(
            argc, argv, "--replicas=", cfg.replicas, 1, 15));
        // Hand-parsed: parseFloatFlag rejects 0, but an explicit
        // --diurnal=0 (off) is valid and must equal omitting it.
        const std::string diurnal =
            wl::parseStringFlag(argc, argv, "--diurnal=", "");
        if (!diurnal.empty()) {
            char *end = nullptr;
            cfg.diurnal = std::strtod(diurnal.c_str(), &end);
            if (end == diurnal.c_str() || *end != '\0' ||
                !(cfg.diurnal >= 0.0 && cfg.diurnal <= 1.0)) {
                std::fprintf(
                    stderr,
                    "--diurnal amplitude must be in [0, 1]\n");
                usage();
                return 2;
            }
        }
        reportFile =
            wl::parseStringFlag(argc, argv, "--report=", "");
        if (argc != 1) {
            std::fprintf(stderr, "fleet: unknown argument '%s'\n",
                         argv[1]);
            usage();
            return 2;
        }
        if (!wl::findMix(cfg.mix)) {
            std::fprintf(stderr, "unknown mix '%s'\n",
                         cfg.mix.c_str());
            usage();
            return 2;
        }
        // Validate the fault spec up front so a typo fails fast
        // instead of surfacing from inside a sweep cell.
        if (!cfg.faults.empty())
            (void)fault::FaultPlan::parse(cfg.faults);
    } catch (const sim::FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        usage();
        return 2;
    }

    const auto start = std::chrono::steady_clock::now();
    wl::FleetResult res;
    try {
        res = wl::runFleet(cfg);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fleet failed: %s\n", e.what());
        return 1;
    }
    const double hostSec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    wl::banner("fleet population simulation");
    std::fputs(res.text.c_str(), stdout);

    if (!reportFile.empty()) {
        std::ofstream os(reportFile, std::ios::binary);
        os << res.json;
        if (!os.good()) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         reportFile.c_str());
            return 1;
        }
        std::fprintf(stderr, "report: %s\n", reportFile.c_str());
    }

    // Host throughput to stderr: wall-clock facts must not pollute
    // the deterministic artifact.
    const double deviceHours =
        static_cast<double>(cfg.devices) * cfg.hours;
    std::fprintf(stderr,
                 "fleet: %.0f device-hours in %.2f s host time "
                 "(%.0f dh/s, %llu cells)\n",
                 deviceHours, hostSec,
                 hostSec > 0 ? deviceHours / hostSec : 0.0,
                 static_cast<unsigned long long>(res.cells));
    return 0;
}
