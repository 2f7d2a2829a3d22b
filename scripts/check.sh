#!/usr/bin/env bash
# Configure, build, and run the full test suite.
#
# Usage: scripts/check.sh [--asan | --tsan | --bench]
#
# With --asan, builds into build-asan/ with AddressSanitizer + UBSan
# (-DK2_SANITIZE=ON); this continuously checks the engine's manual
# event-pool allocator for lifetime bugs, in the tests and in the
# engine rows of micro_sim.
#
# With --tsan, builds into build-tsan/ with ThreadSanitizer
# (-DK2_SANITIZE=thread) and runs the tests that exercise host-thread
# parallelism: the sweep harness and the thread-confined log
# configuration. TSan and the simulator's single-threaded tier-1 suite
# don't mix usefully, so only the parallel tests run in this mode.
#
# With --bench, runs the tier-2 perf gate end to end: rebuilds the
# Release bench preset, re-measures the micro_sim suite, and fails if
# any benchmark regresses against the recorded BENCH_sim.json baseline
# (scripts/compare_bench.py, default threshold).

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

BUILD_DIR=build
EXTRA=()
MODE="${1:-}"
if [ "$MODE" = "--asan" ]; then
    BUILD_DIR=build-asan
    EXTRA=(-DK2_SANITIZE=ON)
    # Eternal detached coroutines (scheduler core loops) are reclaimed
    # only at process exit; see the suppression file.
    export LSAN_OPTIONS="suppressions=$ROOT/scripts/lsan.supp${LSAN_OPTIONS:+:$LSAN_OPTIONS}"
elif [ "$MODE" = "--tsan" ]; then
    BUILD_DIR=build-tsan
    EXTRA=(-DK2_SANITIZE=thread)
elif [ "$MODE" = "--bench" ]; then
    cmake -B build-bench -S . -G Ninja \
        -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-bench --target micro_sim
    build-bench/bench/micro_sim \
        --benchmark_format=json \
        --benchmark_out=build-bench/bench_gate.json \
        --benchmark_out_format=json \
        --benchmark_min_time=0.5
    scripts/compare_bench.py BENCH_sim.json build-bench/bench_gate.json
    echo "bench gate: no regressions vs BENCH_sim.json"
    exit 0
fi

# Prefer Ninja for fresh trees, but reuse whatever generator an
# existing build dir was configured with (the tier-1 instructions
# create build/ with the default generator).
GEN=()
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
    GEN=(-G Ninja)
fi
cmake -B "$BUILD_DIR" -S . "${GEN[@]}" "${EXTRA[@]}" >/dev/null
cmake --build "$BUILD_DIR" -j

if [ "$MODE" = "--tsan" ]; then
    # Race-check the parallel sweep paths, then exercise a ported
    # sweep binary and the testbed at an adversarial thread count.
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)" \
        -R 'SweepRunner|ScopedLogConfig|ParseJobsFlag'
    "$BUILD_DIR"/bench/fig6a_dma_energy --jobs=13 >/dev/null
    "$BUILD_DIR"/src/workloads/testbed --episodes=3 --runs=4 --jobs=13 \
        >/dev/null
    # The fault plane's injector/recovery state is per-cell; shard a
    # faulty sweep across threads to race-check it too.
    "$BUILD_DIR"/src/workloads/testbed --episodes=3 --runs=4 --jobs=13 \
        --faults="mailbox.drop:p=0.2,mailbox.dup:p=0.1" >/dev/null
    # Replicated shadows add a vote/election plane on top of the fault
    # plane; shard a leader-crash sweep to race-check it.
    "$BUILD_DIR"/src/workloads/testbed --episodes=3 --runs=4 --jobs=13 \
        --replicas=3 --faults="domain.crash:at=5ms:dom=1:len=2ms" \
        >/dev/null
    # The directory coherence protocols add invalidation fan-out and
    # third-party forwards to the sweep cells; race-check one under an
    # adversarial thread count.
    "$BUILD_DIR"/bench/fig6b_ext2_energy --dsm=mesi --jobs=13 >/dev/null
    # The fleet's streaming-reducer lanes are the newest parallel
    # surface: race-check a sharded population and its lane merges,
    # then at fleet scale -- 100k devices shard into enough cells to
    # exercise every lane joint (calibration memoization, chunked SoA
    # synthesis, sketch folds) under the race detector. Leave stderr
    # attached: it carries the throughput line but also any TSan
    # report, which a 2>/dev/null would silently discard (that hid a
    # real signgam race in lgamma once).
    "$BUILD_DIR"/src/workloads/fleet --devices=600 --hours=4 --jobs=13 \
        > "$BUILD_DIR/fleet-tsan.txt"
    "$BUILD_DIR"/src/workloads/fleet --devices=600 --hours=4 --jobs=1 \
        | diff - "$BUILD_DIR/fleet-tsan.txt"
    "$BUILD_DIR"/src/workloads/fleet --devices=100000 --hours=1 \
        --jobs=13 > "$BUILD_DIR/fleet-tsan-big.txt"
    "$BUILD_DIR"/src/workloads/fleet --devices=100000 --hours=1 \
        --jobs=1 | diff - "$BUILD_DIR/fleet-tsan-big.txt"
    echo "tsan: parallel sweep tests + sharded binaries OK"
    exit 0
fi

ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

# Under ASan, also drive the engine's event-pool paths the way the
# micro benchmarks do (arm, cancel and re-arm around sleeps included):
# any sanitizer report or leak makes micro_sim exit non-zero, and its
# table must still list every row.
if [ "$MODE" = "--asan" ]; then
    ENGINE_ROWS='BM_SleepResume|BM_TimerArmCancel'
    ENGINE_ROWS+='|BM_TimerRearmUnderSleeps|BM_EngineEventDispatch'
    "$BUILD_DIR"/bench/micro_sim --benchmark_filter="$ENGINE_ROWS" \
        --benchmark_min_time=0.05 > "$BUILD_DIR/asan-engine-bench.txt"
    test "$(grep -cE "^($ENGINE_ROWS) " \
        "$BUILD_DIR/asan-engine-bench.txt")" -eq 4
    echo "asan engine bench: 4 rows, no sanitizer report"
fi

# Observability smoke: one short testbed run must emit a metrics
# snapshot and a Chrome trace that both parse as JSON.
OBS_DIR="$BUILD_DIR/obs-smoke"
mkdir -p "$OBS_DIR"
"$BUILD_DIR"/src/workloads/testbed --episodes=3 \
    --metrics="$OBS_DIR/metrics.json" --trace="$OBS_DIR/trace.json" \
    >/dev/null
python3 -m json.tool "$OBS_DIR/metrics.json" >/dev/null
python3 -m json.tool "$OBS_DIR/trace.json" >/dev/null
echo "observability smoke: metrics + trace JSON OK"

# Memory soak: reaped threads are freed, so a long episode chain must
# run in bounded memory. The only state that grows with the episode
# count by design is testbed's own per-episode table (~250 B a row,
# held as strings and rendered text), so the 100k-episode run may
# exceed the 1k run's peak RSS by at most 4 MB plus 300 B per extra
# episode (~32 MB). A thread that outlives its reap (~1 KB each)
# grows it by ~100 MB and fails. Skipped under ASan: its quarantine
# keeps freed blocks resident, so RSS there does not track live memory
# (LeakSanitizer covers leaks instead).
if [ "$MODE" != "--asan" ]; then
    python3 - "$BUILD_DIR"/src/workloads/testbed <<'EOF'
import resource, subprocess, sys
def peak_kb(episodes):
    subprocess.run([sys.argv[1], f"--episodes={episodes}"],
                   stdout=subprocess.DEVNULL, check=True)
    # Max over all children so far; the runs go small to large.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
small, large = peak_kb(1000), peak_kb(100000)
growth_mb = (large - small) / 1024
bound_mb = 4 + 300 * 99000 / 2**20
print(f"memory soak: peak RSS {small / 1024:.1f} MB at 1k episodes, "
      f"{large / 1024:.1f} MB at 100k (bound +{bound_mb:.1f} MB)")
assert growth_mb <= bound_mb, \
    f"RSS grew {growth_mb:.1f} MB over 99k episodes (bound {bound_mb:.1f})"
EOF
fi

# Fault-injection smoke: the same scenario under a lossy mailbox must
# still complete, with the ARQ shim actually recovering dropped mail
# (retransmits > 0, no giveups). Both runs are deterministic, so these
# assertions are exact, not flaky.
"$BUILD_DIR"/src/workloads/testbed --episodes=6 \
    --faults="mailbox.drop:p=0.2,mailbox.dup:p=0.1" \
    --metrics="$OBS_DIR/metrics_faults.json" >/dev/null
python3 - "$OBS_DIR/metrics_faults.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
v = lambda k: m[k]["value"]
assert v("fault.injected.mailbox.drop") > 0, "no drops injected"
assert v("os.recovery.mail.retransmits") > 0, "ARQ never retransmitted"
assert v("os.recovery.mail.duplicates_dropped") > 0, "dup not suppressed"
assert v("os.recovery.mail.giveups") == 0, "ARQ gave up on a mail"
EOF
# Zero-fault guard: without --faults no fault/recovery metric may even
# exist in the snapshot (the plane must be fully disarmed).
python3 - "$OBS_DIR/metrics.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
bad = [k for k in m
       if k.startswith("fault.") or k.startswith("os.recovery")]
assert not bad, f"fault plane armed without --faults: {bad}"
EOF
echo "fault smoke: injection + ARQ recovery + disarmed guard OK"

# Replication smoke: with 3 replicas, crashing the initial leader must
# trigger exactly one election and one rejoin+resync, keep a quorum
# throughout, and leave the service fully available (no degraded
# spawns). Deterministic, so the assertions are exact.
"$BUILD_DIR"/src/workloads/testbed --system=k2 --episodes=6 \
    --replicas=3 --faults="domain.crash:at=5ms:dom=1:len=2ms" \
    --metrics="$OBS_DIR/metrics_replica.json" >/dev/null
python3 - "$OBS_DIR/metrics_replica.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
v = lambda k: m["os.replica." + k]["value"]
assert v("elections") == 1, "leader crash must trigger one election"
assert v("election_oks") == 1, "election never completed"
assert v("rejoins") == 1, "revived replica never rejoined"
assert v("resyncs") == 1 and v("resync_pages") > 0, "no rejoin re-sync"
assert v("quorum_losses") == 0, "3-way group lost quorum on one crash"
assert v("degraded_spawns") == 0, "service degraded despite quorum"
assert v("vote_no_quorum") == 0, "a vote round failed quorum"
assert v("live") == 3, "crashed replica not live again at exit"
assert v("leader") != 0, "leadership never moved off the crashed replica"
EOF
# Replicated artifacts must stay byte-identical across shard counts,
# crash and all.
REP_ARGS=(--episodes=3 --runs=4 --replicas=3
          --faults="domain.crash:at=5ms:dom=1:len=2ms")
"$BUILD_DIR"/src/workloads/testbed "${REP_ARGS[@]}" --jobs=4 \
    > "$OBS_DIR/replica_j4.txt"
"$BUILD_DIR"/src/workloads/testbed "${REP_ARGS[@]}" --jobs=1 \
    | diff - "$OBS_DIR/replica_j4.txt"
echo "replication smoke: election + handoff + rejoin re-sync +" \
     "artifact determinism OK"

# Unknown flags fail loudly: a retired or misspelt flag (here the
# retired sweep-mode flag) must stop a sweep binary with an error
# naming it, not be silently ignored.
if "$BUILD_DIR"/bench/fig6a_dma_energy --sweep=warm \
    > /dev/null 2> "$OBS_DIR/unknown_flag.txt"; then
    echo "error: fig6a_dma_energy accepted --sweep=warm" >&2
    exit 1
fi
grep -q "unknown argument '--sweep=warm'" "$OBS_DIR/unknown_flag.txt"
echo "flag smoke: unknown arguments rejected"

# Fleet smoke: a small population's report and JSON artifact must be
# byte-identical serial vs sharded (the throughput line goes to
# stderr, so stdout diffs exactly), and the artifact must parse as
# JSON with the expected sketch series.
FLEET_DIR="$BUILD_DIR/fleet-smoke"
mkdir -p "$FLEET_DIR"
for jobs in 1 4; do
    "$BUILD_DIR"/src/workloads/fleet --devices=300 --hours=6 \
        --jobs="$jobs" --report="$FLEET_DIR/j$jobs.json" \
        > "$FLEET_DIR/j$jobs.txt" 2>/dev/null
done
diff "$FLEET_DIR/j1.txt" "$FLEET_DIR/j4.txt"
diff "$FLEET_DIR/j1.json" "$FLEET_DIR/j4.json"
python3 - "$FLEET_DIR/j1.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
for series in ("fleet.episode.energy_uj", "fleet.episode.latency_us",
               "fleet.device.energy_uj"):
    s = m[series]
    assert s["count"] > 0, f"{series} is empty"
    for tail in ("p50", "p90", "p99", "p999"):
        assert s[tail] is not None, f"{series} missing {tail}"
    assert s["p50"] <= s["p99"] <= s["max"], f"{series} tails disordered"
EOF
# Scale determinism smoke: a 100k-device population (hundreds of
# cells) must stay byte-identical across an adversarial shard count,
# and --diurnal must be deterministic too while --diurnal=0 must equal
# omitting the flag entirely.
"$BUILD_DIR"/src/workloads/fleet --devices=100000 --hours=1 --jobs=13 \
    > "$FLEET_DIR/big_13.txt" 2>/dev/null
"$BUILD_DIR"/src/workloads/fleet --devices=100000 --hours=1 --jobs=1 \
    2>/dev/null | diff - "$FLEET_DIR/big_13.txt"
"$BUILD_DIR"/src/workloads/fleet --devices=100000 --hours=1 --jobs=4 \
    --diurnal=0 2>/dev/null | diff - "$FLEET_DIR/big_13.txt"
"$BUILD_DIR"/src/workloads/fleet --devices=300 --hours=6 --jobs=13 \
    --diurnal=0.5 > "$FLEET_DIR/diurnal_13.txt" 2>/dev/null
"$BUILD_DIR"/src/workloads/fleet --devices=300 --hours=6 --jobs=1 \
    --diurnal=0.5 2>/dev/null | diff - "$FLEET_DIR/diurnal_13.txt"
if cmp -s "$FLEET_DIR/diurnal_13.txt" "$FLEET_DIR/j1.txt"; then
    echo "error: --diurnal=0.5 did not change the fleet report" >&2
    exit 1
fi
echo "fleet smoke: sharded artifacts identical, 100k-device" \
     "scale + diurnal determinism OK, JSON OK"

# Coherence protocol smoke: every zoo protocol (DESIGN.md §14) must
# boot the K2 testbed, run the fig6(b) workload, and emit
# byte-identical artifacts at any shard count.
DSM_DIR="$BUILD_DIR/dsm-smoke"
mkdir -p "$DSM_DIR"
for proto in 2state 3state mesi moesi rac; do
    "$BUILD_DIR"/bench/fig6b_ext2_energy --dsm="$proto" --jobs=4 \
        > "$DSM_DIR/${proto}_j4.txt"
    "$BUILD_DIR"/bench/fig6b_ext2_energy --dsm="$proto" --jobs=1 \
        | diff - "$DSM_DIR/${proto}_j4.txt"
    "$BUILD_DIR"/bench/fig6b_ext2_energy --dsm="$proto" --jobs=13 \
        | diff - "$DSM_DIR/${proto}_j4.txt"
done
# Distinct protocols must actually produce distinct results (guard
# against the flag silently falling back to the default). fig6(b)'s
# rounded MB/J columns don't resolve the difference, but the testbed's
# episode timings and DSM fault breakdown do.
"$BUILD_DIR"/src/workloads/testbed --episodes=6 --dsm=2state \
    > "$DSM_DIR/testbed_2state.txt"
"$BUILD_DIR"/src/workloads/testbed --episodes=6 --dsm=3state \
    > "$DSM_DIR/testbed_3state.txt"
if cmp -s "$DSM_DIR/testbed_2state.txt" "$DSM_DIR/testbed_3state.txt"
then
    echo "error: --dsm=3state produced the 2state results" >&2
    exit 1
fi
echo "coherence smoke: 5 protocols x jobs artifacts" \
     "identical, protocols distinct"
