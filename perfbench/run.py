#!/usr/bin/env python3
"""Build and run the K2 simulator benchmark; print one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds perfbench/ (which
compiles ../src) as Release into .bench_build/k2perf; later runs reuse
the build. Every run does a fixed amount of work: each workload has a
fixed op count per pass (its chain length), and --seconds sets only the
number of passes, from the pass time measured on the reference host
(see perfbench/README.md). The work therefore never depends on how fast
the host happens to be.

The last line of stdout is {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced pass with --trace 1. The line before it stamps the
provenance (build type, compiler, nproc, lanes, seed). A run is correct
when no op failed a check and the registry digests agree across passes
and with earlier runs of the same binary, seed and size.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "k2perf")
BINARY = os.path.join(BUILD, "k2perf")

# Per workload: ops per lane in one pass (the chain length), and the
# wall time of one pass, set-up included, measured once on the
# reference host (4 lanes). Host time on a shared host swings from one
# second to the next, so a run makes many short passes and reports
# medians over them.
WORKLOADS = {
    "testbed_mix": (6000, 0.5),
    "dsm_sharing": (6120, 0.5),
    "sweep_cells": (610, 2.0),
    "fleet_synth": (12500, 0.4),
}
MIN_PASSES = 3
LANES = 4
HARD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no simulator sources under src/; cannot build")
        return False
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return False
    with open(cache) as f:
        types = [l.split("=", 1)[1].strip() for l in f
                 if l.startswith("CMAKE_BUILD_TYPE:")]
    if types != ["Release"]:
        log(f"run.py: {BUILD} is configured as {types}, not Release")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "k2perf", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def binary_id():
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_digest(key, digest):
    """Same code, seed and size must give the same registry digest in
    every run; the first run of a key records it. The record belongs to
    one k2perf binary: a rebuild from other sources starts a new one,
    so a change that moves the model is not read as nondeterminism."""
    path = os.path.join(BUILD, "digests.json")
    rec = {}
    if os.path.isfile(path):
        with open(path) as f:
            rec = json.load(f)
    build_id = binary_id()
    if rec.get("binary") != build_id:
        rec = {"binary": build_id, "digests": {}}
    seen = rec["digests"]
    if key in seen:
        return seen[key] == digest
    seen[key] = digest
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test and tuning knobs (perfbench/selftest.py, steady.py).
    ap.add_argument("--lanes", type=int, default=LANES)
    ap.add_argument("--ops", type=int, help="ops per lane per pass")
    ap.add_argument("--passes", type=int)
    ap.add_argument("--plant", choices=("short", "hang", "spin"))
    ap.add_argument("--plant-op", type=int, default=0)
    ap.add_argument("--op-timeout-s", type=int, default=30)
    a = ap.parse_args()
    if a.seconds < 1 or a.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    start = time.monotonic()
    if not build():
        log("run.py: build failed")
        return 2

    ops, pass_s = WORKLOADS[a.workload]
    ops = a.ops or ops
    passes = a.passes or max(MIN_PASSES, round(a.seconds / pass_s))
    lanes = min(a.lanes, os.cpu_count() or 1)
    out = os.path.join(BUILD, f"result.{os.getpid()}.json")
    cmd = [BINARY, "--workload", a.workload, "--seed", str(a.seed),
           "--ops", str(ops), "--lanes", str(lanes),
           "--passes", str(passes), "--trace", str(a.trace),
           "--out", out, "--op-timeout-s", str(a.op_timeout_s),
           "--spans", os.path.join(BUILD, f"spans-{a.workload}.json")]
    if a.plant:
        cmd += ["--plant", a.plant, "--plant-op", str(a.plant_op)]
    budget = max(10, HARD_TIMEOUT_S - (time.monotonic() - start))
    try:
        rc = subprocess.run(cmd, timeout=budget).returncode
    except subprocess.TimeoutExpired:
        log(f"run.py: k2perf exceeded {budget:.0f} s; killed")
        return 1
    try:
        with open(out) as f:
            res = json.load(f)
        os.remove(out)
    except (OSError, ValueError):
        log(f"run.py: k2perf exited {rc} without a result")
        return 1

    if "stalled" in res:
        # The host watchdog ended the run on a livelocked op: report
        # the op as failed rather than hanging.
        log(f"run.py: stalled op: {res['stalled']}")
        print(json.dumps({"correct": False, "attempted": res["attempted"],
                          "failed": 1, "metrics": {}}))
        return 0
    if rc != 0:
        log(f"run.py: k2perf exited {rc}")
        return 1

    key = (f"{a.workload}/seed={a.seed}/ops={res['ops_per_lane']}"
           f"/lanes={res['lanes']}")
    # A planted fault changes the outputs on purpose: keep it out of the
    # cross-run record.
    cross_run = a.plant is not None or check_digest(key, res["digest"])
    prov = res["provenance"]
    correct = (res["failed"] == 0 and res["digests_agree"] and cross_run
               and prov["build_type"] == "Release")
    if not cross_run:
        log(f"run.py: digest {res['digest']} differs from an earlier run "
            f"of {key}")
    print(json.dumps({"provenance": dict(prov, passes=passes,
                                         ops_per_lane=res["ops_per_lane"],
                                         digest=res["digest"])}))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
