#!/usr/bin/env python3
"""Self-tests of the benchmark's own checks and stall guard.

    python3 perfbench/selftest.py

Plants faults into a short testbed_mix run through perfbench/run.py and
checks that each is caught, reported as a failed op, and that the run
still ends:

  clean  no fault: the run is correct and no op fails
  short  one op moves a byte less than asked: the byte check fails it
  hang   one op livelocks in simulated time: the simulated-time cap
         fails it and the lane goes on with a fresh fixture
  spin   one op livelocks at a single simulated instant: the host
         watchdog fails it and ends the run

Exits non-zero if any case misbehaves.
"""

import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OPS = 30  # ops per lane: one rounding quantum of testbed_mix

CASES = [
    # name, extra args, expected failed ops, expected correct, and what
    # the failure report must say (which guard caught the op)
    ("clean", [], 0, True, None),
    ("short", ["--plant", "short", "--plant-op", "7"], 1, False,
     "short op"),
    ("hang", ["--plant", "hang", "--plant-op", "7"], 1, False,
     "simulated-time cap"),
    ("spin", ["--plant", "spin", "--plant-op", "7", "--op-timeout-s", "2"],
     1, False, "stalled: no progress"),
]


def main():
    ok = True
    for name, extra, want_failed, want_correct, want_why in CASES:
        cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", "testbed_mix", "--seed", "424242",
               "--seconds", "1", "--trace", "0", "--lanes", "1",
               "--passes", "1", "--ops", str(OPS)] + extra
        t0 = time.monotonic()
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=170)
        took = time.monotonic() - t0
        try:
            res = json.loads(p.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            res = None
        good = (p.returncode == 0 and res is not None
                and res["failed"] == want_failed
                and res["correct"] == want_correct
                and res["attempted"] == OPS)
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'} {name:6} exit={p.returncode} "
              f"{took:5.1f}s result={res}")
        if not good:
            sys.stdout.write(p.stderr)
        elif want_failed:
            repro = [l for l in p.stderr.splitlines()
                     if "repro:" in l and want_why in l]
            print(f"     {repro[0] if repro else 'NO MATCHING REPRO LINE'}")
            ok = ok and bool(repro)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
