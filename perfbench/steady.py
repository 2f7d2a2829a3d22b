#!/usr/bin/env python3
"""Check that the benchmark is steady enough to gate changes.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--sets 2]
                                [--seconds S] [--save FILE]

Runs --sets sets of runs. A set runs every workload once per seed, for
--seeds seeds (1 to --seeds, the same in every set), alternating the workload
order from one seed to the next so that no workload always runs first.
For every end-to-end metric of BENCHMARK.json it then prints, per
workload and set, the median and the quartiles of the values (Python's
statistics.quantiles(values, n=4)) and their spread, (q3 - q1) / median;
and between consecutive sets, how much worse the later median is, as a
share of the earlier one. Each is compared with the metric's bound:

  spread     OK when below bound/3; setup_s is exempt
  worse      OK when at most the bound

It exits non-zero when a run is incorrect or a check fails. Run it from
the repository root; it drives perfbench/run.py exactly as the gate does.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=300)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--save", help="write every run's result here")
    a = ap.parse_args()
    workloads = a.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    # values[set][workload][metric] -> list over seeds
    values = [{w: {m: [] for m in metrics} for w in workloads}
              for _ in range(a.sets)]
    raw = []
    ok = True
    for s in range(a.sets):
        for i in range(a.seeds):
            seed = 1 + i
            order = workloads if (s * a.seeds + i) % 2 == 0 else \
                workloads[::-1]
            for w in order:
                res = run_once(w, seed, a.seconds)
                raw.append({"set": s, "workload": w, "seed": seed,
                            "result": res})
                if not res["correct"] or res["failed"]:
                    print(f"INCORRECT: set {s} {w} seed {seed}: {res}")
                    ok = False
                for m in metrics:
                    values[s][w][m].append(res["metrics"][m]["value"])
                print(f"set {s} seed {seed} {w}: done", file=sys.stderr,
                      flush=True)
    if a.save:
        with open(a.save, "w") as f:
            json.dump(raw, f, indent=1)

    for w in workloads:
        print(f"\n== {w}")
        print(f"{'metric':24} {'set':>3} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>8} {'worse':>8}  bound")
        for m, spec in metrics.items():
            bound = spec["bound"]
            prev = None
            for s in range(a.sets):
                v = values[s][w][m]
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                flag = ""
                if m != "setup_s" and spread >= bound / 3:
                    flag += " SPREAD"
                    ok = False
                worse = ""
                if prev is not None:
                    d = (med - prev) / prev if prev else 0.0
                    if spec["better"] == "higher":
                        d = -d
                    worse = f"{d:+8.2%}"
                    if d > bound:
                        flag += " WORSE"
                        ok = False
                prev = med
                print(f"{m:24} {s:>3} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                      f"{spread:8.2%} {worse:>8}  {bound:.2f}{flag}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
