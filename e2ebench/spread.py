#!/usr/bin/env python3
"""Reproducibility check for the benchmark described in BENCHMARK.json.

Runs the benchmark command once per seed on each workload and reports, for
every end-to-end metric, the median and the spread: the distance between
the first and third quartiles of the per-seed values as a share of their
median. With --sets 2 it repeats the whole sweep on fresh seeds and checks
that the second set's median is not worse than the first by more than the
metric's bound.

Run from the repository root:

    python3 e2ebench/spread.py --seeds 10 --sets 2
    python3 e2ebench/spread.py --workload service --seeds 5
    python3 e2ebench/spread.py --workload terasort --seeds 1 --trace

Exits non-zero when a run fails, a spread exceeds its bound, or a second
set drifts beyond a bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    host = next((l for l in lines if l.startswith("host:")), "host: ?")
    steal = next((w for w in host.split() if w.startswith("cpu_steal_share=")), "")
    print(f"  run {workload} seed {seed} {steal} " + " ".join(
        f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    return values


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def worse_by(metric, first, second):
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", help="repeatable; default: all")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", action="store_true",
                    help="print the per-layer metrics of one traced run per seed")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True

    if args.trace:
        for w in workloads:
            for i in range(args.seeds):
                run_once(spec, w, 1 + i, True)
        return

    medians = {}
    for s in range(args.sets):
        for w in workloads:
            runs = [run_once(spec, w, 1 + 1000 * s + i, False)
                    for i in range(args.seeds)]
            for m in spec["end_to_end"]:
                name, bound = m["name"], m["bound"]
                med, sp = spread([r[name] for r in runs])
                verdict = "steady" if sp < bound / 3 else "within bound" if sp <= bound else "too wide"
                if verdict == "too wide":
                    ok = False
                line = (f"set {s + 1} {w:<10} {name:<20} median={med:<12.6g} "
                        f"spread={sp:.4f} bound={bound} {verdict}")
                if s > 0:
                    drift = worse_by(m, medians[(w, name)], med)
                    line += f" drift={drift:+.4f}"
                    if drift > bound:
                        ok = False
                        line += " DRIFT"
                else:
                    medians[(w, name)] = med
                print(line, flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
