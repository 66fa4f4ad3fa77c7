#!/usr/bin/env python3
"""Steadiness check for the daemon benchmark.

Runs every workload of BENCHMARK.json N times for its `run_seconds` on the
current commit, each run with its own seed, splits each workload's runs
into two sets, the first half and the second, and prints each end-to-end
metric's median and quartiles per set. The sets are apart in time, as two
sets of runs made one after the other are. Exits 1 when:

- a run fails;
- a metric's spread over all runs (interquartile range over the median)
  exceeds its bound. `setup_s` is exempt, as in the acceptance rule this
  check mirrors: its spread is printed, and only the drift of its median
  between the sets is gated;
- the two sets' medians differ by more than the bound;
- a binary workload and its JSON twin (`TWINS`) print different schedule
  digests for a seed. Each twin runs once per seed for `TWIN_SECONDS`.

Run from the repository root:

    python3 popsbench/steady.py [--runs 10]
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time

SEED_BASE = 1000
# Binary workloads and their JSON twins: the same request stream for a seed,
# so the daemon must send the same schedules. The twins are not gated
# workloads (see README.md); they run only for this check, briefly, since
# the digest covers the first 1000 replies.
TWINS = {"miss-32x32-bin": "miss-32x32-json"}
TWIN_SECONDS = 5
REQUESTS = re.compile(r"^requests: (\d+) timed in ([\d.]+) s; digest ([0-9a-f]+) ", re.M)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(command, workload, seed, seconds):
    """The run's result, wall time, schedule digest and timed requests/s."""
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    began = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - began
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    report = REQUESTS.search(proc.stdout)
    if report is None:
        raise SystemExit(f"{workload} seed {seed}: the report has no requests line")
    requests, timed_s, digest = report.groups()
    return result, wall, digest, int(requests) / float(timed_s)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 4:
        raise SystemExit("--runs must be at least 4 (two sets of two)")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    ok = True
    digests = {}
    for name in names:
        values = {m["name"]: [] for m in metrics}
        walls, rates = [], []
        for r in range(args.runs):
            result, wall, digest, rate = run_once(bench["command"], name, SEED_BASE + r, seconds)
            walls.append(wall)
            rates.append(rate)
            digests[name, SEED_BASE + r] = digest
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        print(f"\n{name}: {args.runs} runs of {seconds} s, "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s, "
              f"timed requests/s {min(rates):.0f}-{max(rates):.0f}")
        print(f"  {'metric':28} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            vals = values[m["name"]]
            half = len(vals) // 2
            sets = (vals[:half], vals[half:])
            spread_all = (lambda q: (q[2] - q[0]) / q[1])(quartiles(vals))
            medians = []
            for label, s in zip("AB", sets):
                q1, q2, q3 = quartiles(s) if len(s) > 1 else (s[0],) * 3
                medians.append(q2)
                print(f"  {m['name']:28} {label:>3} {q1:12.4f} {q2:12.4f} {q3:12.4f} "
                      f"{(q3 - q1) / q2:8.3f} {m['bound']:6.2f}")
            drift = (medians[1] - medians[0]) / medians[0]
            verdict = []
            if m["name"] != "setup_s" and spread_all > m["bound"]:
                verdict.append(f"spread {spread_all:.3f} over all runs exceeds the bound")
            if abs(drift) > m["bound"]:
                verdict.append(f"set medians differ by {drift:+.3f}")
            note = "; ".join(verdict) if verdict else "ok"
            print(f"  {'':28} all spread {spread_all:.3f}, B vs A {drift:+.3f}: {note}")
            print(f"  {'':28} runs: " + " ".join(f"{v:.4g}" for v in vals))
            ok = ok and not verdict
    for name, twin in TWINS.items():
        if name not in names:
            continue
        differ = []
        for r in range(args.runs):
            _, _, digest, _ = run_once(bench["command"], twin, SEED_BASE + r, TWIN_SECONDS)
            if digest != digests[name, SEED_BASE + r]:
                differ.append(SEED_BASE + r)
        print(f"\ndigests of {name} and {twin}: "
              + (f"differ for seeds {differ}" if differ
                 else f"identical for all {args.runs} seeds"))
        ok = ok and not differ
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
