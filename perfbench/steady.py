#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and compare the spread
of every end-to-end metric with its bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--first-seed 1]
                                [--workloads olap,write-read] [--save FILE]

Each run uses another seed (first-seed, first-seed + 1, ...). For each
metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median
against the metric's bound; `ok` means the spread is below a third of
the bound (setup_s is reported but not gated on its spread). It also
prints attempted/failed per run, with the failures no named fault
predicts, the mismatches, the host's steal time and the run's wall
time, and whether the failed share is the same in every run. Run from
the root of the repository; exits non-zero when a run fails, reports
incorrect output, fails a different share of its operations, or a
spread reaches its bound. With --save, each run's result is also
appended to FILE as one JSON line.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=600)
    wall = time.monotonic() - start
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    notes = {
        "steal": re.search(r"\(steal\) during the run: ([0-9.]+)%", out.stderr),
        "unpredicted": re.search(r"unpredicted failures: (\d+)", out.stderr),
    }
    notes = {k: (m.group(1) if m else "?") for k, m in notes.items()}
    notes["mismatches"] = out.stderr.count("MISMATCH")
    notes["wall_s"] = round(wall, 1)
    return json.loads(out.stdout.strip().splitlines()[-1]), notes


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--save", help="append each run's result to this file")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = False
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r, notes = run_once(workload, seed, args.seconds)
            results.append(r)
            if args.save:
                with open(args.save, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "result": r, "notes": notes}) + "\n")
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"unpredicted={notes['unpredicted']} mismatches={notes['mismatches']} "
                  f"host_steal={notes['steal']}% wall={notes['wall_s']}s", flush=True)
            bad |= not r["correct"]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: failed share per run {sorted(shares)} "
              f"({'same in every run' if len(shares) == 1 else 'DIFFERS'})")
        bad |= len(shares) != 1
        print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            gated = name != "setup_s"
            verdict = "ok" if spread < bound / 3 else ("wide" if gated else "-")
            bad |= gated and spread >= bound
            print(f"{name:<16} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>8.3f} {bound:>6.2f} {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
