#!/usr/bin/env python3
"""Steadiness check: are two sets of runs of the same code within bounds?

Run from the root of a checkout:

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]

Runs `perfbench/run.py --trace 0` for each workload in two sets of `--runs`
runs, with seeds 1, 2, ... and BENCHMARK.json's `run_seconds`, interleaving
the sets (A B, B A, ...). Prints, for every end-to-end metric of
BENCHMARK.json, each set's median and quartiles, its spread (interquartile
distance over the median), and the move of set B's median against set A's
in the metric's worse direction — each against the metric's bound. A spread
above a third of the bound, or a move above the bound, is flagged, and the
command exits non-zero when a spread exceeds the bound or a move does.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    lines = out.stdout.splitlines()
    diagnostics = json.loads(lines[-2])["diagnostics"] if len(lines) > 1 else {}
    return json.loads(lines[-1]), diagnostics


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        values = [{}, {}]
        for i in range(args.runs):
            seed = 1 + i
            for s in (0, 1) if i % 2 == 0 else (1, 0):
                result, diag = one_run(workload, seed, spec["run_seconds"])
                if not result["correct"]:
                    print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
                    ok = False
                for name, metric in result["metrics"].items():
                    values[s].setdefault(name, []).append(metric["value"])
                walls = diag.get("replay_wall_ms", {})
                print(f"# {workload} set {'AB'[s]} seed {seed}: "
                      f"{diag.get('replays')} replays, wall ms "
                      f"min {walls.get('min')} median {walls.get('median')} max {walls.get('max')}",
                      file=sys.stderr)
        print(f"\n{workload} ({args.runs} runs per set)")
        print(f"  {'metric':16} {'set':3} {'q1':>14} {'median':>14} {'q3':>14} {'spread':>8} "
              f"{'bound':>6}  {'move':>8}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s in (0, 1):
                q1, q2, q3, spread = summary(values[s][name])
                medians.append(q2)
                flag = ""
                if spread > bound / 3:
                    flag = "  SPREAD > bound/3"
                    ok = ok and spread <= bound
                print(f"  {name:16} {'AB'[s]:3} {q1:14.6g} {q2:14.6g} {q3:14.6g} "
                      f"{spread:8.2%} {bound:6.2f}{flag}")
            a, b = medians
            worse = (b - a) if metric["better"] == "lower" else (a - b)
            move = worse / a if a else 0.0
            flag = "  MOVE > bound" if move > bound else ""
            ok = ok and move <= bound
            print(f"  {name:16} B-A {'':>14} {'':>14} {'':>14} {'':>8} {bound:6.2f}  "
                  f"{move:8.2%}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
