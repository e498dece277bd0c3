#!/usr/bin/env python3
"""Steadiness check: run one workload K times in two interleaved sets.

    python3 golfbench/steady.py --workload heap --runs 10 [--seconds S]

Runs are untraced and run i (counting from 0) uses seed i + 1; it goes
to set A (even i) or set B (odd i). For every end-to-end metric the
table gives the median and quartiles of all runs, the spread
(Q3 - Q1) / median, and the difference between the two sets' medians.
Both are judged against the metric's bound in BENCHMARK.json: the
spread of all runs must stay within the bound, and so must the
set-vs-set difference in the worse direction. The table also shows each
set's own spread. Raw results go
to .bench_build/steady/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr[-2000:])
        raise SystemExit(f"run failed: workload={workload} seed={seed}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    results = []
    for i in range(args.runs):
        res = run_once(args.workload, i + 1, seconds)
        results.append(res)
        print(f"run {i} seed {i + 1}: correct={res['correct']}"
              f" attempted={res['attempted']} failed={res['failed']}",
              flush=True)

    out_dir = os.path.join(ROOT, ".bench_build", "steady")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}.json"),
              "w") as f:
        json.dump(results, f, indent=1)

    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    names = list(results[0]["metrics"])
    print(f"\n{'metric':32} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>7} {'A-spread':>8} {'B-spread':>8} {'B/A-1':>7}"
          f" {'bound':>6}")
    for name in names:
        vals = [r["metrics"][name]["value"] for r in results]
        a, b = vals[0::2], vals[1::2]
        q1, q2, q3 = quartiles(vals)
        med_a, med_b = statistics.median(a), statistics.median(b)
        diff = (med_b - med_a) / med_a if med_a else 0.0
        line = (f"{name:32} {q2:12.6g} {q1:12.6g} {q3:12.6g}"
                f" {spread(vals):7.3f} {spread(a):8.3f} {spread(b):8.3f}"
                f" {diff:+7.3f}")
        m = bounds[name]
        bound = m["bound"]
        worse = diff if m["better"] == "lower" else -diff
        verdict = "ok"
        if spread(vals) > bound:
            verdict = "SPREAD"
            ok = False
        elif worse > bound:
            verdict = "DRIFT"
            ok = False
        elif spread(vals) > bound / 3:
            verdict = "ok(>1/3)"
        line += f" {bound:6.3f} {verdict}"
        print(line)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
