#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the benchmark once per seed on each named workload and prints, for
every end-to-end metric, the median, the first and third quartiles and the
spread: the distance between the quartiles as a share of the median, as
Python's statistics.quantiles(values, n=4) gives them.

    python3 perfbench/steady.py --seeds 1-10 --seconds 20 route crowd service

Run it from the repository root. Runs that fail a correctness check still
count here; their result line says so, and the summary counts them and the
runs that exited with a status other than 0.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("workloads", nargs="+")
    args = ap.parse_args()
    for w in args.workloads:
        values, failed, nonzero = {}, 0, 0
        for seed in seeds(args.seeds):
            cmd = ["bash", "perfbench/run.sh", "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                sys.exit(f"{w} seed {seed}: no result (exit {proc.returncode}): {proc.stderr[-500:]}")
            res = json.loads(lines[-1])
            failed += res["failed"] > 0
            nonzero += proc.returncode != 0
            print(f"{w} seed {seed}: exit {proc.returncode} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
                  flush=True)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"{w}: {failed} of {len(seeds(args.seeds))} runs had a failed operation, "
              f"{nonzero} exited non-zero")
        for k, vs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vs, n=4)
            print(f"  {k:22s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {(q3 - q1) / med:.4f}")


if __name__ == "__main__":
    main()
