#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Reads the command, run length and bounds from BENCHMARK.json, runs one
workload once per seed, and prints for every metric the median and the
distance between the first and third quartiles (Python's
``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound. Run it from the repository root:

    python3 routebench/spread.py --workload ripup_fixed --seeds 1-10
    python3 routebench/spread.py --workload pf_selective --seeds 1-5 --trace 1

Each run's JSON line is appended to ``--log`` (default: none) so two sets
of runs can be compared afterwards.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--seconds", type=int, help="override run_seconds")
    ap.add_argument("--log", help="append each run's JSON line to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    values = {m["name"]: [] for m in metrics}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if args.log:
            with open(args.log, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        status = "ok" if result["correct"] and result["failed"] == 0 else "FAILED"
        print(f"seed {seed}: {status} attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    worst = 0.0
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        if len(v) >= 2 and med:
            q1, _, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / abs(med)
        else:
            share = 0.0
        bound = m.get("bound")
        note = ""
        if bound is not None:
            note = f"bound {bound:.3f}  {'ok' if share <= bound / 3 else 'WIDE'}"
            if m["name"] != "setup_s":
                worst = max(worst, share / bound)
        print(f"{m['name']:<22} median {med:>16.6f} {m['unit']:<6} spread {share:7.4f}  {note}")
    if args.trace == "0":
        print(f"widest spread is {worst:.2f} of its bound")


if __name__ == "__main__":
    main()
