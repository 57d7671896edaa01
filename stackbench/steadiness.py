#!/usr/bin/env python3
"""Steadiness record: run the benchmark on several seeds per workload and
report, for each end-to-end metric, the median, the quartiles and the
quartile spread as a share of the median, against the metric's bound in
BENCHMARK.json. Every metric, setup_s included, is held to a third of its
bound; the exit code is 1 if any spread exceeds that.

Run from the repository root:

    python3 stackbench/steadiness.py --runs 10 --out stackbench/steadiness.json
    python3 stackbench/steadiness.py --workloads dblog-id-fresh --runs 5

Seeds are --first-seed, --first-seed + 1, ...; every run must pass the
correctness gate.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = ["bash", "stackbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    wall = time.time() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    header = json.loads(lines[-2])["header"] if len(lines) > 1 else {}
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correctness gate failed: {header.get('mismatches')}")
    return result, header, wall


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="write the record here as JSON")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"runs": args.runs, "seconds": args.seconds, "first_seed": args.first_seed,
              "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        walls, headers = [], []
        for i in range(args.runs):
            result, header, wall = run_once(workload, args.first_seed + i, args.seconds)
            walls.append(wall)
            headers.append({k: header.get(k) for k in
                            ("seed", "frames", "cpu_steal_share_by_setup_attempt",
                             "cpu_steal_share_by_attempt", "reported_attempt",
                             "setup_phase_median_s", "samples",
                             "percentiles")})
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        print(f"\n{workload}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread <= bounds[name] / 3
            worst = max(worst, spread / bounds[name])
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "within_third_of_bound": ok, "values": vals}
            print(f"  {name:14s} median {med:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}  "
                  f"spread {spread:7.2%}  bound {bounds[name]:.2f} {'ok' if ok else 'WIDE'}")
        # Candidate percentiles (from the run header), to show why a tail
        # metric was chosen or dropped.
        cands = {}
        for series in ("ack", "fresh", "stale"):
            for pct in ("p50", "p75", "p90", "p95", "p99"):
                vals = [h["percentiles"][series][pct] for h in headers]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                cands[f"{series}_{pct}"] = {"median": med, "spread": (q3 - q1) / med}
        print("  candidate percentile spreads: " + ", ".join(
            f"{k} {v['spread']:.1%}" for k, v in cands.items()))
        record["workloads"][workload] = {"metrics": rows, "candidates": cands,
                                         "wall_s": walls, "runs": headers}
    print(f"\nworst spread / bound: {worst:.2f}")
    record["worst_spread_over_bound"] = worst
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    if worst > 1 / 3:
        sys.exit("some spread exceeds a third of its bound")


if __name__ == "__main__":
    main()
