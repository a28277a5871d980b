#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json several times, one seed per run, and
prints for each end-to-end metric the median and the spread (third minus
first quartile of statistics.quantiles(values, n=4), as a share of the
median) next to the metric's bound: the table in README.md, and the check
the benchmark's driver makes.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...]
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    # Workloads alternate, as the driver's runs may: a slow spell of the host
    # then touches every workload, not all ten runs of one.
    for run in range(args.runs):
        for workload in workloads:
            command = spec["command"] + [
                "--workload", workload, "--seed", str(args.first_seed + run),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(done.stdout.splitlines()[-1]) if done.stdout else {}
            if done.returncode != 0 or not result.get("correct") or result.get("failed"):
                sys.exit(f"{' '.join(command)} failed:\n{done.stdout}{done.stderr}")
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            print(f"run {run + 1}/{args.runs} {workload} done", file=sys.stderr)
    print("| workload | metric | median | IQR ÷ median | bound | min | max |")
    print("|---|---|---|---|---|---|---|")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            v = values[workload][metric["name"]]
            median = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            print(
                f"| `{workload}` | `{metric['name']}` | {median:.6g} | "
                f"{100 * (q3 - q1) / median:.2f} % | {100 * metric['bound']:.0f} % | "
                f"{min(v):.6g} | {max(v):.6g} |"
            )


if __name__ == "__main__":
    main()
