#!/usr/bin/env python3
"""Runs workloads over several seeds and summarizes each metric's spread.

    python3 perfbench/spread.py --workloads train,serve --seeds 1-10 \
        [--seconds 10] [--trace 0] [--out runs.json]
    python3 perfbench/spread.py --compare parent.json change.json

The first form calls run.py once per (workload, seed) and prints, per
metric, the median, the quartiles (statistics.quantiles(values, n=4)) and
the spread (Q3 - Q1) / median, next to the metric's bound from
BENCHMARK.json. The workload-specific figures a run prints (test_auc,
visible_p99_ms, recover_s, ...) are summarized too, without a bound.
--out saves every run's values. The second form compares two saved files
metric by metric: the change's median against the parent's, flagged when
it is worse by more than the bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPORT_LINE = re.compile(r"^  (\S+)\s+(\S+) \S+$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1]) if lines and lines[-1] else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        raise SystemExit("run failed: %s seed %d (exit %d)" %
                         (workload, seed, proc.returncode))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # The workload-specific figures printed as "  <name> <value> <unit>".
    for line in lines[:-1]:
        m = REPORT_LINE.match(line)
        if m:
            values.setdefault(m.group(1), float(m.group(2)))
    return values


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def worse(metric, parent, change):
    """Share by which `change` is worse than `parent` (positive = worse)."""
    if metric.get("better") == "higher":
        return (parent - change) / parent
    return (change - parent) / parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default="")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args()
    spec, metrics = load_spec()

    if args.compare:
        with open(args.compare[0]) as f:
            parent = json.load(f)
        with open(args.compare[1]) as f:
            change = json.load(f)
        for workload in sorted(set(parent) & set(change)):
            for name in sorted(parent[workload]):
                if name not in change[workload]:
                    continue
                p_med = statistics.median(parent[workload][name])
                c_med = statistics.median(change[workload][name])
                m = metrics.get(name, {})
                delta = worse(m, p_med, c_med) if p_med else 0.0
                bound = m.get("bound")
                flag = ("REGRESSION" if bound is not None and delta > bound
                        else "")
                print("%-8s %-32s parent %12.6g change %12.6g worse %+7.2f%% %s"
                      % (workload, name, p_med, c_med, 100 * delta, flag))
        return 0

    seconds = args.seconds or spec["run_seconds"]
    runs = {}
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            for name, v in run_once(workload, seed, seconds,
                                    args.trace).items():
                values.setdefault(name, []).append(v)
        runs[workload] = values
        for name, vals in values.items():
            med, q1, q3 = summarize(vals) if len(vals) > 1 else (
                vals[0], vals[0], vals[0])
            bound = metrics.get(name, {}).get("bound")
            spread = (q3 - q1) / med if med else float("inf")
            print("%-8s %-32s n=%d median %12.6g q1 %12.6g q3 %12.6g "
                  "spread %6.3f bound %s" % (workload, name, len(vals), med,
                                             q1, q3, spread, bound))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
