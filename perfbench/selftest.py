#!/usr/bin/env python3
"""Self-test of the benchmark (about a minute; run from the repo root):

    python3 perfbench/selftest.py

1. Runs every workload at smoke size, timed and traced, and checks the
   result line: exactly the keys correct/attempted/failed/metrics, a passing
   result, and every end-to-end (timed) or per-layer (traced) metric of
   BENCHMARK.json present with its unit. It also checks that the
   workload-specific figures are printed by name and unit.
2. Runs each workload with --corrupt-expected 1, which breaks its gate's
   expected value (an AUC floor no model can reach, a reference score moved
   by one ulp), and checks that the command then exits nonzero: the
   correctness gates run.
3. Runs the command in a directory holding only BENCHMARK.json and the
   benchmark's own files, where it must fail without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Figures each workload prints by name and unit besides its JSON metrics.
REPORTED = {
    "train": ["train_txn_per_s", "infer_batch_ms", "test_auc"],
    "ddp": ["train_txn_per_s", "infer_batch_ms", "test_auc"],
    "serve": ["serve_capacity_rps", "score_p50_ms", "score_p99_ms"],
    "score": ["score_capacity_rps", "score_p50_ms", "score_p90_ms"],
    "ingest": ["ingest_txn_per_s", "score_p50_ms", "score_p99_ms",
               "visible_p50_ms", "visible_p99_ms", "recover_s"],
}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, corrupt=False, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "2",
           "--trace", str(trace), "--smoke", "1",
           "--corrupt-expected", "1" if corrupt else "0"]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().split("\n") if proc.stdout.strip() else []
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # Every workload, including those run by hand only (not in
    # BENCHMARK.json), must keep working.
    for name in sorted(REPORTED):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, stdout = run(name, trace)
            tag = "%s --trace %d" % (name, trace)
            check(code == 0 and result is not None,
                  tag + ": exits 0 with a result")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  tag + ": result has exactly the four keys")
            check(result["correct"] is True and result["failed"] == 0 and
                  result["attempted"] >= 1, tag + ": correct, nothing failed")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = result["metrics"]
            check(set(got) == set(want), tag + ": every %s metric present"
                  % section)
            for metric, unit in want.items():
                m = got.get(metric, {})
                check(m.get("unit") == unit and
                      isinstance(m.get("value"), (int, float)),
                      "%s: %s in %s" % (tag, metric, unit))
            if trace == 0:
                for fig in REPORTED[name]:
                    check(re.search(r"^\s+%s\s+\S+\s+\S+" % re.escape(fig),
                                    stdout, re.M) is not None,
                          "%s: prints %s with its unit" % (tag, fig))

    for name in sorted(REPORTED):
        code, result, _ = run(name, 0, corrupt=True)
        check(code != 0 and result is not None and result["correct"] is False,
              "%s with a broken expected value exits nonzero" % name)

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    code, result, _ = run("train", 0, cwd=bare)
    check(code != 0 and result is None,
          "without the library sources the command fails with no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
