#!/usr/bin/env python3
"""Runs one workload of the xFraud benchmark and prints its result.

Usage (from the repository root):

    python3 perfbench/run.py --workload <train|ddp|serve|score|ingest> \
        --seed N --seconds S --trace <0|1> [--smoke 1] [--corrupt-expected 1]

Builds the library and the benchmark binaries from this checkout's sources
(Release, into .bench_build/perfbench), then runs the timed binary
(--trace 0: end-to-end metrics) or the traced binary (--trace 1: per-layer
metrics). The binary's human-readable lines are passed through; the last
line of stdout is the JSON result. The exit code is the binary's: nonzero
when a correctness gate failed or the sources are missing. --smoke 1 and
--corrupt-expected 1 are for the self-test (selftest.py).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_env():
    """Keeps compiler and program temporaries inside the checkout."""
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources at %s; run from a full checkout" %
            os.path.join(ROOT, "src"))
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=build_env()) != 0:
            log("cmake configure failed")
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       env=build_env()) != 0:
        log("build failed")
        return False
    return True


def run_binary(binary, args, work_dir):
    """Runs the binary in its own process group; kills the whole group (the
    forked shard servers and ranks included) if it overruns."""
    proc = subprocess.Popen([binary] + args, cwd=work_dir, env=build_env(),
                            stdout=subprocess.PIPE, start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("benchmark overran %d s and was killed" % RUN_TIMEOUT_S)
        return 124, ""
    finally:
        # Reap anything left in the group (a crashed run's children).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["train", "ddp", "serve", "score", "ingest"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--smoke", default="0", choices=["0", "1"])
    parser.add_argument("--corrupt-expected", default="0", choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        return 2
    binary = os.path.join(
        BUILD_DIR, "perfbench_traced" if args.trace == "1" else "perfbench")
    work_dir = os.path.join(BUILD_ROOT, "work",
                            "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", repr(args.seconds), "--trace", args.trace,
                  "--smoke", args.smoke,
                  "--corrupt-expected", args.corrupt_expected]
    code, out = run_binary(binary, bench_args, work_dir)

    spans = os.path.join(work_dir, "spans-%s.jsonl" % args.workload)
    if os.path.isfile(spans):
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        shutil.move(spans, os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed)))
    shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n") if out else []
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None:
        log("the benchmark printed no result (exit %d)" % code)
        return code if code != 0 else 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
