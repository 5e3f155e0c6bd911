#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. It builds the library and the benchmark from
source into .bench_build/ (Release), generates the workload's inputs from the
seed in a process of their own, runs the measuring process, forwards its
output and deletes the inputs. The last line of stdout is the result JSON.
Build output goes to stderr. Any failure exits non-zero without a result.
"""
import argparse
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def build(targets):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    *targets], check=True, stdout=sys.stderr)


def run(cmd, timeout, capture=False):
    """Runs cmd, killing it on timeout; returns (returncode, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else
                            sys.stderr, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s",
              file=sys.stderr)
        return 1, ""
    return proc.returncode, out or ""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not re.fullmatch(r"[a-z0-9_]+",
                                              args.workload or ""):
        ap.error("--workload needs a workload name")

    try:
        build(["perfbench_selftest"] if args.selftest else ["perfbench_e2e"])
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    if args.selftest:
        code, _ = run([str(BUILD / "perfbench_selftest"),
                       str(ROOT / "BENCHMARK.json")], RUN_TIMEOUT_S)
        return code

    binary = str(BUILD / "perfbench_e2e")
    data_dir = ROOT / ".bench_build" / "runs" / f"{args.workload}-{os.getpid()}"
    trace_dir = ROOT / ".bench_build" / "traces"
    data_dir.mkdir(parents=True, exist_ok=True)
    trace_dir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--data_dir", str(data_dir)]
    try:
        code, _ = run([binary, "--generate", *common], RUN_TIMEOUT_S)
        if code != 0:
            return code or 1
        code, out = run([binary, *common, "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--trace_out",
                         str(trace_dir / f"{args.workload}.json")],
                        RUN_TIMEOUT_S, capture=True)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    if code != 0:
        return code
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
