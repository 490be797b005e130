#!/usr/bin/env python3
"""End-to-end benchmark of examples/serve_daemon.

Builds the library, serve_daemon and the benchmark program from this
checkout (into .bench_build/), then runs one workload:

    python3 perfbench/run.py --workload cold-zoo --seed 1 --seconds 40 --trace 0

The last stdout line is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).

    python3 perfbench/run.py --all [--seed N] [--seconds S]
        every workload, one table row per workload (end-to-end metrics)
    python3 perfbench/run.py --self-test
        the benchmark's own unit tests

See perfbench/METRICS.md for what each metric means.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("cold-zoo", "warm-lookup", "mixed-churn")
JOBS = "4"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(targets):
    """Configures once, then builds the targets; output goes to stderr."""
    if not (BUILD / "Makefile").exists():
        BUILD.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", JOBS, "--target", *targets],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


DAEMON = BUILD / "cuasmrl" / "examples" / "serve_daemon"


def run_workload(workload, seed, seconds, trace, spans=None):
    """Runs one workload; returns (exit code, stdout text)."""
    work = ROOT / ".bench_build" / "work" / f"{workload}-{os.getpid()}"
    cmd = [str(BUILD / "perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--daemon", str(DAEMON), "--work-dir", str(work)]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, proc.stdout


def print_table(rows):
    names = []
    for _, result in rows:
        for name in result["metrics"]:
            if name not in names:
                names.append(name)
    header = ["workload", "correct", "failed/attempted"] + [
        f"{n} [{rows[0][1]['metrics'][n]['unit']}]" for n in names]
    lines = [header]
    for workload, result in rows:
        lines.append([workload, str(result["correct"]),
                      f"{result['failed']}/{result['attempted']}"] +
                     [f"{result['metrics'][n]['value']:.6g}" for n in names])
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    for line in lines:
        print("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced run's spans (JSONL)")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    try:
        if args.self_test:
            build(["perfbench_selftest"])
            return subprocess.run([str(BUILD / "perfbench_selftest")]).returncode
        build(["perfbench", "serve_daemon"])
    except subprocess.CalledProcessError as err:
        log(f"perfbench: build failed: {err}")
        return 1

    if args.all:
        rows = []
        for workload in WORKLOADS:
            code, out = run_workload(workload, args.seed, args.seconds, False)
            if code != 0 or not out.strip():
                log(f"perfbench: {workload} failed (exit {code})")
                return 1
            rows.append((workload, json.loads(out.strip().splitlines()[-1])))
        print_table(rows)
        return 0 if all(r["correct"] and r["failed"] == 0
                        for _, r in rows) else 1

    if not args.workload:
        ap.error("--workload is required (or --all / --self-test)")
    code, out = run_workload(args.workload, args.seed, args.seconds,
                             args.trace == 1, args.spans)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
