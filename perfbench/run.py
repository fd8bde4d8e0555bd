#!/usr/bin/env python3
"""Build and run the tsc3d end-to-end flow benchmark.

Usage (from the root of a tsc3d checkout):

    python3 perfbench/run.py --workload tsc_n100 --seed 1 --seconds 20 --trace 0

Workloads: tsc_n100, pa_n1000, campaign_mix.  --trace 0 runs the untraced
pass and reports the end-to-end metrics; --trace 1 runs the traced pass
and reports the per-layer metrics.  --tiny shrinks every workload to a
smoke budget (used by test_perfbench.py).

The benchmark is built from the checkout's sources (Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; build output
goes to stderr.  Each run works in a private directory under work/ that
is deleted afterwards; traced runs leave their spans in traces/.  All
human-readable lines go to stdout, and the last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Exits non-zero, without a result line, when the sources are
missing, the build fails, or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("tsc_n100", "pa_n1000", "campaign_mix")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build() -> Path:
    """Configure (once) and build the benchmark; returns the binary path."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt"):
        if not (ROOT / needed).is_file():
            raise RuntimeError(f"tsc3d source file {needed} not found under {ROOT}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    binary = out / "tsc3d_perfbench"
    if not binary.is_file():
        raise RuntimeError(f"build produced no {binary}")
    return binary


def parse_result(line: str) -> dict:
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result line has the wrong keys")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke budget: fewer designs, moves and scenarios")
    args = ap.parse_args()

    try:
        binary = build()
    except (RuntimeError, subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    # A private scratch directory per process, so concurrent runs never
    # share a campaign queue; the trace file outlives it in traces/.
    work = build_dir() / "work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        traces = build_dir() / "traces"
        for trace in work.glob("trace-*.json"):
            traces.mkdir(parents=True, exist_ok=True)
            trace.replace(traces / trace.name)
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: run failed (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 4
    try:
        parse_result(lines[-1])
    except ValueError as e:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"perfbench: bad result line: {e}", file=sys.stderr)
        return 5
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
