#!/usr/bin/env python3
"""Runs one workload of the htqo repository benchmark (README.md here).

    python3 perfbench/run.py --workload tpch_exec --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check --seed 1

Run from the repository root. Builds perfbench/ (which compiles ../src) in
Release mode under $CARGO_TARGET_DIR (default .bench_build), then starts
htqo_perfbench in fresh processes: with --trace 0, set-up-only runs and one
measured run, reporting the median set-up time over all of them; with
--trace 1, one traced run. Prints every metric with its unit, then one JSON
line {"correct", "attempted", "failed", "metrics"} as the last line. Exits
non-zero on a wrong result or any failure.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {
    "setup_s": "s",
    "qps": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "p99_ms": "ms",
    "ok_frac": "ratio",
    "slo_ok_frac": "ratio",
    "cpu_ms_per_query": "ms",
    "peak_rss_mb": "MB",
}
# Set-up repetitions per measured run, in fresh processes (median reported).
# server_mixed's set-up is ~0.1 s, so it takes more repetitions.
SETUP_RUNS = {"server_mixed": 7}
DEFAULT_SETUP_RUNS = 3
CHILD_TIMEOUT_S = 150  # one htqo_perfbench process
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no htqo sources next to {HERE.name}/ (expected ../src)")
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "htqo_perfbench", "-j", jobs],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log, "w") as f:
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                      timeout=max(1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log}")
            if proc.returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed; see {log}")
    binary = out / "htqo_perfbench"
    if not binary.is_file():
        fail("build produced no htqo_perfbench")
    return binary


def run_child(cmd):
    """Runs one benchmark process to completion; returns its last JSON line."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd[1:3])} timed out after {CHILD_TIMEOUT_S}s")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"no output (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        fail(f"unparsable output (exit {proc.returncode})")
    if proc.returncode != 0 and result.get("correct", False):
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"exit {proc.returncode}")
    return result


def commit_id():
    """The git commit when ROOT is a git checkout, else a digest of src/."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and \
                Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="check the generators: same seed, same inputs")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if args.self_check:
        proc = subprocess.run([str(binary), "--self-check", "--seed",
                               str(args.seed)], timeout=CHILD_TIMEOUT_S)
        sys.exit(proc.returncode)
    if not args.workload:
        fail("--workload is required")

    work = out / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    base = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--work-dir", str(work)]

    def spawn(extra):
        return run_child(base + extra + ["--spawn-ns", str(time.monotonic_ns())])

    setup_times = []
    if args.trace == 0:
        for _ in range(SETUP_RUNS.get(args.workload, DEFAULT_SETUP_RUNS) - 1):
            setup_times.append(spawn(["--setup-only"])["setup_s"])
    result = spawn([])

    if args.trace == 0:
        setup_times.append(result["metrics"]["setup_s"])
        raw = dict(result["metrics"], setup_s=statistics.median(setup_times))
        metrics = {name: {"value": raw[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        metrics = result["metrics"]

    provenance = dict(result.get("provenance", {}),
                      commit=commit_id(), workload=args.workload,
                      trace=args.trace, host=platform.node(),
                      setup_runs_s=setup_times,
                      latency_samples=result.get("samples"),
                      slo_ms=result.get("slo_ms"))
    record = {"provenance": provenance, "error": result.get("error", ""),
              "correct": bool(result["correct"]),
              "attempted": int(result["attempted"]),
              "failed": int(result["failed"]), "metrics": metrics}
    results_dir = out / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    print("provenance: " + json.dumps(provenance))
    if record["error"]:
        print(("error: " if not record["correct"] else "first failure: ")
              + record["error"])
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: record[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if record["correct"] else 1)


if __name__ == "__main__":
    main()
