#!/usr/bin/env python3
"""Compares two Google Benchmark JSON outputs; fails on regression.

Used by CI's observability job to assert that the default build (tracing
compiled in, but off: every instrumentation point is a null-tracer branch)
does not regress the operator microbenchmarks against a
-DHTQO_DISABLE_TRACING=ON build, where the instrumentation does not exist.

Matching benchmarks are compared by the "_median" aggregate when present
(run both sides with --benchmark_repetitions; the median shrugs off a
single repetition inflated by scheduler noise or CPU steal, which skews
the mean), falling back to "_mean", then to the raw real_time. The
verdict is the geometric mean ratio across all common benchmarks —
single-benchmark jitter does not fail the gate, a systematic slowdown
does.

  tools/compare_bench.py baseline.json candidate.json --max-regress 0.05

A second, single-file mode gates *within* one result file: --pair
BASE:CAND matches rows "BASE/<arg>" against "CAND/<arg>" and requires the
geomean speedup (base time / candidate time) to reach --min-speedup. CI
uses this on bench_plan_cache output, where the cold and warm planning
paths are rows of the same run — machine-speed differences cancel out:

  tools/compare_bench.py plan_cache.json --pair PlanCold:PlanWarm \\
      --min-speedup 5

--pair is repeatable; all matched pairs feed one combined geomean, so a
gate over several workloads passes or fails in a single verdict:

  tools/compare_bench.py BENCH_sharded.json \\
      --pair Unsharded:ShardS1 --min-speedup 0.98

--filter PREFIX restricts the two-file comparison to benchmarks whose
name starts with PREFIX (e.g. only the PlanNoCache rows when checking the
cache-off path against the committed seed numbers).

A third, single-file mode reads parallel scaling off a shard/thread sweep:
--scaling PREFIX groups rows "PREFIX<N>/<q>" by workload <q> and reports,
for every lane count N against the smallest lane count in the file, the
speedup and the parallel efficiency E(N) = (t(N0) * N0) / (t(N) * N),
plus the per-N geomean efficiency across workloads. CI's sharded job uses
this on bench_sharded output, where rows are ShardS1/<q>..ShardS8/<q>:

  tools/compare_bench.py BENCH_sharded.json --scaling ShardS

--min-efficiency FLOOR turns the report into a gate: the geomean
efficiency at every swept lane count must reach the floor.
"""

import argparse
import json
import math
import re
import sys


def load_times(path):
    with open(path) as f:
        doc = json.load(f)
    raw, means, medians = {}, {}, {}
    for b in doc.get("benchmarks", []):
        name = b["name"]
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[name.removesuffix("_median")] = b["real_time"]
            elif b.get("aggregate_name") == "mean":
                means[name.removesuffix("_mean")] = b["real_time"]
        else:
            # First repetition wins; good enough when aggregates exist.
            raw.setdefault(name, b["real_time"])
    return medians or means or raw


def run_pair(times, pair_specs, min_speedup):
    """Within-file gate: rows BASE/<arg> vs CAND/<arg> of one result set.

    Accepts several BASE:CAND specs (repeated --pair flags); the verdict is
    one geomean over every matched pair, so a multi-pair gate passes or
    fails as a whole.
    """
    pairs = []
    for pair in pair_specs:
        base_prefix, _, cand_prefix = pair.partition(":")
        if not base_prefix or not cand_prefix:
            print(f"error: --pair wants BASE:CAND, got {pair!r}")
            return 1
        matched = 0
        for name, base_time in sorted(times.items()):
            if name != base_prefix and not name.startswith(base_prefix + "/"):
                continue
            counterpart = cand_prefix + name[len(base_prefix):]
            if counterpart in times:
                pairs.append((name, counterpart, base_time,
                              times[counterpart]))
                matched += 1
        if matched == 0:
            print(f"error: no {base_prefix}/{cand_prefix} row pairs found")
            return 1

    log_sum = 0.0
    for base_name, cand_name, base_time, cand_time in pairs:
        speedup = base_time / cand_time if cand_time > 0 else float("inf")
        log_sum += math.log(speedup)
        print(f"{base_name} -> {cand_name}: {base_time:.0f} -> "
              f"{cand_time:.0f} ns (x{speedup:.2f} faster)")
    geomean = math.exp(log_sum / len(pairs))
    print(f"\ngeomean speedup over {len(pairs)} pairs: {geomean:.2f}x "
          f"(required {min_speedup:.2f}x)")
    if geomean < min_speedup:
        print("FAIL: speedup below the required floor")
        return 1
    print("ok")
    return 0


def run_scaling(times, prefix, min_efficiency):
    """Single-file scaling report: rows PREFIX<N>/<q> swept over N.

    The baseline for each workload <q> is its smallest swept lane count
    (normally PREFIX1). Efficiency compares work-per-lane: a run that is
    2x faster on 4x the lanes scores E = 0.5.
    """
    pattern = re.compile(r"^" + re.escape(prefix) + r"(\d+)[/_](.+)$")
    sweeps = {}  # suffix -> {N: time}
    for name, time in times.items():
        m = pattern.match(name)
        if m:
            sweeps.setdefault(m.group(2), {})[int(m.group(1))] = time
    sweeps = {q: by_n for q, by_n in sweeps.items() if len(by_n) >= 2}
    if not sweeps:
        print(f"error: no {prefix}<N> sweep rows found")
        return 1

    eff_logs = {}  # N -> [log efficiency per workload]
    for suffix in sorted(sweeps):
        by_n = sweeps[suffix]
        base_n = min(by_n)
        base_time = by_n[base_n]
        print(f"{suffix} (baseline {prefix}{base_n}: {base_time:.0f} ns)")
        for n in sorted(by_n):
            if n == base_n:
                continue
            speedup = base_time / by_n[n] if by_n[n] > 0 else float("inf")
            eff = speedup * base_n / n
            eff_logs.setdefault(n, []).append(math.log(eff))
            print(f"  {prefix}{n}: {by_n[n]:.0f} ns  x{speedup:.2f} faster, "
                  f"efficiency {eff:.2f}")

    failed = False
    for n in sorted(eff_logs):
        geomean = math.exp(sum(eff_logs[n]) / len(eff_logs[n]))
        verdict = ""
        if min_efficiency is not None and geomean < min_efficiency:
            verdict = f"  FAIL (< {min_efficiency:.2f})"
            failed = True
        print(f"\ngeomean efficiency at {prefix}{n}: {geomean:.2f} over "
              f"{len(eff_logs[n])} workload(s){verdict}")
    if failed:
        print("FAIL: parallel efficiency below the required floor")
        return 1
    print("ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="benchmark JSON (or the only file "
                        "in --pair mode)")
    parser.add_argument("candidate", nargs="?", default=None,
                        help="candidate benchmark JSON (two-file mode)")
    parser.add_argument("--max-regress", type=float, default=0.05,
                        help="allowed geomean slowdown (0.05 = 5%%)")
    parser.add_argument("--pair", action="append", default=None,
                        metavar="BASE:CAND",
                        help="single-file mode: compare BASE/<arg> rows "
                        "against CAND/<arg> rows of `baseline`; repeatable, "
                        "the gate is the geomean over all matched pairs")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="required geomean speedup in --pair mode")
    parser.add_argument("--filter", default=None, metavar="PREFIX",
                        help="two-file mode: only compare benchmarks whose "
                        "name starts with PREFIX")
    parser.add_argument("--scaling", default=None, metavar="PREFIX",
                        help="single-file mode: parallel-efficiency report "
                        "over rows PREFIX<N>/<workload> against the "
                        "smallest swept N")
    parser.add_argument("--min-efficiency", type=float, default=None,
                        help="in --scaling mode, required geomean parallel "
                        "efficiency at every swept lane count")
    args = parser.parse_args()

    if args.scaling:
        if args.candidate is not None or args.pair:
            print("error: --scaling takes a single result file and no --pair")
            return 1
        return run_scaling(load_times(args.baseline), args.scaling,
                           args.min_efficiency)
    if args.pair:
        if args.candidate is not None:
            print("error: --pair takes a single result file")
            return 1
        return run_pair(load_times(args.baseline), args.pair,
                        args.min_speedup)
    if args.candidate is None:
        print("error: two-file mode needs a candidate JSON")
        return 1

    base = load_times(args.baseline)
    cand = load_times(args.candidate)
    common = sorted(set(base) & set(cand))
    if args.filter:
        common = [n for n in common if n.startswith(args.filter)]
    if not common:
        print("error: no common benchmarks between the two files")
        return 1

    log_sum = 0.0
    for name in common:
        ratio = cand[name] / base[name] if base[name] > 0 else 1.0
        log_sum += math.log(ratio)
        flag = "  <-- slower" if ratio > 1 + args.max_regress else ""
        print(f"{name}: {base[name]:.0f} -> {cand[name]:.0f} ns "
              f"(x{ratio:.3f}){flag}")
    geomean = math.exp(log_sum / len(common))
    print(f"\ngeomean ratio over {len(common)} benchmarks: {geomean:.4f} "
          f"(limit {1 + args.max_regress:.2f})")
    if geomean > 1 + args.max_regress:
        print("FAIL: candidate regresses past the allowed margin")
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
