#!/usr/bin/env bash
# Tier-1 gate: build + test, plain and sanitized.
#
#   tools/check.sh          # plain RelWithDebInfo build + ctest
#   tools/check.sh --asan   # additionally build with -DHTQO_SANITIZE=ON
#                           # (ASan+UBSan) in build-asan/ and rerun ctest
#   tools/check.sh --tsan   # additionally build with -DHTQO_SANITIZE=thread
#                           # in build-tsan/ and run the concurrency suites
#   tools/check.sh --chaos  # ASan+UBSan build, then the chaos sweep and the
#                           # spill/fault suites under injection: every fault
#                           # site x {always, p=0.05} x {1, 4} threads
#   tools/check.sh --adaptive
#                           # adaptive re-optimization gate: the feedback /
#                           # replan / drift suites under ASan+UBSan, then
#                           # bench_adaptive on the plain build, emitting
#                           # BENCH_adaptive.json and requiring >=1.5x
#                           # geomean of feedback-on over feedback-off under
#                           # drift plus a self-correcting plan cache
#   tools/check.sh --sharded
#                           # sharded-evaluation gate: the shard partition /
#                           # exchange / equivalence suites under ASan+UBSan,
#                           # then bench_sharded on the plain build, emitting
#                           # BENCH_sharded.json, requiring S=1 within ~2% of
#                           # unsharded and the Bloom exchange >=10x under
#                           # the row-broadcast baseline on every row; the
#                           # S=4 >=1.5x scale-out gate runs when the host
#                           # has >=4 CPUs (it needs real lanes)
#   tools/check.sh --server # query-server smoke: start htqo_server, run the
#                           # htqo_client load-test sweep (4/16/64 clients,
#                           # mixed tenants, chaos disconnects), assert the
#                           # shed/drain metrics on the Prometheus endpoint,
#                           # SIGTERM-drain, and emit BENCH_server.json; then
#                           # repeat the smoke + server/admission suites
#                           # under ASan and TSan
#   tools/check.sh --all    # plain + ASan + TSan + chaos + adaptive +
#                           # sharded + server
#
# The sanitized passes are what give the fault-injection sweep and the
# parallel engine their teeth: an injected failure that leaks, touches
# freed memory, or races between worker lanes fails here even when the
# plain run looks green.

set -euo pipefail
cd "$(dirname "$0")/.."

run_suite() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j"$(nproc)"
  ctest --test-dir "$dir" --output-on-failure -j"$(nproc)"
}

# A sanitizer run that silently built without instrumentation proves
# nothing; require the cache to record the value the flag asked for.
require_sanitize() {
  local dir="$1" want="$2"
  if ! grep -q "^HTQO_SANITIZE:STRING=${want}\$" "$dir/CMakeCache.txt"; then
    echo "error: $dir was configured without HTQO_SANITIZE=${want};" \
         "the sanitized pass would silently run uninstrumented" >&2
    exit 1
  fi
}

# Query-server smoke against the binaries in $1: start the daemon (with the
# observability plane armed: tracing, per-tenant SLOs, flight recorder),
# sweep it with concurrent clients (including the mid-query disconnector),
# assert the admission/drain metrics plus the per-tenant series, scrape the
# /debug endpoints, validate a stitched client+server trace, then SIGTERM
# and require a clean exit-0 drain.
# $2 (optional) names a BENCH_server.json to emit from the sweep.
server_smoke() {
  local dir="$1" bench_json="${2:-}"
  local log trace_dir
  log="$(mktemp)"
  trace_dir="$(mktemp -d)"
  "$dir/examples/htqo_server" --load tpch 0.002 --metrics-port 0 \
    --max-concurrent 2 --queue-depth 4 --drain-deadline 5 \
    --trace-dir "$trace_dir" --slo-p99 250 --slo-budget 0.05 \
    --flight-capacity 256 >"$log" 2>&1 &
  local server_pid=$!
  local port=""
  for _ in $(seq 1 300); do
    port="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$log")"
    [[ -n "$port" ]] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
      echo "error: htqo_server died during startup:" >&2
      cat "$log" >&2
      return 1
    fi
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "error: htqo_server never reported its port" >&2
    cat "$log" >&2
    kill -KILL "$server_pid" 2>/dev/null || true
    return 1
  fi

  local sweep_args=(--port "$port" --loadtest --clients 4,16,64 --queries 5
                    --trace-dir "$trace_dir")
  [[ -n "$bench_json" ]] && sweep_args+=(--json "$bench_json")
  "$dir/examples/htqo_client" "${sweep_args[@]}"

  # The metrics endpoint must expose the admission counters, the sweep must
  # have admitted work, and the overloaded levels must have exercised the
  # queue (shed or queued — 64 clients against 2 slots guarantees one).
  local metrics
  metrics="$("$dir/examples/htqo_client" --port "$port" --metrics)"
  local admitted queued shed
  admitted="$(awk '$1=="htqo_admission_admitted_total"{print $2}' <<<"$metrics")"
  queued="$(awk '$1=="htqo_admission_queued_total"{print $2}' <<<"$metrics")"
  shed="$(awk '$1=="htqo_admission_shed_total"{print $2}' <<<"$metrics")"
  grep -q '^htqo_server_queries_total ' <<<"$metrics"
  grep -q '^htqo_admission_queue_timeout_total ' <<<"$metrics"
  if [[ -z "$admitted" || "$admitted" -eq 0 ]]; then
    echo "error: server admitted nothing during the sweep" >&2
    return 1
  fi
  if [[ "${queued:-0}" -eq 0 && "${shed:-0}" -eq 0 ]]; then
    echo "error: 64 clients on 2 slots neither queued nor shed" >&2
    return 1
  fi

  # Observability plane (DESIGN.md §6i): per-tenant labeled series with SLO
  # burn-rate gauges, a populated slow log behind the DEBUG verb, and a
  # client-initiated trace whose per-process halves stitch.
  grep -q 'htqo_tenant_queries_total{tenant="t0"}' <<<"$metrics"
  grep -q 'htqo_tenant_queries_total{tenant="t1"}' <<<"$metrics"
  grep -q 'htqo_tenant_slo_burn_rate{tenant="t0"}' <<<"$metrics"
  grep -q '^htqo_flight_records_total ' <<<"$metrics"
  local slow_json
  slow_json="$("$dir/examples/htqo_client" --port "$port" --debug slow --n 5)"
  python3 -c 'import json,sys
d = json.loads(sys.stdin.read())
assert d["records"], "slow log empty after the sweep"' <<<"$slow_json"
  local stitch
  stitch="$(python3 - "$trace_dir" <<'EOF'
import collections, glob, os, sys
groups = collections.defaultdict(set)
for f in glob.glob(os.path.join(sys.argv[1], "trace_*_*.json")):
    groups[os.path.basename(f).split("_")[1]].add(f)
for hexid, files in sorted(groups.items()):
    if len(files) >= 2:
        print(" ".join(sorted(files)))
        break
EOF
)"
  if [[ -z "$stitch" ]]; then
    echo "error: no stitched client+server trace pair in $trace_dir" >&2
    return 1
  fi
  # shellcheck disable=SC2086
  "$(dirname "$0")/validate_trace.py" $stitch --stitch \
    --require client.query,client.attempt,query,execute

  # Graceful drain: SIGTERM must exit 0 within the drain deadline (+ grace).
  kill -TERM "$server_pid"
  local waited=0 rc=""
  while kill -0 "$server_pid" 2>/dev/null; do
    if (( waited >= 150 )); then
      echo "error: server did not drain within 15s of SIGTERM" >&2
      kill -KILL "$server_pid" 2>/dev/null || true
      return 1
    fi
    sleep 0.1
    waited=$((waited + 1))
  done
  wait "$server_pid" && rc=0 || rc=$?
  if [[ "$rc" -ne 0 ]]; then
    echo "error: server exited $rc after SIGTERM (want 0):" >&2
    cat "$log" >&2
    return 1
  fi
  grep -q '^drained:' "$log"
  rm -f "$log"
  rm -rf "$trace_dir"
}

want_asan=false
want_tsan=false
want_chaos=false
want_server=false
want_adaptive=false
want_sharded=false
case "${1:-}" in
  "") ;;
  --asan) want_asan=true ;;
  --tsan) want_tsan=true ;;
  --chaos) want_chaos=true ;;
  --server) want_server=true ;;
  --adaptive) want_adaptive=true ;;
  --sharded) want_sharded=true ;;
  --all)
    want_asan=true; want_tsan=true; want_chaos=true; want_server=true
    want_adaptive=true; want_sharded=true
    ;;
  *)
    echo "error: unknown flag '${1}' (expected --asan, --tsan, --chaos," \
         "--server, --adaptive, --sharded, or --all)" >&2
    exit 2
    ;;
esac

echo "==> plain build"
run_suite build

if $want_asan; then
  echo "==> sanitized build (ASan+UBSan)"
  cmake -B build-asan -S . -DHTQO_SANITIZE=ON
  require_sanitize build-asan ON
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1}" \
    run_suite build-asan -DHTQO_SANITIZE=ON
fi

if $want_chaos; then
  # The chaos sweep under ASan+UBSan: fault injection at every registered
  # site, spilling forced so the spill.* sites are reached (joins, DISTINCT
  # and grouped aggregation), asserting typed failures and never a wrong
  # answer. Reuses build-asan/.
  echo "==> chaos sweep (ASan+UBSan + fault injection)"
  cmake -B build-asan -S . -DHTQO_SANITIZE=ON
  require_sanitize build-asan ON
  cmake --build build-asan -j"$(nproc)"
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir build-asan --output-on-failure -j"$(nproc)" \
      -R 'Chaos|Spill|Fault|ValueCodec|Server|Admission|Pipeline'
fi

if $want_tsan; then
  # TSan over the tests that actually exercise the thread pool, the atomic
  # governor/meter counters, and the parallel kernels: the parallel
  # equivalence suite, the governor suite, the fault-injection sweep, the
  # suites that drive the bag-program executor on more than one lane, and
  # the cardinality estimate the parallel search reads from pool lanes.
  # CI's `tsan` job runs the same regex.
  echo "==> sanitized build (TSan)"
  cmake -B build-tsan -S . -DHTQO_SANITIZE=thread
  require_sanitize build-tsan thread
  cmake --build build-tsan -j"$(nproc)"
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" \
      -R 'Parallel|Threading|ThreadPool|Governor|ExecContext|Fault|Server|Admission|Shard|Oracle|Pipeline|AdaptiveReplan|QhdEval|Yannakakis|ClassicHd|Estimate'
fi

if $want_adaptive; then
  # The adaptive loop's acceptance bar (DESIGN.md §6h): the feedback /
  # replan / drift / spill-corruption suites under ASan+UBSan — replanned
  # queries byte-identical to their never-replanned twins at 1/2/4 threads,
  # fault sites failing soft — then bench_adaptive on the optimized build.
  # The gate: feedback-on beats feedback-off by >=1.5x geomean under drift,
  # and the plan cache proves epoch-driven self-correction (stale-miss ->
  # hit) with nonzero counters in the JSON.
  echo "==> adaptive suites (ASan+UBSan)"
  cmake -B build-asan -S . -DHTQO_SANITIZE=ON
  require_sanitize build-asan ON
  cmake --build build-asan -j"$(nproc)"
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir build-asan --output-on-failure -j"$(nproc)" \
      -R 'Feedback|Replan|Adaptive|Chaos|Spill'

  echo "==> adaptive drift gate"
  cmake --build build -j"$(nproc)" --target bench_adaptive
  ./build/bench/bench_adaptive \
    --benchmark_format=json --benchmark_repetitions=3 \
    > BENCH_adaptive.json
  tools/compare_bench.py BENCH_adaptive.json \
    --pair AdaptiveFeedbackOff:AdaptiveFeedbackOn \
    --min-speedup 1.5
  python3 - <<'EOF'
import json

with open("BENCH_adaptive.json") as f:
    data = json.load(f)

stale = hits = None
for b in data["benchmarks"]:
    if b["name"].startswith("AdaptivePlanCacheDrift") and \
       "plan_cache_stale_misses" in b:
        stale = b["plan_cache_stale_misses"]
        hits = b.get("plan_cache_hits", 0)
        break
if not stale or not hits:
    raise SystemExit(
        "plan cache never self-corrected under drift: "
        f"stale_misses={stale} hits={hits}")
print(f"plan cache self-correction: {stale:.0f} stale-miss(es), "
      f"{hits:.0f} hit(s) after epoch bumps")
EOF
fi

if $want_sharded; then
  # The sharded-evaluation acceptance bar (DESIGN.md §6j): the shard
  # partition/exchange/equivalence suites under ASan+UBSan — byte-identical
  # output and meter-identical charges across S in {1,2,4,8} x threads x
  # spill, plus the shard.partition / shard.exchange chaos sites — then
  # bench_sharded on the optimized build. Gates: the S=1 sharded path stays
  # within ~2% of the unsharded engine, and the Bloom exchange ships >=10x
  # less than the row-broadcast baseline on every sharded row. The S=4
  # scale-out floor (>=1.5x geomean over S=1) needs real lanes, so it only
  # runs on hosts with >=4 CPUs (CI's sharded job always gates it).
  echo "==> shard suites (ASan+UBSan)"
  cmake -B build-asan -S . -DHTQO_SANITIZE=ON
  require_sanitize build-asan ON
  cmake --build build-asan -j"$(nproc)"
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir build-asan --output-on-failure -j"$(nproc)" \
      -R 'Shard|Chaos|Equivalence'

  echo "==> sharded scale-out gate"
  cmake --build build -j"$(nproc)" --target bench_sharded
  ./build/bench/bench_sharded \
    --benchmark_format=json --benchmark_repetitions=3 \
    > BENCH_sharded.json
  tools/compare_bench.py BENCH_sharded.json \
    --pair Unsharded:ShardS1 --min-speedup 0.98
  if [[ "$(nproc)" -ge 4 ]]; then
    tools/compare_bench.py BENCH_sharded.json \
      --pair ShardS1:ShardS4 --min-speedup 1.5
  else
    echo "note: $(nproc) CPU(s) — skipping the S=4 scale-out floor" \
         "(shard lanes cannot run in parallel here)"
  fi
  tools/compare_bench.py BENCH_sharded.json --scaling ShardS
  python3 - <<'EOF'
import json

with open("BENCH_sharded.json") as f:
    data = json.load(f)

checked = 0
for b in data["benchmarks"]:
    if b.get("run_type") == "aggregate" or "shard_filter_bytes" not in b:
        continue
    shipped = b["shard_filter_bytes"] + b.get("shard_key_bytes", 0)
    rows = b["shard_row_ship_bytes"]
    if shipped <= 0 or rows < 10 * shipped:
        raise SystemExit(f"{b['name']}: exchange shipped {shipped:.0f} B "
                         f"vs row baseline {rows:.0f} B (< 10x)")
    checked += 1
if checked == 0:
    raise SystemExit("no sharded rows with exchange counters")
print(f"bloom exchange >=10x under row shipping on {checked} rows")
EOF
fi

if $want_server; then
  # The acceptance bar for the server front end: the load-test sweep (mixed
  # tenants + a client that disconnects mid-query), shed/drain metrics on
  # the Prometheus endpoint, and a SIGTERM drain exiting 0 — plain first
  # (emitting BENCH_server.json), then the same smoke plus the server and
  # admission suites under ASan and under TSan.
  echo "==> server smoke (plain)"
  cmake --build build -j"$(nproc)"
  server_smoke build BENCH_server.json

  echo "==> server smoke + suites (ASan+UBSan)"
  cmake -B build-asan -S . -DHTQO_SANITIZE=ON
  require_sanitize build-asan ON
  cmake --build build-asan -j"$(nproc)"
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir build-asan --output-on-failure -j"$(nproc)" \
      -R 'Server|Admission'
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1}" \
    server_smoke build-asan

  echo "==> server smoke + suites (TSan)"
  cmake -B build-tsan -S . -DHTQO_SANITIZE=thread
  require_sanitize build-tsan thread
  cmake --build build-tsan -j"$(nproc)"
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" \
      -R 'Server|Admission'
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    server_smoke build-tsan
fi

echo "==> all checks passed"
