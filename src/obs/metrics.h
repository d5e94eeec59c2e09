// Process-wide metrics: named monotonic counters, gauges, and log-scale
// histograms.
//
// MetricsRegistry::Global() is the process singleton the pipeline records
// into (per-query latencies, rows, spill bytes, governor trips). Lookup by
// name takes a mutex, so hot paths resolve a metric once and keep the
// pointer; Counter::Add, Gauge::Set, and Histogram::Record are then
// lock-free atomics, safe from pool workers. Metric objects live for the
// process — pointers never dangle and a registry is never "reset",
// consumers diff snapshots instead (MetricsSnapshot::DeltaSince), which is
// how bench_common scopes per-case histograms out of process-cumulative
// state.
//
// Labeled families (DESIGN.md §6i): a metric name may carry a Prometheus
// label block — `htqo_tenant_queries_total{tenant="t0"}` — built with
// LabeledMetricName()/TenantMetricName(). Each labeled series is its own
// registry entry (own stable pointer, own lock-free hot path); the
// exposition groups series by family so `# TYPE` is emitted once per
// family and histogram buckets merge `le` into the label block. Label
// cardinality is the caller's contract: tenants are the only unbounded
// dimension and are bounded by admission's tenant set.
//
// Histograms use log2 buckets: value v lands in bucket bit_width(v), i.e.
// bucket b covers [2^(b-1), 2^b). 65 buckets cover the full uint64 range in
// ~flat 520 bytes per histogram; percentile estimates take the upper edge
// of the bucket where the cumulative count crosses the rank, which is
// within 2x of the true value — plenty for latency distributions.
//
// Metric names follow prometheus conventions (htqo_<noun>_<unit/total>);
// the set used by the pipeline is part of the stable contract in
// DESIGN.md §6d. PrometheusText() emits the text exposition format —
// including the synthetic `htqo_build_info` gauge (version/git sha/
// sanitizer labels) and process start-time/uptime gauges; WritePrometheus()
// goes through the `metrics.export` fault site and returns a Status the
// caller degrades to a warning.

#ifndef HTQO_OBS_METRICS_H_
#define HTQO_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace htqo {

class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<uint64_t> value_{0};
};

// Settable instantaneous value (burn rates, queue depths, build info).
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  // Bucket b counts values in [2^(b-1), 2^b); bucket 0 counts zeros.
  static constexpr int kNumBuckets = 65;

  explicit Histogram(std::string name) : name_(std::move(name)) {}

  void Record(uint64_t value);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

  std::array<uint64_t, kNumBuckets> BucketCounts() const;

 private:
  std::string name_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

// Builds `family{k1="v1",k2="v2"}`; label values are escaped (\, ", \n).
// With no labels, returns the family name unchanged.
std::string LabeledMetricName(
    std::string_view family,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels);
// The common single-label case: `family{tenant="<tenant>"}`.
std::string TenantMetricName(std::string_view family, std::string_view tenant);

// Point-in-time copy of every metric, detached from the live registry.
struct MetricsSnapshot {
  struct HistogramData {
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    std::array<uint64_t, Histogram::kNumBuckets> buckets{};

    double Mean() const;
    // Upper edge of the bucket where the cumulative count reaches
    // `q * count` (q in [0,1]); 0 when empty.
    uint64_t Percentile(double q) const;
  };

  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  // This snapshot minus `base` (counters/buckets that shrank clamp to 0;
  // metrics absent from `base` pass through whole). Scopes an interval of
  // activity out of process-cumulative metrics. Gauges are instantaneous,
  // not cumulative: they copy through unchanged.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& base) const;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // Name lookup, creating on first use. The returned pointer is stable for
  // the life of the registry — resolve once, record lock-free after.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  // Prometheus text exposition format: counters as `# TYPE ... counter`,
  // gauges as `# TYPE ... gauge`, histograms as `_count`/`_sum` plus
  // cumulative `_bucket{le="..."}` lines. Series of one labeled family are
  // emitted contiguously under a single TYPE line. Appends the synthetic
  // build-info / start-time / uptime gauges (Build*String()).
  std::string PrometheusText() const;
  // Writes PrometheusText() to `path` through the `metrics.export` fault
  // site. Failure is the exporter's, never the query's: callers warn.
  Status WritePrometheus(const std::string& path) const;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  mutable std::mutex mu_;  // guards the maps, not the metric objects
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// Build identity baked in by CMake (HTQO_VERSION / HTQO_GIT_SHA /
// HTQO_SANITIZE_TAG compile definitions; "unknown"/"none" fallbacks).
const char* BuildVersionString();
const char* BuildGitShaString();
const char* BuildSanitizerString();
// Unix seconds at process start (captured at static-init of the obs
// library) and seconds elapsed since.
double ProcessStartTimeSeconds();
double ProcessUptimeSeconds();

// The pipeline's metric names (stable contract, DESIGN.md §6d).
inline constexpr const char kMetricQueriesTotal[] = "htqo_queries_total";
inline constexpr const char kMetricPlanLatencyUs[] = "htqo_plan_latency_us";
inline constexpr const char kMetricExecLatencyUs[] = "htqo_exec_latency_us";
inline constexpr const char kMetricRowsPerQuery[] = "htqo_rows_per_query";
inline constexpr const char kMetricSearchNodesPerQuery[] =
    "htqo_search_nodes_per_query";
inline constexpr const char kMetricHashProbesPerQuery[] =
    "htqo_hash_probes_per_query";
inline constexpr const char kMetricSpillEventsTotal[] =
    "htqo_spill_events_total";
inline constexpr const char kMetricSpillBytesWrittenTotal[] =
    "htqo_spill_bytes_written_total";
inline constexpr const char kMetricGovernorTripsTotal[] =
    "htqo_governor_trips_total";
inline constexpr const char kMetricDegradationStepsTotal[] =
    "htqo_degradation_steps_total";
// Decomposition/plan cache (DESIGN.md §6e). hits/misses/stale classify every
// lookup; evictions count LRU victims under the byte budget; singleflight
// waits count callers that blocked on another thread's in-flight compute of
// the same fingerprint. The hit-latency histogram times the full warm path
// (canonicalize + lookup + rebind).
inline constexpr const char kMetricPlanCacheHitsTotal[] =
    "htqo_plan_cache_hits_total";
inline constexpr const char kMetricPlanCacheMissesTotal[] =
    "htqo_plan_cache_misses_total";
inline constexpr const char kMetricPlanCacheEvictionsTotal[] =
    "htqo_plan_cache_evictions_total";
inline constexpr const char kMetricPlanCacheStaleTotal[] =
    "htqo_plan_cache_stale_total";
inline constexpr const char kMetricPlanCacheSingleflightWaitsTotal[] =
    "htqo_plan_cache_singleflight_waits_total";
inline constexpr const char kMetricPlanCacheHitLatencyUs[] =
    "htqo_plan_cache_hit_latency_us";
// Bloom-guarded probes: per-query histogram of chain walks the blocked
// Bloom filter let the join/semijoin kernels skip (next to hash_probes).
inline constexpr const char kMetricBloomSkipsPerQuery[] =
    "htqo_bloom_skips_per_query";
// Columnar batches processed per query by the batch engine (DESIGN.md §6g),
// spill partitions included; 0 for queries that never reach a batched
// operator.
inline constexpr const char kMetricExecBatchesPerQuery[] =
    "htqo_exec_batches_per_query";
// Query server & admission control (DESIGN.md §6f). The admission counters
// classify every QUERY frame exactly once: admitted (ran immediately),
// queued (waited, then ran), shed (rejected: queue full, enqueue fault, or
// drain), or queue-timeout (deadline expired — or provably would expire —
// in the queue). degraded counts admissions granted with shrunk budgets
// (ladder level >= 1). The queue-wait histogram records microseconds spent
// between arrival and admission for every query that eventually ran.
inline constexpr const char kMetricAdmissionAdmittedTotal[] =
    "htqo_admission_admitted_total";
inline constexpr const char kMetricAdmissionQueuedTotal[] =
    "htqo_admission_queued_total";
inline constexpr const char kMetricAdmissionShedTotal[] =
    "htqo_admission_shed_total";
inline constexpr const char kMetricAdmissionQueueTimeoutTotal[] =
    "htqo_admission_queue_timeout_total";
inline constexpr const char kMetricAdmissionDegradedTotal[] =
    "htqo_admission_degraded_total";
inline constexpr const char kMetricAdmissionQueueWaitUs[] =
    "htqo_admission_queue_wait_us";
// Server lifecycle: connections accepted, QUERY frames served end-to-end
// (latency histogram includes queue wait + plan + exec + render), protocol
// errors (malformed frames, oversized payloads, injected socket faults),
// and queries cancelled because the drain deadline expired around them.
inline constexpr const char kMetricServerConnectionsTotal[] =
    "htqo_server_connections_total";
inline constexpr const char kMetricServerQueriesTotal[] =
    "htqo_server_queries_total";
inline constexpr const char kMetricServerQueryLatencyUs[] =
    "htqo_server_query_latency_us";
inline constexpr const char kMetricServerProtocolErrorsTotal[] =
    "htqo_server_protocol_errors_total";
inline constexpr const char kMetricServerDrainCancelledTotal[] =
    "htqo_server_drain_cancelled_total";
// Adaptive re-optimization (DESIGN.md §6h). replans counts mid-query
// re-planning rungs taken; the estimate-error histogram records, per scanned
// atom the feedback loop reconciles, the factor by which the actual
// cardinality diverged from the estimate (max(actual,est)/min(actual,est),
// so 1.0 = perfect and both over- and under-estimates land on the same
// scale). feedback_refreshes counts relations whose statistics were rebuilt
// (each bumping that relation's stats epoch); feedback_skipped counts
// refreshes abandoned because the stats.feedback fault site fired.
inline constexpr const char kMetricReplansTotal[] = "htqo_replans_total";
inline constexpr const char kMetricEstimateErrorFactor[] =
    "htqo_estimate_error_factor";
inline constexpr const char kMetricFeedbackRefreshesTotal[] =
    "htqo_feedback_refreshes_total";
inline constexpr const char kMetricFeedbackSkippedTotal[] =
    "htqo_feedback_skipped_total";
// Per-tenant families (DESIGN.md §6i). Every family below is recorded as a
// labeled series `<family>{tenant="..."}` via TenantMetricName; the session
// resolves the pointers once per connection, so the per-query path stays
// lock-free. Queries/errors/latency classify every QUERY frame the session
// finished; the admission families mirror the global admission counters per
// tenant; spill/plan-cache/replan attribution comes from the QueryRun.
inline constexpr const char kMetricTenantQueriesTotal[] =
    "htqo_tenant_queries_total";
inline constexpr const char kMetricTenantErrorsTotal[] =
    "htqo_tenant_errors_total";
inline constexpr const char kMetricTenantQueryLatencyUs[] =
    "htqo_tenant_query_latency_us";
inline constexpr const char kMetricTenantAdmittedTotal[] =
    "htqo_tenant_admitted_total";
inline constexpr const char kMetricTenantQueuedTotal[] =
    "htqo_tenant_queued_total";
inline constexpr const char kMetricTenantShedTotal[] =
    "htqo_tenant_shed_total";
inline constexpr const char kMetricTenantQueueTimeoutTotal[] =
    "htqo_tenant_queue_timeout_total";
inline constexpr const char kMetricTenantDegradedTotal[] =
    "htqo_tenant_degraded_total";
inline constexpr const char kMetricTenantQueueWaitUs[] =
    "htqo_tenant_queue_wait_us";
inline constexpr const char kMetricTenantSpillBytesTotal[] =
    "htqo_tenant_spill_bytes_total";
inline constexpr const char kMetricTenantPlanCacheHitsTotal[] =
    "htqo_tenant_plan_cache_hits_total";
inline constexpr const char kMetricTenantPlanCacheMissesTotal[] =
    "htqo_tenant_plan_cache_misses_total";
inline constexpr const char kMetricTenantReplansTotal[] =
    "htqo_tenant_replans_total";
// Per-tenant SLOs: target/budget are configuration echoed as gauges so
// dashboards can draw the objective next to the observed burn rate
// (windowed violation rate / error budget; > 1.0 means the tenant is
// burning budget faster than allowed). violations counts every query over
// target p99 or ending in error.
inline constexpr const char kMetricTenantSloTargetP99Ms[] =
    "htqo_tenant_slo_target_p99_ms";
inline constexpr const char kMetricTenantSloErrorBudget[] =
    "htqo_tenant_slo_error_budget";
inline constexpr const char kMetricTenantSloBurnRate[] =
    "htqo_tenant_slo_burn_rate";
inline constexpr const char kMetricTenantSloViolationsTotal[] =
    "htqo_tenant_slo_violations_total";
// Observability plane self-accounting: spans rejected by tracer caps,
// per-query trace files exported (head-sampled or tail-captured), flight
// records written, and DEBUG verb / debug-endpoint requests served.
inline constexpr const char kMetricTraceDroppedSpansTotal[] =
    "htqo_trace_dropped_spans_total";
inline constexpr const char kMetricTracesExportedTotal[] =
    "htqo_traces_exported_total";
inline constexpr const char kMetricFlightRecordsTotal[] =
    "htqo_flight_records_total";
inline constexpr const char kMetricDebugRequestsTotal[] =
    "htqo_debug_requests_total";
// Sharded evaluation (DESIGN.md §6j). queries counts runs that executed
// with a shard runtime attached (num_shards >= 1); exchange bytes split
// what a process-split exchange would put on the wire (Bloom filters vs
// exact key sets) against the row-shipping baseline the same links would
// have broadcast; rows_pruned counts rows dropped by exchange probes.
inline constexpr const char kMetricShardedQueriesTotal[] =
    "htqo_sharded_queries_total";
inline constexpr const char kMetricShardFilterBytesTotal[] =
    "htqo_shard_filter_bytes_total";
inline constexpr const char kMetricShardKeyBytesTotal[] =
    "htqo_shard_key_bytes_total";
inline constexpr const char kMetricShardRowShipBytesTotal[] =
    "htqo_shard_row_ship_bytes_total";
inline constexpr const char kMetricShardRowsPrunedTotal[] =
    "htqo_shard_rows_pruned_total";
inline constexpr const char kMetricShardExchangesPerQuery[] =
    "htqo_shard_exchanges_per_query";
// Build identity / process lifetime (satellite of DESIGN.md §6i); the
// build-info gauge is synthesized in PrometheusText, always 1, with
// version/git_sha/sanitizer labels.
inline constexpr const char kMetricBuildInfo[] = "htqo_build_info";
inline constexpr const char kMetricProcessStartTimeSeconds[] =
    "htqo_process_start_time_seconds";
inline constexpr const char kMetricProcessUptimeSeconds[] =
    "htqo_process_uptime_seconds";

}  // namespace htqo

#endif  // HTQO_OBS_METRICS_H_
