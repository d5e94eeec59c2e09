#include "server/session.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <optional>

#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/server.h"
#include "stats/feedback.h"

namespace htqo {

namespace {

// Poll slice for the frame loop: short enough that drain requests and idle
// timeouts are noticed promptly, long enough to stay out of the way.
constexpr int kPollSliceMs = 200;

std::string FormatMs(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", seconds * 1e3);
  return buf;
}

}  // namespace

Session::Session(QueryServer* server, int fd, uint64_t id)
    : server_(server), fd_(fd), id_(id) {}

Session::StatsView Session::Stats() const {
  StatsView v;
  v.id = id_;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    v.tenant = tenant_;
  }
  v.in_flight = query_in_flight_.load(std::memory_order_relaxed);
  v.queries = queries_served_.load(std::memory_order_relaxed);
  v.errors = query_errors_.load(std::memory_order_relaxed);
  v.last_record_id = last_record_id_.load(std::memory_order_relaxed);
  return v;
}

Session::~Session() {
  if (fd_ >= 0) ::close(fd_);
}

void Session::Cancel() {
  cancel_.store(true, std::memory_order_relaxed);
  drain_requested_.store(true, std::memory_order_relaxed);
  // Half-close unblocks a session parked in poll(); the frame loop then
  // reads EOF and exits through its normal cleanup.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Session::SendOrDrop(const Frame& frame) {
  // A failed response write (peer vanished, server.write fault) ends the
  // session on the next loop iteration; the write itself must not.
  Status s = WriteFrame(fd_, frame);
  if (!s.ok()) {
    MetricsRegistry::Global()
        .GetCounter(kMetricServerProtocolErrorsTotal)
        ->Increment();
    drain_requested_.store(true, std::memory_order_relaxed);
  }
}

void Session::Run() {
  using Clock = std::chrono::steady_clock;
  auto last_activity = Clock::now();
  const double idle_limit = server_->options().idle_timeout_seconds;
  while (!drain_requested_.load(std::memory_order_relaxed)) {
    Frame frame;
    Status s = ReadFrame(fd_, &carry_, &frame, kPollSliceMs);
    if (s.code() == StatusCode::kDeadlineExceeded) {
      // Poll slice elapsed without a complete frame: check idle + drain.
      if (idle_limit > 0 &&
          std::chrono::duration<double>(Clock::now() - last_activity)
                  .count() > idle_limit) {
        SendOrDrop(MakeErrFrame(
            Status::DeadlineExceeded("session idle timeout")));
        break;
      }
      continue;
    }
    if (s.code() == StatusCode::kNotFound) break;  // clean EOF
    if (!s.ok()) {
      MetricsRegistry::Global()
          .GetCounter(kMetricServerProtocolErrorsTotal)
          ->Increment();
      if (s.code() == StatusCode::kInvalidArgument) {
        SendOrDrop(MakeErrFrame(s));
      }
      break;
    }
    last_activity = Clock::now();
    if (!HandleFrame(frame)) break;
  }
  // Finished, then half-close at once: a blocked peer sees EOF now, and a
  // peer that saw it and reconnects finds this session reapable.
  finished_.store(true, std::memory_order_release);
  ::shutdown(fd_, SHUT_RDWR);
}

bool Session::HandleFrame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      std::string tenant(frame.GetString("tenant"));
      if (tenant.empty()) {
        SendOrDrop(MakeErrFrame(
            Status::InvalidArgument("HELLO requires tenant=<name>")));
        return false;
      }
      {
        std::lock_guard<std::mutex> lock(meta_mu_);
        tenant_ = std::move(tenant);
      }
      // Resolve the per-tenant labeled series once (DESIGN.md §6i); the
      // per-query path then touches only pointer-stable handles.
      MetricsRegistry& reg = MetricsRegistry::Global();
      m_queries_ =
          reg.GetCounter(TenantMetricName(kMetricTenantQueriesTotal, tenant_));
      m_errors_ =
          reg.GetCounter(TenantMetricName(kMetricTenantErrorsTotal, tenant_));
      m_latency_us_ = reg.GetHistogram(
          TenantMetricName(kMetricTenantQueryLatencyUs, tenant_));
      m_spill_bytes_ = reg.GetCounter(
          TenantMetricName(kMetricTenantSpillBytesTotal, tenant_));
      m_cache_hits_ = reg.GetCounter(
          TenantMetricName(kMetricTenantPlanCacheHitsTotal, tenant_));
      m_cache_misses_ = reg.GetCounter(
          TenantMetricName(kMetricTenantPlanCacheMissesTotal, tenant_));
      m_replans_ =
          reg.GetCounter(TenantMetricName(kMetricTenantReplansTotal, tenant_));
      Frame ok = MakeOkFrame("");
      ok.fields["session"] = std::to_string(id_);
      SendOrDrop(ok);
      return true;
    }
    case FrameType::kPing:
      SendOrDrop(MakeOkFrame(""));
      return true;
    case FrameType::kMetrics:
      SendOrDrop(MakeOkFrame(MetricsRegistry::Global().PrometheusText()));
      return true;
    case FrameType::kDebug: {
      MetricsRegistry::Global()
          .GetCounter(kMetricDebugRequestsTotal)
          ->Increment();
      std::string what(frame.GetString("what"));
      std::string json =
          server_->DebugJson(what, frame.GetUint("id"), frame.GetUint("n"));
      if (json.empty()) {
        SendOrDrop(MakeErrFrame(Status::InvalidArgument(
            "DEBUG what=" + what +
            ": unknown target (want sessions|queues|cache|slow|record|"
            "build)")));
        return true;
      }
      SendOrDrop(MakeOkFrame(std::move(json)));
      return true;
    }
    case FrameType::kQuery:
      HandleQuery(frame);
      return true;
    case FrameType::kQuit:
      {
        Frame bye;
        bye.type = FrameType::kBye;
        SendOrDrop(bye);
      }
      return false;
    default:
      SendOrDrop(MakeErrFrame(Status::InvalidArgument(
          std::string("unexpected frame type ") + FrameTypeName(frame.type))));
      return false;
  }
}

void Session::HandleQuery(const Frame& frame) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics.GetCounter(kMetricServerQueriesTotal)->Increment();
  const auto started = std::chrono::steady_clock::now();
  if (tenant_.empty()) {
    SendOrDrop(MakeErrFrame(
        Status::InvalidArgument("QUERY before HELLO: no tenant bound")));
    return;
  }
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  if (m_queries_ != nullptr) m_queries_->Increment();
  // Wire trace context (DESIGN.md §6i): a client-sent trace_id/parent_span
  // makes this query's spans stitch under the client's span. Tracing is
  // armed whenever the server has a trace directory OR the client sent
  // context; the export decision happens after the run.
  const ServerOptions& sopts = server_->options();
  const TraceId remote_trace = TraceId::FromHex(frame.GetString("trace_id"));
  std::string remote_parent(frame.GetString("parent_span"));
  const bool trace_armed = !sopts.trace_dir.empty() || remote_trace.valid();
  // Per-query deadline: the frame's deadline_ms, else the server default;
  // an explicit deadline_ms=0 means "no deadline" (trusted clients only).
  double deadline_seconds = server_->options().default_deadline_seconds;
  if (frame.fields.count("deadline_ms") > 0) {
    deadline_seconds =
        static_cast<double>(frame.GetUint("deadline_ms")) / 1e3;
  }
  const auto deadline =
      deadline_seconds > 0
          ? started + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(deadline_seconds))
          : std::chrono::steady_clock::time_point::max();

  query_in_flight_.store(true, std::memory_order_relaxed);
  auto admitted =
      server_->admission().Acquire(tenant_, deadline);
  if (!admitted.ok()) {
    query_in_flight_.store(false, std::memory_order_relaxed);
    query_errors_.fetch_add(1, std::memory_order_relaxed);
    if (m_errors_ != nullptr) m_errors_->Increment();
    // A shed or queue-timeout burns the tenant's error budget: from the
    // client's side the query failed, whatever the reason.
    const double shed_elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    server_->slo().Record(tenant_, shed_elapsed * 1e3, /*ok=*/false);
    uint64_t retry_after =
        admitted.status().code() == StatusCode::kResourceExhausted
            ? server_->admission().RetryAfterMs()
            : 0;
    SendOrDrop(MakeErrFrame(admitted.status(), retry_after));
    return;
  }
  AdmissionTicket ticket = std::move(admitted.value());
  const AdmissionGrant& grant = ticket.grant();

  RunOptions opts = server_->options().run_template;
  opts.cancel_flag = &cancel_;
  opts.search_node_budget =
      std::min(opts.search_node_budget, grant.node_budget);
  opts.memory_budget_bytes =
      std::min(opts.memory_budget_bytes, grant.memory_budget_bytes);
  if (grant.force_spill &&
      opts.memory_budget_bytes != std::numeric_limits<std::size_t>::max()) {
    opts.enable_spill = true;
  }
  if (deadline != std::chrono::steady_clock::time_point::max()) {
    // Budget what's left after the queue, floored so the run can at least
    // start (its own first checkpoint will trip if the floor was charity).
    opts.deadline_seconds = std::max(
        1e-3, std::chrono::duration<double>(
                  deadline - std::chrono::steady_clock::now())
                  .count());
  } else {
    opts.deadline_seconds = 0;
  }

  // Adaptive feedback loop (DESIGN.md §6h). When enabled, the query runs
  // traced under a shared statistics lock; after a success, the trace is
  // reconciled against the registry under the exclusive lock — a drifted
  // relation's statistics are re-analyzed in place, its stats epoch bumps,
  // and the next query (any session) plans informed. Queries that don't
  // resolve to a single CQ (nested FROM subqueries) run the plain path:
  // they can't be trace-mined, and correctness never depends on feedback.
  const bool feedback = server_->feedback_enabled();
  Tracer tracer;
  if (trace_armed) {
    tracer.SetTraceId(remote_trace.valid() ? remote_trace
                                           : TraceId::Random());
    if (!remote_parent.empty()) {
      tracer.SetRemoteParent(std::move(remote_parent));
    }
    opts.trace.tracer = &tracer;
  }
  std::optional<ResolvedQuery> resolved;
  double resolve_seconds = 0;
  if (feedback) {
    const auto resolve_start = std::chrono::steady_clock::now();
    auto rq = server_->optimizer().Resolve(frame.payload, opts.tid_mode);
    resolve_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - resolve_start)
                          .count();
    if (rq.ok()) {
      resolved = std::move(rq.value());
      opts.trace.tracer = &tracer;
    }
  }
  Result<QueryRun> run = Status::Internal("query never ran");
  {
    std::shared_lock<std::shared_mutex> stats_lock(server_->stats_mu_,
                                                   std::defer_lock);
    if (feedback) stats_lock.lock();
    run = resolved.has_value()
              ? server_->optimizer().RunResolved(*resolved, opts)
              : server_->optimizer().Run(frame.payload, opts);
  }
  std::size_t feedback_refreshed = 0;
  if (run.ok() && resolved.has_value()) {
    std::unique_lock<std::shared_mutex> stats_lock(server_->stats_mu_);
    FeedbackCollector collector(&server_->optimizer().catalog(),
                                server_->mutable_stats_);
    feedback_refreshed =
        collector.Reconcile(*resolved, tracer).refreshed.size();
  }
  query_in_flight_.store(false, std::memory_order_relaxed);
  ticket.Release();  // frees the slot before the (possibly slow) write

  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - started)
                             .count();
  metrics.GetHistogram(kMetricServerQueryLatencyUs)
      ->Record(static_cast<uint64_t>(elapsed * 1e6));
  // Per-tenant mirrors + SLO accounting.
  if (m_latency_us_ != nullptr) {
    m_latency_us_->Record(static_cast<uint64_t>(elapsed * 1e6));
  }
  if (!run.ok()) {
    query_errors_.fetch_add(1, std::memory_order_relaxed);
    if (m_errors_ != nullptr) m_errors_->Increment();
  } else {
    if (m_spill_bytes_ != nullptr && run->spill.bytes_written > 0) {
      m_spill_bytes_->Add(run->spill.bytes_written);
    }
    if (m_replans_ != nullptr && run->replans > 0) {
      m_replans_->Add(run->replans);
    }
    if (run->plan_cache == "hit" || run->plan_cache == "shared-hit") {
      if (m_cache_hits_ != nullptr) m_cache_hits_->Increment();
    } else if (run->plan_cache == "miss" ||
               run->plan_cache == "stale-miss") {
      if (m_cache_misses_ != nullptr) m_cache_misses_->Increment();
    }
  }
  server_->slo().Record(tenant_, elapsed * 1e3, run.ok());

  // Trace export decision, made now that the outcome is known: the
  // stitching case (client sent context) always exports, head sampling is
  // deterministic on the trace id (client and server agree), and slow or
  // errored queries are tail-captured.
  bool trace_exported = false;
  if (trace_armed && !sopts.trace_dir.empty()) {
    const TraceId tid = tracer.trace_id();
    bool head_sampled = false;
    if (sopts.trace_sample_rate > 0) {
      const uint64_t bucket = (tid.hi ^ tid.lo) % 10000;
      head_sampled =
          bucket < static_cast<uint64_t>(sopts.trace_sample_rate * 10000.0);
    }
    const bool slow =
        sopts.trace_slow_ms > 0 && elapsed * 1e3 >= sopts.trace_slow_ms;
    if (remote_trace.valid() || head_sampled || slow || !run.ok()) {
      const std::string path = sopts.trace_dir + "/trace_" + tid.ToHex() +
                               "_" + std::to_string(::getpid()) + ".json";
      if (tracer.WriteChromeTrace(path).ok()) {
        trace_exported = true;
        metrics.GetCounter(kMetricTracesExportedTotal)->Increment();
      }
    }
    if (tracer.dropped_spans() > 0) {
      metrics.GetCounter(kMetricTraceDroppedSpansTotal)
          ->Add(tracer.dropped_spans());
    }
  }

  // Flight record: one POD per completed query, success or failure.
  FlightRecord rec;
  rec.SetTenant(tenant_);
  if (trace_armed) rec.SetTraceIdHex(tracer.trace_id().ToHex());
  rec.fingerprint = QueryShapeFingerprint(frame.payload);
  rec.status = static_cast<int32_t>(run.ok() ? StatusCode::kOk
                                             : run.status().code());
  rec.queue_us = static_cast<uint64_t>(grant.queue_wait.count());
  rec.admission_level = grant.degrade_level;
  rec.total_us = static_cast<uint64_t>(elapsed * 1e6);
  rec.sampled_trace = trace_exported ? 1 : 0;
  if (run.ok()) {
    rec.rows = run->output.NumRows();
    rec.width = static_cast<uint32_t>(run->decomposition_width);
    rec.degradations = static_cast<uint32_t>(run->degradations.size());
    rec.replans = static_cast<uint32_t>(run->replans);
    rec.spill_bytes = run->spill.bytes_written;
    // The feedback path parses inside Resolve(); the plain path inside
    // Run(). Either way the parse phase lands in the record.
    const double parse_seconds =
        resolved.has_value() ? resolve_seconds : run->parse_seconds;
    rec.parse_us = static_cast<uint64_t>(parse_seconds * 1e6);
    rec.plan_us = static_cast<uint64_t>(run->plan_seconds * 1e6);
    rec.exec_us = static_cast<uint64_t>(run->exec_seconds * 1e6);
  }
  const uint64_t record_id = FlightRecorder::Global().Record(rec);
  last_record_id_.store(record_id, std::memory_order_relaxed);
  metrics.GetCounter(kMetricFlightRecordsTotal)->Increment();

  if (!run.ok()) {
    SendOrDrop(MakeErrFrame(run.status()));
    return;
  }
  Frame ok = MakeOkFrame(
      run->output.ToString(server_->options().max_result_rows));
  ok.fields["record"] = std::to_string(record_id);
  ok.fields["rows"] = std::to_string(run->output.NumRows());
  ok.fields["queued_us"] = std::to_string(grant.queue_wait.count());
  ok.fields["plan_ms"] = FormatMs(run->plan_seconds);
  ok.fields["exec_ms"] = FormatMs(run->exec_seconds);
  if (!run->degradations.empty()) {
    ok.fields["degraded"] = std::to_string(run->degradations.size());
  }
  if (grant.degrade_level > 0) {
    ok.fields["admission_level"] = std::to_string(grant.degrade_level);
  }
  if (run->replans > 0) {
    ok.fields["replans"] = std::to_string(run->replans);
  }
  if (feedback_refreshed > 0) {
    ok.fields["feedback_refreshed"] = std::to_string(feedback_refreshed);
  }
  SendOrDrop(ok);
}

}  // namespace htqo
