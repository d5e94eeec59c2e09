// The traced run: per-layer metrics measured from outside the library.
//
// An untraced reference pass runs the workload's queries the way the timed
// phase does. A traced pass then repeats exactly those queries, calling
// the entry points one by one under benchmark-owned spans — ParseSelect,
// IsolateConjunctiveQuery, RunResolved (RunStatement for nested queries)
// — with the library's own Tracer handed to the run call, so operator and
// Yannakakis-pass spans nest under the benchmark's. The hypergraph and
// decomposition entry points are timed on the same resolved query after
// the query's span has closed (outside the measured wall time). Each query
// gets its own Tracer, as the shell's EXPLAIN ANALYZE does (the library
// mines a run's whole tracer for plan annotations, so a shared one would
// make every query pay for all earlier spans). Spans stay in memory and are
// written when the run ends, one Chrome trace per line.
#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <thread>

#include "bench.h"
#include "cache/decomp_cache.h"
#include "cq/hypergraph_builder.h"
#include "cq/isolator.h"
#include "decomp/optimize.h"
#include "decomp/qhd.h"
#include "hypergraph/canonical.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/client.h"
#include "sql/parser.h"
#include "util/rng.h"
#include "util/strings.h"

namespace perfbench {

namespace {

// Program span name -> operator kind of exec.op.<kind>_self_ms.
const std::vector<std::pair<std::string, std::string>>& OpKinds() {
  static const std::vector<std::pair<std::string, std::string>> kinds = {
      {"op.scan", "scan"},
      {"op.hash_join", "hash_join"},
      {"op.semijoin", "semijoin"},
      {"op.nl_join", "nl_join"},
      {"op.project", "project"},
      {"op.distinct", "distinct"},
      {"spill.partition", "spill_partition"},
      {"yannakakis.pass", "yannakakis_pass"},
      {"qhd.node", "qhd_node"},
      {"wave", "wave"},
      {"select.output", "select_output"},
      {"execute", "execute"},
  };
  return kinds;
}

uint64_t CounterValue(const char* name) {
  return htqo::MetricsRegistry::Global().GetCounter(name)->value();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Self time of every span: its duration minus the union of its children's
// intervals (clipped to the span).
std::vector<int64_t> SelfTimes(const std::vector<htqo::Span>& spans) {
  std::map<uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const htqo::Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end() || s.duration_ns < 0) continue;
    kids[it->second].emplace_back(s.start_ns, s.start_ns + s.duration_ns);
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = lo + std::max<int64_t>(0, spans[i].duration_ns);
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = -1;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (a > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
      } else {
        cur_hi = std::max(cur_hi, b);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

// Sums of the in-process traced pass, turned into per-query means.
struct InProcessTotals {
  std::size_t queries = 0;
  std::size_t failed = 0;
  std::size_t resolved = 0;  // non-nested queries (the structural timings)
  double wall_s = 0;
  double parse_s = 0;
  double isolate_s = 0;
  double plan_s = 0;
  double exec_s = 0;
  double canonical_s = 0;
  double search_s = 0;
  double optimize_s = 0;
  double search_nodes = 0;
  double work = 0;
  double rows = 0;
  double hash_probes = 0;
  double bloom_skips = 0;
  std::size_t spilled_queries = 0;
  double spill_bytes = 0;
  double spill_partitions = 0;
  std::size_t peak_charged_bytes = 0;
  std::map<std::string, double> op_self_s;
  std::string first_error;
  std::string mismatch;  // first answer that differed from an earlier run
};

// Times the structural entry points on `rq` outside the measured path.
void TimeStructural(const Setup& setup, const htqo::ResolvedQuery& rq,
                    htqo::Tracer* tracer, InProcessTotals* t) {
  std::vector<std::string> labels;
  for (const auto& atom : rq.cq.atoms) {
    labels.push_back(htqo::ToLower(atom.relation));
  }
  const uint64_t hs = tracer->Begin("bench.hypergraph", 0);
  auto t0 = Clock::now();
  htqo::Hypergraph h = htqo::BuildHypergraph(rq.cq);
  htqo::Bitset out_vars = htqo::OutputVarsBitset(rq.cq);
  htqo::CanonicalizeHypergraph(h, out_vars, labels);
  auto t1 = Clock::now();
  tracer->End(hs);
  const uint64_t ss = tracer->Begin("bench.search", 0);
  htqo::Estimator estimator(&setup.stats);
  htqo::StatsDecompositionCostModel model(
      h, htqo::BuildEdgeStats(rq.cq, estimator));
  htqo::QhdOptions qopt;
  qopt.max_width = setup.options.max_width;
  qopt.run_optimize = false;
  auto decomp = htqo::QHypertreeDecomp(h, out_vars, model, qopt);
  auto t2 = Clock::now();
  tracer->End(ss);
  t->canonical_s += SecondsBetween(t0, t1);
  t->search_s += SecondsBetween(t1, t2);
  if (decomp.ok()) {
    const uint64_t os = tracer->Begin("bench.optimize", 0);
    auto t3 = Clock::now();
    htqo::OptimizeDecomposition(h, &decomp->hd);
    t->optimize_s += SecondsBetween(t3, Clock::now());
    tracer->End(os);
  }
  ++t->resolved;
}

// One query through the entry points under benchmark spans.
void TracedQuery(const Setup& setup, std::size_t k, htqo::Tracer* tracer,
                 AnswerLog* answers, InProcessTotals* t) {
  const Query& q = setup.timed[k];
  const htqo::HybridOptimizer optimizer(&setup.catalog, &setup.stats);
  std::optional<htqo::ResolvedQuery> resolved;
  const uint64_t qs = tracer->Begin("bench.query", 0);
  const auto t0 = Clock::now();
  const uint64_t ps = tracer->Begin("bench.parse", qs);
  auto stmt = htqo::ParseSelect(q.sql);
  const auto t1 = Clock::now();
  tracer->End(ps);
  auto t2 = t1;
  htqo::Result<htqo::QueryRun> run = htqo::Status::Internal("not run");
  if (stmt.ok()) {
    if (!q.nested) {
      const uint64_t is = tracer->Begin("bench.isolate", qs);
      htqo::IsolatorOptions iopt;
      iopt.tid_mode = setup.options.tid_mode;
      auto rq = htqo::IsolateConjunctiveQuery(*stmt, setup.catalog, iopt);
      t2 = Clock::now();
      tracer->End(is);
      if (rq.ok()) resolved = std::move(rq.value());
    }
    const uint64_t rs = tracer->Begin("bench.run", qs);
    htqo::RunOptions opts = setup.options;
    opts.trace.tracer = tracer;
    opts.trace.parent = rs;
    if (q.nested) {
      run = optimizer.RunStatement(*stmt, opts);
    } else if (resolved.has_value()) {
      run = optimizer.RunResolved(*resolved, opts);
    }
    tracer->End(rs);
  }
  const auto t3 = Clock::now();
  tracer->End(qs);
  ++t->queries;
  t->wall_s += SecondsBetween(t0, t3);
  t->parse_s += SecondsBetween(t0, t1);
  t->isolate_s += SecondsBetween(t1, t2);
  if (!run.ok()) {
    ++t->failed;
    if (t->first_error.empty()) {
      t->first_error = stmt.ok() ? run.status().message()
                                 : stmt.status().message();
    }
    return;
  }
  if (!answers->Check(k, run->output) && t->mismatch.empty()) {
    t->mismatch = "traced run of query " + std::to_string(k) +
                  " answered differently from its untraced run";
  }
  t->plan_s += run->plan_seconds;
  t->exec_s += run->exec_seconds;
  t->search_nodes += run->governor.search_nodes;
  t->work += run->ctx.work_charged.load();
  t->rows += run->ctx.rows_charged.load();
  t->hash_probes += run->ctx.hash_probes.load();
  t->bloom_skips += run->ctx.bloom_skips.load();
  if (run->spill.spill_events > 0) ++t->spilled_queries;
  t->spill_bytes += run->spill.bytes_written;
  t->spill_partitions += run->spill.partitions;
  t->peak_charged_bytes =
      std::max(t->peak_charged_bytes, run->governor.peak_memory_bytes);
  if (resolved.has_value()) TimeStructural(setup, *resolved, tracer, t);
}

// Operator self times of every program span below a bench.run span.
void CollectOpSelfTimes(const htqo::Tracer& tracer, InProcessTotals* t) {
  const std::vector<htqo::Span> spans = tracer.Snapshot();
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::map<std::string, std::string> kind_of;
  for (const auto& [span, kind] : OpKinds()) kind_of[span] = kind;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto k = kind_of.find(spans[i].name);
    if (k == kind_of.end()) continue;
    // Only spans under a bench.run (not the out-of-path structural calls).
    bool under_run = false;
    for (uint64_t p = spans[i].parent; p != 0;) {
      const htqo::Span& ps = spans[index[p]];
      if (ps.name == "bench.run") {
        under_run = true;
        break;
      }
      p = ps.parent;
    }
    if (under_run) t->op_self_s[k->second] += self[i] * 1e-9;
  }
}

void ReportInProcess(const InProcessTotals& t,
                     std::map<std::string, double>* m) {
  const double n = std::max<std::size_t>(1, t.queries - t.failed);
  const double nr = std::max<std::size_t>(1, t.resolved);
  (*m)["sql.parse_us"] = t.parse_s * 1e6 / n;
  (*m)["cq.isolate_us"] = t.isolate_s * 1e6 / n;
  (*m)["hypergraph.canonical_us"] = t.canonical_s * 1e6 / nr;
  (*m)["decomp.search_ms"] = t.search_s * 1e3 / nr;
  (*m)["decomp.search_nodes"] = t.search_nodes / n;
  (*m)["decomp.optimize_us"] = t.optimize_s * 1e6 / nr;
  (*m)["api.plan_ms"] = t.plan_s * 1e3 / n;
  (*m)["api.exec_ms"] = t.exec_s * 1e3 / n;
  (*m)["api.unattributed_ms"] =
      (t.wall_s - t.parse_s - t.isolate_s - t.plan_s - t.exec_s) * 1e3 / n;
  (*m)["trace.query_wall_ms"] = t.wall_s * 1e3 / n;
  (*m)["exec.work_per_query"] = t.work / n;
  (*m)["exec.ns_per_work"] = Ratio(t.exec_s * 1e9, t.work);
  (*m)["exec.rows_per_query"] = t.rows / n;
  (*m)["exec.bloom_skip_ratio"] = Ratio(t.bloom_skips, t.hash_probes);
  for (const auto& [span, kind] : OpKinds()) {
    auto it = t.op_self_s.find(kind);
    (*m)["exec.op." + kind + "_self_ms"] =
        it == t.op_self_s.end() ? 0 : it->second * 1e3 / n;
  }
  (*m)["spill.query_frac"] = Ratio(t.spilled_queries, n);
  (*m)["spill.bytes_written_per_query"] = t.spill_bytes / n;
  (*m)["spill.partitions_per_query"] = t.spill_partitions / n;
  (*m)["spill.peak_charged_mb"] = t.peak_charged_bytes / (1024.0 * 1024.0);
}

// Untraced reference pass of the in-process workloads: the timed phase's
// call (HybridOptimizer::Run) for up to `seconds`. Returns the count.
std::size_t UntracedPass(const Setup& setup, double seconds, double* wall_s,
                         std::size_t* failed, AnswerLog* answers) {
  const htqo::HybridOptimizer optimizer(&setup.catalog, &setup.stats);
  const bool distinct = setup.workload == "cyclic_plan";
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  std::size_t i = 0;
  for (; Clock::now() < end; ++i) {
    if (distinct && i == setup.timed.size()) break;
    const auto t0 = Clock::now();
    const std::size_t k = i % setup.timed.size();
    auto run = optimizer.Run(setup.timed[k].sql, setup.options);
    *wall_s += SecondsBetween(t0, Clock::now());
    if (!run.ok()) {
      ++*failed;
    } else {
      answers->Check(k, run->output);
    }
  }
  return i;
}

struct ClientTotals {
  std::size_t queries = 0;
  std::size_t failed = 0;
  double wall_s = 0;
  double rtt_s = 0;
  double queued_us = 0;
  double plan_ms = 0;
  double exec_ms = 0;
  std::string first_error;
};

// One server pass: every client runs `counts[c]` queries of its seeded
// template stream (counts empty: as many as fit in `seconds`, recorded).
ClientTotals ServerPass(const Setup& setup, double seconds,
                        std::vector<std::size_t>* counts,
                        htqo::Tracer* tracer) {
  const bool by_time = counts->empty();
  if (by_time) counts->assign(setup.clients, 0);
  std::vector<ClientTotals> per(setup.clients);
  std::vector<std::thread> threads;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  for (std::size_t c = 0; c < setup.clients; ++c) {
    threads.emplace_back([&, c] {
      ClientTotals& t = per[c];
      htqo::ClientOptions co;
      co.port = setup.server->port();
      co.tenant = setup.tenants[c % setup.tenants.size()];
      co.max_retries = 0;
      htqo::Client client(co);
      if (!client.Connect().ok()) {
        t.first_error = "connect failed";
        ++t.failed;
        return;
      }
      htqo::Rng rng(setup.seed * 7919 + c + 1);
      const auto start = Clock::now();
      for (std::size_t i = 0; by_time ? Clock::now() < end : i < (*counts)[c];
           ++i) {
        const std::string& sql =
            setup.timed[rng.Uniform(setup.timed.size())].sql;
        const uint64_t span =
            tracer != nullptr ? tracer->Begin("bench.client_query", 0) : 0;
        const auto t0 = Clock::now();
        auto reply = client.Query(sql, /*deadline_ms=*/5000);
        const double rtt = SecondsBetween(t0, Clock::now());
        if (tracer != nullptr) tracer->End(span);
        ++t.queries;
        if (by_time) ++(*counts)[c];
        if (!reply.ok()) {
          ++t.failed;
          if (t.first_error.empty()) t.first_error = reply.status().message();
          continue;
        }
        t.rtt_s += rtt;
        t.queued_us += reply->queued_us;
        t.plan_ms += reply->plan_ms;
        t.exec_ms += reply->exec_ms;
      }
      t.wall_s = SecondsBetween(start, Clock::now());
    });
  }
  for (std::thread& t : threads) t.join();
  ClientTotals sum;
  for (const ClientTotals& t : per) {
    sum.queries += t.queries;
    sum.failed += t.failed;
    sum.wall_s += t.wall_s;
    sum.rtt_s += t.rtt_s;
    sum.queued_us += t.queued_us;
    sum.plan_ms += t.plan_ms;
    sum.exec_ms += t.exec_ms;
    if (sum.first_error.empty()) sum.first_error = t.first_error;
  }
  return sum;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"sql.parse_us", "us"},
        {"cq.isolate_us", "us"},
        {"hypergraph.canonical_us", "us"},
        {"decomp.search_ms", "ms"},
        {"decomp.search_nodes", "count"},
        {"decomp.optimize_us", "us"},
        {"cache.hit_ratio", "ratio"},
        {"cache.evictions", "count"},
        {"api.plan_ms", "ms"},
        {"api.exec_ms", "ms"},
        {"api.unattributed_ms", "ms"},
        {"exec.work_per_query", "count"},
        {"exec.ns_per_work", "ns"},
        {"exec.rows_per_query", "count"},
        {"exec.bloom_skip_ratio", "ratio"},
    };
    for (const auto& [span, kind] : OpKinds()) {
      v.emplace_back("exec.op." + kind + "_self_ms", "ms");
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"spill.query_frac", "ratio"},
        {"spill.bytes_written_per_query", "bytes"},
        {"spill.partitions_per_query", "count"},
        {"spill.peak_charged_mb", "MB"},
        {"server.rtt_ms", "ms"},
        {"server.queued_us", "us"},
        {"server.overhead_us", "us"},
        {"admission.shed_frac", "ratio"},
        {"setup.datagen_s", "s"},
        {"setup.analyze_s", "s"},
        {"setup.warmup_s", "s"},
        {"trace.query_wall_ms", "ms"},
        {"trace.overhead_frac", "ratio"},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return names;
}

LayerReport RunTracedLayers(Setup* setup, double seconds,
                            const std::string& trace_path) {
  LayerReport report;
  auto& m = report.metrics;
  for (const auto& [name, unit] : LayerMetricNames()) m[name] = 0;
  m["setup.datagen_s"] = setup->datagen_s;
  m["setup.analyze_s"] = setup->analyze_s;
  m["setup.warmup_s"] = setup->warmup_s;

  std::vector<std::unique_ptr<htqo::Tracer>> tracers;
  AnswerLog answers(setup->timed.size());
  auto traced_query = [&](std::size_t k, InProcessTotals* t) {
    tracers.push_back(std::make_unique<htqo::Tracer>());
    TracedQuery(*setup, k, tracers.back().get(), &answers, t);
  };
  InProcessTotals t;
  uint64_t evictions0 = CounterValue(htqo::kMetricPlanCacheEvictionsTotal);
  uint64_t hits1 = 0;
  uint64_t misses1 = 0;

  if (setup->server != nullptr) {
    // Client-observed layers: an untraced pass for half the time, then the
    // same per-client query streams again under client spans.
    std::vector<std::size_t> counts;
    const ClientTotals plain = ServerPass(*setup, seconds / 2, &counts, nullptr);
    const uint64_t h0 = CounterValue(htqo::kMetricPlanCacheHitsTotal);
    const uint64_t mi0 = CounterValue(htqo::kMetricPlanCacheMissesTotal);
    const uint64_t shed0 = CounterValue(htqo::kMetricAdmissionShedTotal);
    const uint64_t adm0 = CounterValue(htqo::kMetricAdmissionAdmittedTotal);
    tracers.push_back(std::make_unique<htqo::Tracer>());
    const ClientTotals traced =
        ServerPass(*setup, 0, &counts, tracers.back().get());
    hits1 = CounterValue(htqo::kMetricPlanCacheHitsTotal) - h0;
    misses1 = CounterValue(htqo::kMetricPlanCacheMissesTotal) - mi0;
    const double sheds = CounterValue(htqo::kMetricAdmissionShedTotal) - shed0;
    const double admitted =
        CounterValue(htqo::kMetricAdmissionAdmittedTotal) - adm0;
    const double ok = std::max<std::size_t>(1, traced.queries - traced.failed);
    m["server.rtt_ms"] = traced.rtt_s * 1e3 / ok;
    m["server.queued_us"] = traced.queued_us / ok;
    m["server.overhead_us"] = (traced.rtt_s * 1e6 - traced.queued_us -
                               (traced.plan_ms + traced.exec_ms) * 1e3) /
                              ok;
    m["admission.shed_frac"] = Ratio(sheds, sheds + admitted);
    m["trace.overhead_frac"] = Ratio(traced.wall_s, plain.wall_s) - 1;
    // In-process layers: every template through the entry points, the
    // same number of times each.
    const std::size_t reps = 20;
    for (std::size_t r = 0; r < reps; ++r) {
      for (std::size_t k = 0; k < setup->timed.size(); ++k) {
        traced_query(k, &t);
      }
    }
    report.attempted = plain.queries + traced.queries + t.queries;
    report.failed = plain.failed + traced.failed + t.failed;
    if (report.failed > 0) {
      report.error = !plain.first_error.empty()    ? plain.first_error
                     : !traced.first_error.empty() ? traced.first_error
                                                   : t.first_error;
    }
  } else {
    double plain_wall = 0;
    std::size_t plain_failed = 0;
    const std::size_t n =
        UntracedPass(*setup, seconds / 2, &plain_wall, &plain_failed,
                     &answers);
    if (setup->workload == "cyclic_plan") {
      // The traced pass must miss like the reference pass did.
      htqo::DecompCache::Global().Clear();
    }
    evictions0 = CounterValue(htqo::kMetricPlanCacheEvictionsTotal);
    const uint64_t h0 = CounterValue(htqo::kMetricPlanCacheHitsTotal);
    const uint64_t mi0 = CounterValue(htqo::kMetricPlanCacheMissesTotal);
    for (std::size_t i = 0; i < n; ++i) {
      traced_query(i % setup->timed.size(), &t);
    }
    hits1 = CounterValue(htqo::kMetricPlanCacheHitsTotal) - h0;
    misses1 = CounterValue(htqo::kMetricPlanCacheMissesTotal) - mi0;
    m["trace.overhead_frac"] = Ratio(t.wall_s, plain_wall) - 1;
    report.attempted = n + t.queries;
    report.failed = plain_failed + t.failed;
    if (t.failed > 0) report.error = t.first_error;
  }
  for (const auto& tracer : tracers) CollectOpSelfTimes(*tracer, &t);
  ReportInProcess(t, &m);
  m["cache.hit_ratio"] = Ratio(hits1, hits1 + misses1);
  m["cache.evictions"] =
      CounterValue(htqo::kMetricPlanCacheEvictionsTotal) - evictions0;
  if (report.attempted == 0) {
    report.correct = false;
    report.error = "traced pass ran no query";
  } else if (!t.mismatch.empty()) {
    report.correct = false;
    report.error = t.mismatch;
  }
  std::ofstream trace_out(trace_path);
  for (const auto& tracer : tracers) trace_out << tracer->ChromeTraceJson() << "\n";
  if (!trace_out) report.error += " (trace not written: " + trace_path + ")";
  return report;
}

}  // namespace perfbench
