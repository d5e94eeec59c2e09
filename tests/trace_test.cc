// Observability contract tests (DESIGN.md §6d): span integrity under
// multithreaded execution, exporter well-formedness and fault degradation,
// metrics counters/histograms/snapshots, and the derived used_fallback.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "api/hybrid_optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_injector.h"
#include "workload/synthetic.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace htqo {
namespace {

// Order-sensitive equality — tracing must not perturb a single byte.
bool ByteIdentical(const Relation& a, const Relation& b) {
  if (a.arity() != b.arity() || a.NumRows() != b.NumRows()) return false;
  for (std::size_t r = 0; r < a.NumRows(); ++r) {
    for (std::size_t c = 0; c < a.arity(); ++c) {
      if (!(a.At(r, c) == b.At(r, c))) return false;
    }
  }
  return true;
}

// Structural invariants every finished trace must satisfy: unique 1-based
// ids, every span closed, every parent live (created earlier) and enclosing
// its children in time. Monotonic-clock reads are ordered by the RAII
// happens-before edges, so enclosure needs no tolerance.
void CheckSpanIntegrity(const std::vector<Span>& spans) {
  std::map<uint64_t, const Span*> by_id;
  for (const Span& s : spans) {
    EXPECT_GT(s.id, 0u);
    EXPECT_TRUE(by_id.emplace(s.id, &s).second) << "duplicate id " << s.id;
  }
  for (const Span& s : spans) {
    EXPECT_GE(s.duration_ns, 0) << s.name << " left open";
    if (s.parent == 0) continue;
    auto it = by_id.find(s.parent);
    ASSERT_NE(it, by_id.end()) << s.name << " has dead parent " << s.parent;
    const Span& p = *it->second;
    EXPECT_LT(p.id, s.id) << "child " << s.name << " precedes its parent";
    EXPECT_LE(p.start_ns, s.start_ns) << s.name << " starts before parent";
    if (p.duration_ns >= 0 && s.duration_ns >= 0) {
      EXPECT_LE(s.start_ns + s.duration_ns, p.start_ns + p.duration_ns)
          << s.name << " outlives parent " << p.name;
    }
  }
}

std::set<std::string> SpanNames(const std::vector<Span>& spans) {
  std::set<std::string> names;
  for (const Span& s : spans) names.insert(s.name);
  return names;
}

// --- Tracer unit behaviour. -------------------------------------------------

TEST(TracerTest, BeginEndAttrAndTree) {
  Tracer tracer;
  uint64_t root = tracer.Begin("query", 0);
  uint64_t child = tracer.Begin("parse", root);
  tracer.Attr(child, "atoms", "6");
  tracer.End(child);
  tracer.End(root);
  EXPECT_EQ(tracer.NumSpans(), 2u);

  std::vector<Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].id, 1u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, root);
  ASSERT_EQ(spans[1].attrs.size(), 1u);
  EXPECT_EQ(spans[1].attrs[0].key, "atoms");
  CheckSpanIntegrity(spans);

  std::string tree = tracer.ToTreeString();
  EXPECT_NE(tree.find("query"), std::string::npos);
  EXPECT_NE(tree.find("parse"), std::string::npos);
  EXPECT_NE(tree.find("atoms=6"), std::string::npos);
}

TEST(TracerTest, EndIsIdempotent) {
  Tracer tracer;
  uint64_t id = tracer.Begin("span", 0);
  tracer.End(id);
  int64_t first = tracer.Snapshot()[0].duration_ns;
  tracer.End(id);  // must not extend the recorded duration
  EXPECT_EQ(tracer.Snapshot()[0].duration_ns, first);
}

TEST(TracerTest, ScopedSpanNestsViaThreadLocalStack) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "outer");
    EXPECT_EQ(Tracer::CurrentParent(&tracer), outer.id());
    {
      ScopedSpan inner(&tracer, "inner");
      EXPECT_EQ(Tracer::CurrentParent(&tracer), inner.id());
    }
    EXPECT_EQ(Tracer::CurrentParent(&tracer), outer.id());
  }
  EXPECT_EQ(Tracer::CurrentParent(&tracer), 0u);
  std::vector<Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  CheckSpanIntegrity(spans);
}

TEST(TracerTest, NullTracerIsANoOp) {
  ScopedSpan span(nullptr, "anything");
  span.Attr("key", "value");
  span.Attr("n", std::size_t{42});
  EXPECT_EQ(span.id(), 0u);
  EXPECT_EQ(Tracer::CurrentParent(nullptr), 0u);
}

TEST(TracerTest, ChromeTraceJsonIsWellFormed) {
  Tracer tracer;
  uint64_t root = tracer.Begin("query", 0);
  tracer.Attr(root, "mode", "qhd\"hybrid\\");  // exercises escaping
  tracer.End(root);
  std::string json = tracer.ChromeTraceJson();
  EXPECT_EQ(json.find("{\"traceEvents\":"), 0u);
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("qhd\\\"hybrid\\\\"), std::string::npos);
  // Balanced braces/brackets — the cheap structural check tools rely on.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

// --- Metrics unit behaviour. ------------------------------------------------

TEST(MetricsTest, CountersAccumulate) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("htqo_test_total");
  EXPECT_EQ(registry.GetCounter("htqo_test_total"), c);  // stable pointer
  c->Increment();
  c->Add(9);
  EXPECT_EQ(c->value(), 10u);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("htqo_test_total"), 10u);
}

TEST(MetricsTest, HistogramBucketsAndPercentiles) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("htqo_test_us");
  for (uint64_t v = 1; v <= 1000; ++v) h->Record(v);
  EXPECT_EQ(h->count(), 1000u);
  EXPECT_EQ(h->sum(), 500500u);
  MetricsSnapshot::HistogramData data =
      registry.Snapshot().histograms.at("htqo_test_us");
  EXPECT_DOUBLE_EQ(data.Mean(), 500.5);
  // Log2 buckets: the percentile is the upper edge of the crossing bucket,
  // within 2x of the true value.
  EXPECT_EQ(data.Percentile(0.5), 511u);
  EXPECT_EQ(data.Percentile(1.0), 1023u);
  EXPECT_GE(data.Percentile(0.99), 511u);
}

TEST(MetricsTest, DeltaSinceScopesAnInterval) {
  MetricsRegistry registry;
  registry.GetCounter("htqo_a_total")->Add(5);
  registry.GetHistogram("htqo_h_us")->Record(100);
  MetricsSnapshot base = registry.Snapshot();
  registry.GetCounter("htqo_a_total")->Add(2);
  registry.GetCounter("htqo_b_total")->Add(3);  // absent from base
  registry.GetHistogram("htqo_h_us")->Record(200);
  MetricsSnapshot delta = registry.Snapshot().DeltaSince(base);
  EXPECT_EQ(delta.counters.at("htqo_a_total"), 2u);
  EXPECT_EQ(delta.counters.at("htqo_b_total"), 3u);
  EXPECT_EQ(delta.histograms.at("htqo_h_us").count, 1u);
  EXPECT_EQ(delta.histograms.at("htqo_h_us").sum, 200u);
}

TEST(MetricsTest, PrometheusTextExposition) {
  MetricsRegistry registry;
  registry.GetCounter("htqo_queries_total")->Add(3);
  registry.GetHistogram("htqo_exec_latency_us")->Record(100);
  std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# TYPE htqo_queries_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("htqo_queries_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE htqo_exec_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("htqo_exec_latency_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("htqo_exec_latency_us_sum 100"), std::string::npos);
  EXPECT_NE(text.find("htqo_exec_latency_us_count 1"), std::string::npos);
}

// --- Exporter fault degradation (sites trace.write / metrics.export). -------

TEST(TraceExporterFaultTest, WriteChromeTraceDegradesToStatus) {
  Tracer tracer;
  tracer.End(tracer.Begin("query", 0));
  FaultPlan plan;
  plan.site = kFaultSiteTraceWrite;
  ScopedFaultInjection injection(plan);
  ASSERT_TRUE(injection.status().ok());
  Status s = tracer.WriteChromeTrace("/tmp/htqo_trace_fault_test.json");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("trace.write"), std::string::npos);
}

TEST(TraceExporterFaultTest, WritePrometheusDegradesToStatus) {
  MetricsRegistry registry;
  registry.GetCounter("htqo_queries_total")->Increment();
  FaultPlan plan;
  plan.site = kFaultSiteMetricsExport;
  ScopedFaultInjection injection(plan);
  ASSERT_TRUE(injection.status().ok());
  Status s = registry.WritePrometheus("/tmp/htqo_metrics_fault_test.prom");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("metrics.export"), std::string::npos);
}

// --- used_fallback is derived from the degradation log. ---------------------

TEST(QueryRunTest, UsedFallbackDerivedFromDegradations) {
  QueryRun run;
  EXPECT_FALSE(run.used_fallback());
  run.degradations.push_back("q-HD width 4: budget exceeded -> width 3");
  EXPECT_TRUE(run.used_fallback());
}

// --- Whole-pipeline tracing under threads (runs under --tsan via the -------
// --- "Threading" fixture-name match in tools/check.sh). ---------------------

class TracingThreadingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PopulateTpch(TpchConfig{0.002, 42}, &catalog_);
    stats_.AnalyzeAll(catalog_);
  }

  Catalog catalog_;
  StatisticsRegistry stats_;
};

TEST_F(TracingThreadingTest, FourThreadTpchTraceHasIntactSpans) {
  HybridOptimizer optimizer(&catalog_, &stats_);
  RunOptions options;
  options.mode = OptimizerMode::kQhdHybrid;
  options.num_threads = 4;
  Tracer tracer;
  options.trace.tracer = &tracer;
  auto run = optimizer.Run(TpchQ5(), options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  if (!kTracingCompiledIn) {
    EXPECT_EQ(tracer.NumSpans(), 0u);
    return;
  }
  std::vector<Span> spans = tracer.Snapshot();
  CheckSpanIntegrity(spans);
  std::set<std::string> names = SpanNames(spans);
  for (const char* required :
       {"query", "parse", "isolate", "search.qhd", "search.cost-k-decomp",
        "optimize", "execute", "wave", "qhd.node", "op.scan", "op.hash_join",
        "select.output"}) {
    EXPECT_TRUE(names.count(required)) << "missing span: " << required;
  }
  // EXPLAIN ANALYZE annotations: every decomposition node line carries its
  // observed rows and wall time, plus the batches of the operators beneath.
  EXPECT_NE(run->plan_details.find("[rows="), std::string::npos);
  EXPECT_NE(run->plan_details.find("time="), std::string::npos);
  EXPECT_NE(run->plan_details.find(" batches="), std::string::npos);
}

TEST_F(TracingThreadingTest, TracedRunOutputIsByteIdenticalToUntraced) {
  HybridOptimizer optimizer(&catalog_, &stats_);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    RunOptions options;
    options.mode = OptimizerMode::kQhdHybrid;
    options.num_threads = threads;
    auto plain = optimizer.Run(TpchQ5(), options);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();

    Tracer tracer;
    options.trace.tracer = &tracer;
    auto traced = optimizer.Run(TpchQ5(), options);
    ASSERT_TRUE(traced.ok()) << traced.status().ToString();

    EXPECT_TRUE(ByteIdentical(plain->output, traced->output))
        << "threads=" << threads;
    EXPECT_EQ(plain->ctx.work_charged.load(), traced->ctx.work_charged.load())
        << "tracing must not perturb the work meter";
    EXPECT_EQ(plain->decomposition_width, traced->decomposition_width);
  }
}

TEST_F(TracingThreadingTest, YannakakisModeEmitsPassSpans) {
  // An acyclic query through the Yannakakis evaluator: the three passes
  // must each appear, under the execute span.
  HybridOptimizer optimizer(&catalog_, &stats_);
  RunOptions options;
  options.mode = OptimizerMode::kYannakakis;
  options.num_threads = 4;
  Tracer tracer;
  options.trace.tracer = &tracer;
  auto run = optimizer.Run(
      "SELECT c_acctbal FROM customer, orders, nation "
      "WHERE c_custkey = o_custkey AND c_nationkey = n_nationkey;",
      options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  if (!kTracingCompiledIn) return;
  std::vector<Span> spans = tracer.Snapshot();
  CheckSpanIntegrity(spans);
  std::size_t passes = 0;
  for (const Span& s : spans) {
    if (s.name == "yannakakis.pass") ++passes;
  }
  EXPECT_EQ(passes, 3u);
  EXPECT_TRUE(SpanNames(spans).count("op.semijoin"));
}

TEST_F(TracingThreadingTest, PipelineRecordsGlobalMetrics) {
  HybridOptimizer optimizer(&catalog_, &stats_);
  MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  RunOptions options;
  options.mode = OptimizerMode::kQhdHybrid;
  options.num_threads = 4;
  auto run = optimizer.Run(TpchQ5(), options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  MetricsSnapshot delta =
      MetricsRegistry::Global().Snapshot().DeltaSince(before);
  EXPECT_GE(delta.counters.at(kMetricQueriesTotal), 1u);
  EXPECT_GE(delta.histograms.at(kMetricExecLatencyUs).count, 1u);
  EXPECT_GE(delta.histograms.at(kMetricHashProbesPerQuery).sum, 1u);
}

// Spilled traced runs: partition spans nest under the operator that
// spilled, and the trace stays intact.
TEST_F(TracingThreadingTest, SpilledRunEmitsPartitionSpans) {
  HybridOptimizer optimizer(&catalog_, &stats_);
  RunOptions options;
  options.mode = OptimizerMode::kQhdHybrid;
  options.num_threads = 4;
  options.memory_budget_bytes = 200 * 1024;
  options.enable_spill = true;
  Tracer tracer;
  options.trace.tracer = &tracer;
  auto run = optimizer.Run(TpchQ5(), options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  if (!kTracingCompiledIn) return;
  std::vector<Span> spans = tracer.Snapshot();
  CheckSpanIntegrity(spans);
  if (run->spill.spill_events > 0) {
    EXPECT_TRUE(SpanNames(spans).count("spill.partition"));
    // EXPLAIN ANALYZE rolls the partitions up into their decomposition node.
    EXPECT_NE(run->plan_details.find(" spill_partitions="), std::string::npos)
        << run->plan_details;
  }
}

}  // namespace
}  // namespace htqo
