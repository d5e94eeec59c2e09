// Observability-plane unit tests (DESIGN.md §6i): 128-bit trace identity,
// tracer span caps, cross-process Chrome export, the flight recorder ring,
// per-tenant SLO burn rates, labeled Prometheus exposition, and per-query
// metrics on every pipeline exit (DESIGN.md §6d).
//
// Server-level integration (DEBUG verb, /debug HTTP endpoints, stitched
// client+server traces over a real socket) lives in server_test.cc; the
// `obs.flightrec.dump` fault site is exercised both here and in the chaos
// sweep. Several tests below hammer shared singletons from many threads on
// purpose — they are TSan fodder as much as behavior checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/hybrid_optimizer.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "util/fault_injector.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"

namespace htqo {
namespace {

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------- TraceId

TEST(TraceIdTest, HexRoundTrip) {
  TraceId id;
  id.hi = 0x0123456789abcdefull;
  id.lo = 0xfedcba9876543210ull;
  const std::string hex = id.ToHex();
  EXPECT_EQ(hex, "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(TraceId::FromHex(hex), id);
}

TEST(TraceIdTest, FromHexRejectsGarbage) {
  EXPECT_FALSE(TraceId::FromHex("").valid());
  EXPECT_FALSE(TraceId::FromHex("abc").valid());                // too short
  EXPECT_FALSE(TraceId::FromHex(std::string(33, 'a')).valid());  // too long
  std::string bad(32, 'a');
  bad[7] = 'g';  // non-hex
  EXPECT_FALSE(TraceId::FromHex(bad).valid());
  // The all-zero id is syntactically fine but semantically "no trace".
  EXPECT_FALSE(TraceId::FromHex(std::string(32, '0')).valid());
}

TEST(TraceIdTest, RandomIsValidAndDistinct) {
  const TraceId a = TraceId::Random();
  const TraceId b = TraceId::Random();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(a == b);
}

// ----------------------------------------------------------- span budget

TEST(TracerCapTest, BeginPastCapDropsAndCounts) {
  Tracer tracer;
  tracer.SetMaxSpans(3);
  EXPECT_EQ(tracer.max_spans(), 3u);
  const uint64_t a = tracer.Begin("a", 0);
  const uint64_t b = tracer.Begin("b", a);
  const uint64_t c = tracer.Begin("c", a);
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(c, 0u);
  // Cap reached: further Begin() returns the universal "no span" id.
  EXPECT_EQ(tracer.Begin("d", a), 0u);
  EXPECT_EQ(tracer.Begin("e", 0), 0u);
  EXPECT_EQ(tracer.NumSpans(), 3u);
  EXPECT_EQ(tracer.dropped_spans(), 2u);
  // End/Attr on the dropped id are harmless no-ops.
  tracer.End(0);
  tracer.Attr(0, "k", "v");
  // The exporter surfaces the drop count as metadata.
  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("\"dropped_spans\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":\"2\""), std::string::npos);
}

TEST(TracerCapTest, DroppedSpansSurviveConcurrentBegin) {
  Tracer tracer;
  tracer.SetMaxSpans(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < 100; ++i) {
        const uint64_t id = tracer.Begin("w", 0);
        tracer.End(id);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(tracer.NumSpans(), 64u);
  EXPECT_EQ(tracer.dropped_spans(), 400u - 64u);
}

// ------------------------------------------------------- Chrome export

TEST(TracerWireTest, WireSpanIdsCarryExportPid) {
  Tracer tracer;
  tracer.SetExportPid(777);
  EXPECT_EQ(tracer.export_pid(), 777u);
  const uint64_t root = tracer.Begin("query", 0);
  EXPECT_EQ(tracer.WireSpanId(root), "777:" + std::to_string(root));
  EXPECT_EQ(tracer.WireSpanId(0), "0");
}

TEST(TracerWireTest, ChromeJsonCarriesTraceIdAndWireParents) {
  Tracer tracer;
  tracer.SetExportPid(41);
  TraceId tid;
  tid.hi = 1;
  tid.lo = 2;
  tracer.SetTraceId(tid);
  const uint64_t root = tracer.Begin("query", 0);
  const uint64_t child = tracer.Begin("execute", root);
  tracer.End(child);
  tracer.End(root);
  const std::string json = tracer.ChromeTraceJson();
  // trace_id metadata event, in hex.
  EXPECT_NE(json.find("\"trace_id\":\"" + tid.ToHex() + "\""),
            std::string::npos);
  // Span ids in "<pid>:<id>" wire form; the local child's parent too.
  EXPECT_NE(json.find("\"span_id\":\"41:" + std::to_string(root) + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"parent_id\":\"41:" + std::to_string(root) + "\""),
            std::string::npos);
  // The root has no remote parent: parent_id "0".
  EXPECT_NE(json.find("\"parent_id\":\"0\""), std::string::npos);
}

TEST(TracerWireTest, RemoteParentReparentsRootsInExport) {
  Tracer tracer;
  tracer.SetExportPid(99);
  tracer.SetRemoteParent("12:7");
  const uint64_t root = tracer.Begin("session.query", 0);
  const uint64_t child = tracer.Begin("execute", root);
  tracer.End(child);
  tracer.End(root);
  const std::string json = tracer.ChromeTraceJson();
  // The root re-parents under the remote wire id; the child keeps its
  // local parent.
  EXPECT_NE(json.find("\"parent_id\":\"12:7\""), std::string::npos);
  EXPECT_NE(json.find("\"parent_id\":\"99:" + std::to_string(root) + "\""),
            std::string::npos);
  EXPECT_EQ(json.find("\"parent_id\":\"0\""), std::string::npos);
}

// Two tracers sharing a TraceId with distinct export pids produce the two
// halves of one stitched trace — the in-process analogue of client+server.
TEST(TracerWireTest, StitchedPairSharesTraceIdAcrossPids) {
  const TraceId tid = TraceId::Random();

  Tracer client;
  client.SetExportPid(1001);
  client.SetTraceId(tid);
  const uint64_t client_root = client.Begin("client.query", 0);
  const uint64_t attempt = client.Begin("client.attempt", client_root);

  Tracer server;
  server.SetExportPid(2002);
  server.SetTraceId(tid);
  server.SetRemoteParent(client.WireSpanId(attempt));
  const uint64_t server_root = server.Begin("session.query", 0);
  server.End(server_root);

  client.End(attempt);
  client.End(client_root);

  const std::string client_json = client.ChromeTraceJson();
  const std::string server_json = server.ChromeTraceJson();
  const std::string tid_meta = "\"trace_id\":\"" + tid.ToHex() + "\"";
  EXPECT_NE(client_json.find(tid_meta), std::string::npos);
  EXPECT_NE(server_json.find(tid_meta), std::string::npos);
  // The server root hangs off the client's attempt span across the pid gap.
  EXPECT_NE(
      server_json.find("\"parent_id\":\"1001:" + std::to_string(attempt) +
                       "\""),
      std::string::npos);
  // Wire ids cannot collide across the pair: different pid prefixes.
  EXPECT_NE(client_json.find("\"span_id\":\"1001:"), std::string::npos);
  EXPECT_NE(server_json.find("\"span_id\":\"2002:"), std::string::npos);
  EXPECT_EQ(server_json.find("\"span_id\":\"1001:"), std::string::npos);
}

// ------------------------------------------------- query fingerprinting

TEST(FingerprintTest, ConstantsCollapseJoinsDoNot) {
  const uint64_t a = QueryShapeFingerprint(
      "SELECT r1.a FROM r1, r2 WHERE r1.b = r2.a AND r1.a > 10");
  const uint64_t b = QueryShapeFingerprint(
      "select  r1.a  from r1, r2 where r1.b = r2.a and r1.a > 99999");
  const uint64_t c = QueryShapeFingerprint(
      "SELECT r1.a FROM r1, r3 WHERE r1.b = r3.a AND r1.a > 10");
  EXPECT_EQ(a, b);  // same shape: constants and whitespace are placeholders
  EXPECT_NE(a, c);  // different join partner: different shape
  const uint64_t s1 = QueryShapeFingerprint("SELECT * FROM t WHERE n = 'x'");
  const uint64_t s2 = QueryShapeFingerprint("SELECT * FROM t WHERE n = 'yz'");
  EXPECT_EQ(s1, s2);  // string literals collapse too
}

// ------------------------------------------------------ flight recorder

FlightRecord MakeRecord(const char* tenant, uint64_t total_us) {
  FlightRecord r;
  r.SetTenant(tenant);
  r.fingerprint = 42;
  r.rows = 7;
  r.total_us = total_us;
  return r;
}

TEST(FlightRecorderTest, WraparoundKeepsNewestWindow) {
  FlightRecorder rec(4);
  std::vector<uint64_t> ids;
  for (int i = 1; i <= 10; ++i) {
    ids.push_back(rec.Record(MakeRecord("t", 100 * i)));
  }
  // Ids are 1-based and monotonic.
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i + 1);
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_recorded(), 10u);
  // Snapshot is oldest-first and holds exactly the last capacity records.
  const std::vector<FlightRecord> window = rec.Snapshot();
  ASSERT_EQ(window.size(), 4u);
  EXPECT_EQ(window.front().id, 7u);
  EXPECT_EQ(window.back().id, 10u);
  // Find: retained ids hit, evicted and future ids miss.
  FlightRecord out;
  EXPECT_TRUE(rec.Find(10, &out));
  EXPECT_EQ(out.total_us, 1000u);
  EXPECT_TRUE(rec.Find(7, &out));
  EXPECT_FALSE(rec.Find(6, &out));  // evicted by wraparound
  EXPECT_FALSE(rec.Find(1, &out));
  EXPECT_FALSE(rec.Find(11, &out));  // never recorded
}

TEST(FlightRecorderTest, SlowestSortsByTotalLatency) {
  FlightRecorder rec(8);
  rec.Record(MakeRecord("t", 300));
  rec.Record(MakeRecord("t", 900));
  rec.Record(MakeRecord("t", 100));
  rec.Record(MakeRecord("t", 500));
  const std::vector<FlightRecord> slow = rec.Slowest(3);
  ASSERT_EQ(slow.size(), 3u);
  EXPECT_EQ(slow[0].total_us, 900u);
  EXPECT_EQ(slow[1].total_us, 500u);
  EXPECT_EQ(slow[2].total_us, 300u);
  // Asking for more than retained clamps.
  EXPECT_EQ(rec.Slowest(100).size(), 4u);
}

TEST(FlightRecorderTest, RecordStampsWallClockAndTruncatesTenant) {
  FlightRecorder rec(2);
  FlightRecord r;
  r.SetTenant("a-tenant-name-much-longer-than-the-thirty-two-byte-field");
  rec.Record(r);
  const std::vector<FlightRecord> window = rec.Snapshot();
  ASSERT_EQ(window.size(), 1u);
  EXPECT_GT(window[0].wall_unix_us, 0);
  const std::string tenant = window[0].tenant;
  EXPECT_LT(tenant.size(), sizeof(r.tenant));
  EXPECT_EQ(tenant.substr(0, 8), "a-tenant");
}

TEST(FlightRecorderTest, JsonCarriesTheSchema) {
  FlightRecord r = MakeRecord("acme", 1234);
  r.id = 9;
  r.SetTraceIdHex("00000000000000010000000000000002");
  r.width = 3;
  r.degradations = 1;
  r.replans = 2;
  r.spill_bytes = 4096;
  r.queue_us = 10;
  r.plan_us = 20;
  r.exec_us = 30;
  r.sampled_trace = 1;
  const std::string json = FlightRecordJson(r);
  EXPECT_NE(json.find("\"id\":9"), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"acme\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":\"00000000000000010000000000000002\""),
            std::string::npos);
  EXPECT_NE(json.find("\"width\":3"), std::string::npos);
  EXPECT_NE(json.find("\"replans\":2"), std::string::npos);
  EXPECT_NE(json.find("\"spill_bytes\":4096"), std::string::npos);
  EXPECT_NE(json.find("\"total_us\":1234"), std::string::npos);
}

TEST(FlightRecorderTest, DumpToFileWritesJsonLines) {
  FlightRecorder rec(4);
  rec.Record(MakeRecord("t0", 100));
  rec.Record(MakeRecord("t1", 200));
  const std::string path =
      ::testing::TempDir() + "/htqo_flightrec_dump_test.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(rec.DumpToFile(path).ok());
  const std::string dump = ReadFileOrEmpty(path);
  EXPECT_NE(dump.find("\"tenant\":\"t0\""), std::string::npos);
  EXPECT_NE(dump.find("\"tenant\":\"t1\""), std::string::npos);
  // One JSON object per line.
  EXPECT_EQ(std::count(dump.begin(), dump.end(), '\n'), 2);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, DumpFaultSiteFailsTypedAndLeavesRingIntact) {
  FlightRecorder rec(4);
  rec.Record(MakeRecord("t", 100));
  FaultPlan plan;
  plan.site = kFaultSiteFlightRecDump;
  plan.probability = 1.0;
  ScopedFaultInjection injection(plan);
  const std::string path = ::testing::TempDir() + "/htqo_flightrec_fault.jsonl";
  const Status s = rec.DumpToFile(path);
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find(kFaultSiteFlightRecDump), std::string::npos);
  // Exporter failure only: the ring is untouched.
  EXPECT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec.total_recorded(), 1u);
}

TEST(FlightRecorderTest, ConcurrentRecordersKeepIdsUniqueAndMonotonic) {
  FlightRecorder rec(32);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::vector<uint64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, &ids, t] {
      for (int i = 0; i < kPerThread; ++i) {
        ids[t].push_back(rec.Record(MakeRecord("t", 10)));
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<uint64_t> all;
  for (const auto& per_thread : ids) {
    // Each thread sees strictly increasing ids.
    for (std::size_t i = 1; i < per_thread.size(); ++i) {
      EXPECT_LT(per_thread[i - 1], per_thread[i]);
    }
    all.insert(per_thread.begin(), per_thread.end());
  }
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(rec.total_recorded(),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(rec.size(), 32u);
}

// -------------------------------------------------------------- SLOs

TEST(SloTrackerTest, BurnRateIsWindowedViolationRateOverBudget) {
  SloPolicy policy;
  policy.target_p99_ms = 100.0;
  policy.error_budget = 0.25;
  SloTracker slo(policy);
  // 3 in-target queries + 1 over target: window violation rate 1/4 = the
  // budget exactly, so the burn rate reads 1.0.
  slo.Record("math", 10.0, true);
  slo.Record("math", 20.0, true);
  slo.Record("math", 30.0, true);
  slo.Record("math", 500.0, true);
  const std::vector<SloTracker::TenantSlo> snap = slo.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].tenant, "math");
  EXPECT_EQ(snap[0].queries, 4u);
  EXPECT_EQ(snap[0].violations, 1u);
  EXPECT_DOUBLE_EQ(snap[0].burn_rate, 1.0);
  EXPECT_DOUBLE_EQ(snap[0].policy.target_p99_ms, 100.0);
}

TEST(SloTrackerTest, ErrorsBurnBudgetRegardlessOfLatency) {
  SloTracker slo(SloPolicy{100.0, 0.5});
  slo.Record("errs", 1.0, false);  // fast but failed: still a violation
  slo.Record("errs", 1.0, true);
  const auto snap = slo.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].violations, 1u);
  EXPECT_DOUBLE_EQ(snap[0].burn_rate, 1.0);  // 0.5 rate / 0.5 budget
}

TEST(SloTrackerTest, PerTenantPolicyOverridesDefault) {
  SloTracker slo(SloPolicy{100.0, 0.01});
  SloPolicy gold;
  gold.target_p99_ms = 10.0;
  gold.error_budget = 0.5;
  slo.SetPolicy("gold", gold);
  slo.Record("gold", 50.0, true);    // over gold's 10ms target
  slo.Record("bronze", 50.0, true);  // under the 100ms default
  std::map<std::string, SloTracker::TenantSlo> by_tenant;
  for (const auto& t : slo.Snapshot()) by_tenant[t.tenant] = t;
  ASSERT_EQ(by_tenant.size(), 2u);
  EXPECT_EQ(by_tenant["gold"].violations, 1u);
  EXPECT_DOUBLE_EQ(by_tenant["gold"].policy.target_p99_ms, 10.0);
  EXPECT_EQ(by_tenant["bronze"].violations, 0u);
}

TEST(SloTrackerTest, WindowForgetsOldViolations) {
  SloTracker slo(SloPolicy{100.0, 0.25});
  slo.Record("window", 500.0, true);  // one violation...
  for (std::size_t i = 0; i < SloTracker::kWindow; ++i) {
    slo.Record("window", 1.0, true);  // ...pushed out of the ring
  }
  const auto snap = slo.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].violations, 1u);  // lifetime counter remembers
  EXPECT_DOUBLE_EQ(snap[0].burn_rate, 0.0);  // the window does not
}

TEST(SloTrackerTest, ExportsLabeledSeriesToTheRegistry) {
  SloTracker slo(SloPolicy{100.0, 0.25});
  slo.Record("slo_exposition_tenant", 500.0, true);
  MetricsRegistry& reg = MetricsRegistry::Global();
  EXPECT_EQ(reg.GetCounter(TenantMetricName(kMetricTenantSloViolationsTotal,
                                            "slo_exposition_tenant"))
                ->value(),
            1u);
  EXPECT_DOUBLE_EQ(reg.GetGauge(TenantMetricName(kMetricTenantSloTargetP99Ms,
                                                 "slo_exposition_tenant"))
                       ->value(),
                   100.0);
  EXPECT_GT(reg.GetGauge(TenantMetricName(kMetricTenantSloBurnRate,
                                          "slo_exposition_tenant"))
                ->value(),
            1.0);  // 1/1 window rate over a 0.25 budget = 4.0
}

TEST(SloTrackerTest, ConcurrentRecordsAcrossTenants) {
  SloTracker slo(SloPolicy{50.0, 0.1});
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&slo, t] {
      const std::string tenant = "conc" + std::to_string(t % 2);
      for (int i = 0; i < 100; ++i) {
        slo.Record(tenant, (i % 10 == 0) ? 500.0 : 1.0, true);
      }
    });
  }
  for (auto& th : threads) th.join();
  uint64_t total = 0;
  for (const auto& t : slo.Snapshot()) total += t.queries;
  EXPECT_EQ(total, 400u);
}

// -------------------------------------------- labeled metric families

TEST(LabeledMetricsTest, NameBuilderEscapesLabelValues) {
  EXPECT_EQ(LabeledMetricName("fam", {}), "fam");
  EXPECT_EQ(TenantMetricName("fam", "t0"), "fam{tenant=\"t0\"}");
  EXPECT_EQ(LabeledMetricName("fam", {{"a", "x"}, {"b", "y"}}),
            "fam{a=\"x\",b=\"y\"}");
  // Backslash, quote, and newline are escaped per the exposition format.
  EXPECT_EQ(TenantMetricName("fam", "a\"b\\c\nd"),
            "fam{tenant=\"a\\\"b\\\\c\\nd\"}");
}

TEST(LabeledMetricsTest, FamilySeriesShareOneTypeLine) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const std::string family = "htqo_test_labeled_family_total";
  reg.GetCounter(TenantMetricName(family, "a"))->Add(1);
  reg.GetCounter(TenantMetricName(family, "b"))->Add(2);
  const std::string text = reg.PrometheusText();
  // One TYPE line for the family, two labeled samples.
  std::size_t type_count = 0;
  const std::string type_line = "# TYPE " + family + " counter";
  for (std::size_t pos = text.find(type_line); pos != std::string::npos;
       pos = text.find(type_line, pos + 1)) {
    ++type_count;
  }
  EXPECT_EQ(type_count, 1u);
  EXPECT_NE(text.find(family + "{tenant=\"a\"} 1"), std::string::npos);
  EXPECT_NE(text.find(family + "{tenant=\"b\"} 2"), std::string::npos);
}

TEST(LabeledMetricsTest, LabeledHistogramMergesLeIntoLabelBlock) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const std::string family = "htqo_test_labeled_latency_us";
  Histogram* h = reg.GetHistogram(TenantMetricName(family, "h0"));
  h->Record(3);
  h->Record(100);
  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("# TYPE " + family + " histogram"), std::string::npos);
  // `le` joins the tenant label inside one block (not a second block).
  EXPECT_NE(text.find(family + "_bucket{tenant=\"h0\",le=\""),
            std::string::npos);
  EXPECT_NE(text.find(family + "_bucket{tenant=\"h0\",le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find(family + "_count{tenant=\"h0\"} 2"), std::string::npos);
  EXPECT_NE(text.find(family + "_sum{tenant=\"h0\"} 103"), std::string::npos);
}

TEST(LabeledMetricsTest, ConcurrentTenantsResolveDistinctSeries) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const std::string family = "htqo_test_concurrent_tenants_total";
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &family, t] {
      // Resolve once, then record lock-free — the session's contract.
      Counter* c = reg.GetCounter(
          TenantMetricName(family, "tenant" + std::to_string(t % 2)));
      Histogram* h = reg.GetHistogram(TenantMetricName(
          "htqo_test_concurrent_tenants_us", "tenant" + std::to_string(t % 2)));
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  const uint64_t t0 =
      reg.GetCounter(TenantMetricName(family, "tenant0"))->value();
  const uint64_t t1 =
      reg.GetCounter(TenantMetricName(family, "tenant1"))->value();
  EXPECT_EQ(t0, static_cast<uint64_t>(kThreads / 2 * kPerThread));
  EXPECT_EQ(t1, static_cast<uint64_t>(kThreads / 2 * kPerThread));
}

TEST(LabeledMetricsTest, GaugeRoundTripsThroughSnapshotAndText) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const std::string name = TenantMetricName("htqo_test_gauge", "g0");
  reg.GetGauge(name)->Set(2.5);
  EXPECT_DOUBLE_EQ(reg.Snapshot().gauges.at(name), 2.5);
  EXPECT_NE(reg.PrometheusText().find("htqo_test_gauge{tenant=\"g0\"} 2.5"),
            std::string::npos);
}

// ------------------------------------------------- build identity

TEST(BuildInfoTest, ExpositionCarriesBuildAndProcessGauges) {
  const std::string text = MetricsRegistry::Global().PrometheusText();
  EXPECT_NE(text.find("# TYPE htqo_build_info gauge"), std::string::npos);
  const std::string info_line =
      std::string(kMetricBuildInfo) + "{version=\"" + BuildVersionString() +
      "\",git_sha=\"" + BuildGitShaString() + "\",sanitizer=\"" +
      BuildSanitizerString() + "\"} 1";
  EXPECT_NE(text.find(info_line), std::string::npos);
  EXPECT_NE(text.find(kMetricProcessStartTimeSeconds), std::string::npos);
  EXPECT_NE(text.find(kMetricProcessUptimeSeconds), std::string::npos);
  EXPECT_GT(ProcessStartTimeSeconds(), 0.0);
  EXPECT_GE(ProcessUptimeSeconds(), 0.0);
}

// ------------------------------------------- per-query metrics, every exit

// Every RunResolved exit reaches the process metrics, failures included.
class QueryMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PopulateSyntheticCatalog(SyntheticConfig{6000, 60, 6, 99}, &catalog_);
    stats_.AnalyzeAll(catalog_);
  }

  // Runs `sql` and returns the metric activity it caused.
  MetricsSnapshot Delta(const std::string& sql, const RunOptions& options,
                        StatusCode expected) {
    const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
    auto run = HybridOptimizer(&catalog_, &stats_).Run(sql, options);
    EXPECT_EQ(run.status().code(), expected) << run.status().message();
    return MetricsRegistry::Global().Snapshot().DeltaSince(before);
  }

  static uint64_t Counter(const MetricsSnapshot& delta, const char* name) {
    auto it = delta.counters.find(name);
    return it == delta.counters.end() ? 0 : it->second;
  }

  static uint64_t HistogramCount(const MetricsSnapshot& delta,
                                 const char* name) {
    auto it = delta.histograms.find(name);
    return it == delta.histograms.end() ? 0 : it->second.count;
  }

  Catalog catalog_;
  StatisticsRegistry stats_;
};

TEST_F(QueryMetricsTest, FailedRunsAreCounted) {
  RunOptions rows;
  rows.row_budget = 10;
  MetricsSnapshot delta =
      Delta(ChainQuerySql(4), rows, StatusCode::kResourceExhausted);
  EXPECT_EQ(Counter(delta, kMetricQueriesTotal), 1u);
  EXPECT_EQ(HistogramCount(delta, kMetricExecLatencyUs), 1u);

  RunOptions nodes;
  nodes.search_node_budget = 5;
  nodes.degrade_on_budget = false;
  delta = Delta(ChainQuerySql(4), nodes, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Counter(delta, kMetricQueriesTotal), 1u);
  EXPECT_EQ(Counter(delta, kMetricGovernorTripsTotal), 1u);
}

TEST_F(QueryMetricsTest, SpilledRunThatFailsCountsItsSpills) {
  RunOptions options;
  options.mode = OptimizerMode::kDpStatistics;
  options.enable_spill = true;
  options.memory_budget_bytes = 16u << 20;
  options.soft_memory_fraction = 0.002;  // soft ≈ 32 KiB: joins spill
  auto answered =
      HybridOptimizer(&catalog_, &stats_).Run(LineQuerySql(5), options);
  ASSERT_TRUE(answered.ok()) << answered.status().message();
  ASSERT_GT(answered->spill.spill_events, 0u);

  // The same run one row short of its budget fails after it has spilled.
  options.row_budget = answered->ctx.rows_charged - 1;
  const MetricsSnapshot delta =
      Delta(LineQuerySql(5), options, StatusCode::kResourceExhausted);
  EXPECT_EQ(Counter(delta, kMetricQueriesTotal), 1u);
  EXPECT_GT(Counter(delta, kMetricSpillEventsTotal), 0u);
  EXPECT_GT(Counter(delta, kMetricSpillBytesWrittenTotal), 0u);
}

TEST_F(QueryMetricsTest, ConstantFalseRunRecordsPerQueryHistograms) {
  const MetricsSnapshot delta =
      Delta("SELECT DISTINCT r1.a FROM r1, r2 WHERE r1.b = r2.a AND 1 = 2",
            RunOptions(), StatusCode::kOk);
  EXPECT_EQ(Counter(delta, kMetricQueriesTotal), 1u);
  EXPECT_EQ(HistogramCount(delta, kMetricPlanLatencyUs), 1u);
  EXPECT_EQ(HistogramCount(delta, kMetricRowsPerQuery), 1u);
}

}  // namespace
}  // namespace htqo
