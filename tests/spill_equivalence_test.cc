// Memory-adaptive execution (DESIGN.md §6c): the Grace-partitioned spill
// path must be invisible in every output byte. These tests cover
//   - the Value binary codec the spill files use,
//   - SpillManager/SpillFile round trips, counters and the disk-budget kill,
//   - fault-site registration (unknown names fail loudly),
//   - the equivalence property: a run under a tight memory budget with
//     spilling enabled produces byte-identical rows to the unlimited-memory
//     run, across operators, optimizer modes and thread counts, while
//     recording the spill in QueryRun::degradations,
//   - the TPC-H acceptance case: a budget provably below the query's hash
//     high-water (the un-spilled run trips it) completes in spill mode.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "api/hybrid_optimizer.h"
#include "exec/operators.h"
#include "exec/spill.h"
#include "test_util.h"
#include "storage/value.h"
#include "util/fault_injector.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/query_gen.h"
#include "workload/synthetic.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace htqo {
namespace {

// Order-sensitive equality — stronger than set equality.
bool ByteIdentical(const Relation& a, const Relation& b) {
  if (a.arity() != b.arity() || a.NumRows() != b.NumRows()) return false;
  for (std::size_t r = 0; r < a.NumRows(); ++r) {
    for (std::size_t c = 0; c < a.arity(); ++c) {
      if (!(a.At(r, c) == b.At(r, c))) return false;
    }
  }
  return true;
}

bool HasSpillDegradation(const QueryRun& run) {
  for (const std::string& d : run.degradations) {
    if (d.find("memory-adaptive execution") != std::string::npos) return true;
  }
  return false;
}

// --- Value binary codec. ----------------------------------------------------

TEST(ValueCodecTest, RoundTripsEveryType) {
  std::vector<Value> values = {
      Value::Int64(0),  Value::Int64(-7),
      Value::Int64(std::numeric_limits<int64_t>::max()),
      Value::Double(3.25), Value::Double(-0.0),
      Value::String(""),   Value::String("FRANCE"),
      Value::String(std::string(300, 'x')),
      Value::Date(19000),
  };
  std::string buffer;
  for (const Value& v : values) EncodeValue(v, &buffer);
  const char* cursor = buffer.data();
  const char* end = buffer.data() + buffer.size();
  for (const Value& expected : values) {
    Value decoded;
    ASSERT_TRUE(DecodeValue(&cursor, end, &decoded));
    EXPECT_EQ(decoded.type(), expected.type());
    EXPECT_EQ(decoded.Compare(expected), 0);
  }
  EXPECT_EQ(cursor, end);
}

TEST(ValueCodecTest, TruncatedInputFailsCleanly) {
  std::string buffer;
  EncodeValue(Value::String("hello"), &buffer);
  for (std::size_t len = 0; len < buffer.size(); ++len) {
    const char* cursor = buffer.data();
    Value out;
    EXPECT_FALSE(DecodeValue(&cursor, buffer.data() + len, &out)) << len;
  }
}

TEST(ValueCodecTest, BadTypeTagFailsCleanly) {
  std::string buffer(9, '\xee');
  const char* cursor = buffer.data();
  Value out;
  EXPECT_FALSE(DecodeValue(&cursor, buffer.data() + buffer.size(), &out));
}

// --- SpillFile / SpillManager units. ----------------------------------------

Schema TestSchema() {
  return Schema({Column{"a", ValueType::kInt64},
                 Column{"b", ValueType::kString},
                 Column{"c", ValueType::kDouble}});
}

TEST(SpillFileTest, WriteReadRoundTripPreservesRowsAndTags) {
  SpillManager manager{SpillOptions{}};
  auto file = manager.Create();
  ASSERT_TRUE(file.ok()) << file.status().message();

  Relation in{TestSchema()};
  for (int i = 0; i < 100; ++i) {
    in.AddRow({Value::Int64(i), Value::String("s" + std::to_string(i % 7)),
               Value::Double(i / 8.0)});
  }
  for (std::size_t r = 0; r < in.NumRows(); ++r) {
    ASSERT_TRUE((*file)->Append(r * 3 + 1, in.Row(r)).ok());
  }
  ASSERT_TRUE((*file)->Finish().ok());
  EXPECT_EQ((*file)->rows(), 100u);

  Relation out{TestSchema()};
  std::vector<uint64_t> tags;
  ASSERT_TRUE((*file)->ReadBack(&out, &tags).ok());
  EXPECT_TRUE(ByteIdentical(in, out));
  ASSERT_EQ(tags.size(), 100u);
  for (std::size_t r = 0; r < tags.size(); ++r) EXPECT_EQ(tags[r], r * 3 + 1);

  SpillCounters counters = manager.counters();
  EXPECT_EQ(counters.partitions, 1u);
  EXPECT_GT(counters.bytes_written, 0u);
  EXPECT_EQ(counters.bytes_read, counters.bytes_written);
  EXPECT_EQ(counters.retries, 0u);
}

TEST(SpillFileTest, UntaggedRunSavesEightBytesPerRow) {
  // Grace build sides are written untagged: the same rows, minus one 64-bit
  // tag each (a single page here, so the page header is common to both).
  SpillManager manager{SpillOptions{}};
  auto tagged = manager.Create(/*tagged=*/true);
  auto untagged = manager.Create(/*tagged=*/false);
  ASSERT_TRUE(tagged.ok() && untagged.ok());
  Relation in{TestSchema()};
  for (int i = 0; i < 50; ++i) {
    in.AddRow({Value::Int64(i), Value::String("u" + std::to_string(i % 5)),
               Value::Double(i / 4.0)});
  }
  for (std::size_t r = 0; r < in.NumRows(); ++r) {
    ASSERT_TRUE((*tagged)->Append(r, in.Row(r)).ok());
    ASSERT_TRUE((*untagged)->Append(in.Row(r)).ok());
  }
  ASSERT_TRUE((*tagged)->Finish().ok());
  ASSERT_TRUE((*untagged)->Finish().ok());
  EXPECT_EQ((*tagged)->bytes(), (*untagged)->bytes() + 8 * in.NumRows());

  Relation out{TestSchema()};
  ASSERT_TRUE((*untagged)->ReadBack(&out, nullptr).ok());
  EXPECT_TRUE(ByteIdentical(in, out));
}

// Flips one bit of an on-disk spill page (header or payload) in place.
void FlipBitAt(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_NE(std::fputc(byte ^ 0x10, f), EOF);
  ASSERT_EQ(std::fclose(f), 0);
}

TEST(SpillFileTest, BitFlippedPayloadSurfacesAsDataLossAfterBoundedRetry) {
  SpillOptions options;
  options.retry_limit = 2;
  SpillManager manager{options};
  auto file = manager.Create();
  ASSERT_TRUE(file.ok()) << file.status().message();
  Relation in{TestSchema()};
  for (int i = 0; i < 50; ++i) {
    in.AddRow({Value::Int64(i), Value::String("payload"),
               Value::Double(i * 0.5)});
  }
  for (std::size_t r = 0; r < in.NumRows(); ++r) {
    ASSERT_TRUE((*file)->Append(r, in.Row(r)).ok());
  }
  ASSERT_TRUE((*file)->Finish().ok());

  // Corrupt a payload byte past the 16-byte page header: the FNV check must
  // refuse to decode it — never silently return wrong rows.
  FlipBitAt((*file)->path(), 40);

  Relation out{TestSchema()};
  std::vector<uint64_t> tags;
  Status s = (*file)->ReadBack(&out, &tags);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  EXPECT_NE(s.message().find("checksum mismatch"), std::string::npos)
      << s.message();
  // The persistent mismatch burns every bounded retry before surfacing.
  EXPECT_NE(s.message().find("after 3 attempts"), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("spill.read"), std::string::npos) << s.message();
  EXPECT_EQ(manager.counters().retries, 3u);
  EXPECT_EQ(out.NumRows(), 0u);  // nothing was decoded from the bad page
}

TEST(SpillFileTest, BitFlippedPageHeaderIsDataLossNotGarbageDecode) {
  SpillManager manager{SpillOptions{}};
  auto file = manager.Create();
  ASSERT_TRUE(file.ok()) << file.status().message();
  Relation in{TestSchema()};
  in.AddRow({Value::Int64(7), Value::String("x"), Value::Double(1.0)});
  ASSERT_TRUE((*file)->Append(0, in.Row(0)).ok());
  ASSERT_TRUE((*file)->Finish().ok());

  // Bit 36 of the length prefix: the page now claims a payload far past
  // EOF, which the verifier reports as truncation rather than reading
  // out of bounds.
  FlipBitAt((*file)->path(), 4);

  Relation out{TestSchema()};
  std::vector<uint64_t> tags;
  Status s = (*file)->ReadBack(&out, &tags);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  EXPECT_NE(s.message().find("truncated page payload"), std::string::npos)
      << s.message();
}

TEST(SpillFileTest, CleanFilesRoundTripWithZeroRetries) {
  // Guard against the checksum layer tripping on its own pages: a pristine
  // multi-page file (small write buffer forces several flushes) verifies
  // and decodes without burning a single retry.
  SpillOptions options;
  options.write_buffer_bytes = 128;  // several pages for 50 rows
  SpillManager manager{options};
  auto file = manager.Create();
  ASSERT_TRUE(file.ok()) << file.status().message();
  Relation in{TestSchema()};
  for (int i = 0; i < 50; ++i) {
    in.AddRow({Value::Int64(i), Value::String("s" + std::to_string(i)),
               Value::Double(i / 3.0)});
  }
  for (std::size_t r = 0; r < in.NumRows(); ++r) {
    ASSERT_TRUE((*file)->Append(r, in.Row(r)).ok());
  }
  ASSERT_TRUE((*file)->Finish().ok());
  Relation out{TestSchema()};
  std::vector<uint64_t> tags;
  ASSERT_TRUE((*file)->ReadBack(&out, &tags).ok());
  EXPECT_TRUE(ByteIdentical(in, out));
  EXPECT_EQ(manager.counters().retries, 0u);
}

TEST(SpillManagerTest, DiskBudgetIsAHardKill) {
  SpillOptions options;
  options.disk_budget_bytes = 256;
  options.write_buffer_bytes = 1;  // flush (and charge) every row
  SpillManager manager{options};
  auto file = manager.Create();
  ASSERT_TRUE(file.ok());

  Relation rows{TestSchema()};
  rows.AddRow({Value::Int64(1), Value::String("padding-padding-padding"),
               Value::Double(2.0)});
  Status last = Status::Ok();
  for (int i = 0; i < 64 && last.ok(); ++i) {
    last = (*file)->Append(i, rows.Row(0));
  }
  ASSERT_FALSE(last.ok());
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(last.message().find("disk budget"), std::string::npos);
}

TEST(SpillManagerTest, AlwaysFailingWriteSurfacesTypedStatusAfterRetries) {
  FaultPlan plan;
  plan.site = kFaultSiteSpillWrite;
  plan.probability = 1.0;
  ScopedFaultInjection injection(plan);
  ASSERT_TRUE(injection.status().ok());

  SpillOptions options;
  options.write_buffer_bytes = 1;
  SpillManager manager{options};
  auto file = manager.Create();
  ASSERT_TRUE(file.ok());
  Relation rows{TestSchema()};
  rows.AddRow({Value::Int64(1), Value::String("x"), Value::Double(0.5)});
  Status s = (*file)->Append(0, rows.Row(0));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.message().find("spill.write"), std::string::npos);
  // retry_limit + 1 attempts were all injected failures.
  EXPECT_EQ(manager.counters().retries, options.retry_limit + 1);
}

TEST(SpillManagerTest, AlwaysFailingOpenSurfacesTypedStatus) {
  FaultPlan plan;
  plan.site = kFaultSiteSpillOpen;
  plan.probability = 1.0;
  ScopedFaultInjection injection(plan);
  ASSERT_TRUE(injection.status().ok());
  SpillManager manager{SpillOptions{}};
  auto file = manager.Create();
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(file.status().message().find("spill.open"), std::string::npos);
}

TEST(SpillManagerTest, TransientReadFaultIsRetriedToSuccess) {
  SpillManager manager{SpillOptions{}};
  auto file = manager.Create();
  ASSERT_TRUE(file.ok());
  Relation in{TestSchema()};
  in.AddRow({Value::Int64(42), Value::String("v"), Value::Double(1.0)});
  ASSERT_TRUE((*file)->Append(7, in.Row(0)).ok());
  ASSERT_TRUE((*file)->Finish().ok());

  FaultPlan plan;
  plan.site = kFaultSiteSpillRead;
  plan.probability = 1.0;
  plan.max_fires = 2;  // fewer than retry_limit: recovers
  ScopedFaultInjection injection(plan);
  Relation out{TestSchema()};
  std::vector<uint64_t> tags;
  ASSERT_TRUE((*file)->ReadBack(&out, &tags).ok());
  EXPECT_TRUE(ByteIdentical(in, out));
  EXPECT_EQ(manager.counters().retries, 2u);
}

// --- Fault-site registry. ---------------------------------------------------

TEST(FaultSiteRegistryTest, UnknownSiteIsInvalidArgumentAndStaysDisarmed) {
  FaultPlan plan;
  plan.site = "spill.wrlte";  // typo'd chaos configuration
  ScopedFaultInjection injection(plan);
  EXPECT_EQ(injection.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(injection.status().message().find("spill.wrlte"),
            std::string::npos);
  EXPECT_FALSE(FaultInjector::Instance().armed());
}

TEST(FaultSiteRegistryTest, KnownSitesIncludeSpillSites) {
  std::vector<std::string> sites = FaultInjector::KnownSites();
  EXPECT_EQ(sites.size(), 18u);
  for (const char* site :
       {kFaultSiteSpillOpen, kFaultSiteSpillWrite, kFaultSiteSpillRead,
        kFaultSiteTraceWrite, kFaultSiteMetricsExport, kFaultSiteCacheInsert,
        kFaultSiteServerAccept, kFaultSiteServerRead, kFaultSiteServerWrite,
        kFaultSiteAdmissionEnqueue, kFaultSiteStatsFeedback,
        kFaultSiteReplanCheckpoint, kFaultSiteFlightRecDump,
        kFaultSiteShardPartition, kFaultSiteShardExchange}) {
    bool found = false;
    for (const std::string& s : sites) found |= s == site;
    EXPECT_TRUE(found) << site;
    FaultPlan plan;
    plan.site = site;
    ScopedFaultInjection injection(plan);
    EXPECT_TRUE(injection.status().ok()) << site;
  }
}

// --- Spill vs. in-memory equivalence on random queries. ---------------------

class SpillEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpillEquivalenceTest, SpilledRunsAreByteIdenticalToInMemory) {
  Rng rng(GetParam() * 77003 + 3);

  const std::size_t n = 2 + rng.Uniform(4);
  Catalog catalog;
  std::vector<std::vector<std::string>> columns(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t arity = 2 + rng.Uniform(2);
    for (std::size_t c = 0; c < arity; ++c) {
      columns[i].push_back("c" + std::to_string(c));
    }
    catalog.Put("t" + std::to_string(i),
                MakeSyntheticRelation(60 + rng.Uniform(200), columns[i],
                                      20 + rng.Uniform(70), rng.Fork(i + 1)));
  }
  std::vector<std::string> where;
  auto attr = [&](std::size_t atom) {
    return "t" + std::to_string(atom) + ".c" +
           std::to_string(rng.Uniform(columns[atom].size()));
  };
  for (std::size_t i = 1; i < n; ++i) {
    where.push_back(attr(rng.Uniform(i)) + " = " + attr(i));
  }
  std::vector<std::string> from;
  for (std::size_t i = 0; i < n; ++i) from.push_back("t" + std::to_string(i));
  std::string sql = "SELECT DISTINCT " + attr(0) + " AS o0, " +
                    attr(rng.Uniform(n)) + " AS o1 FROM " + Join(from, ", ") +
                    " WHERE " + Join(where, " AND ");

  StatisticsRegistry registry;
  registry.AnalyzeAll(catalog);
  HybridOptimizer optimizer(&catalog, &registry);
  if (!optimizer.Resolve(sql, TidMode::kNone).ok()) {
    GTEST_SKIP() << "outside fragment";
  }

  for (OptimizerMode mode :
       {OptimizerMode::kQhdHybrid, OptimizerMode::kDpStatistics,
        OptimizerMode::kYannakakis}) {
    RunOptions base;
    base.mode = mode;
    base.tid_mode = TidMode::kNone;
    base.fallback_to_dp = true;
    auto reference = optimizer.Run(sql, base);
    if (!reference.ok()) continue;  // e.g. cyclic under Yannakakis

    for (std::size_t threads : {1, 2, 4}) {
      RunOptions spill = base;
      spill.num_threads = threads;
      spill.enable_spill = true;
      // Generous hard budget (the search memos must not trip) with a tiny
      // soft threshold, so the operator working sets of these 60..260-row
      // inputs cross it and take the spill path.
      spill.memory_budget_bytes = 4u << 20;
      spill.soft_memory_fraction = 0.0005;  // soft ≈ 2 KiB
      auto run = optimizer.Run(sql, spill);
      ASSERT_TRUE(run.ok())
          << OptimizerModeName(mode) << " at " << threads
          << " threads: " << run.status().message();
      EXPECT_TRUE(ByteIdentical(reference->output, run->output))
          << OptimizerModeName(mode) << " spill output diverges at "
          << threads << " threads on\n"
          << sql;
      if (run->spill.spill_events > 0) {
        EXPECT_TRUE(HasSpillDegradation(*run));
        EXPECT_GT(run->spill.partitions, 0u);
        EXPECT_GT(run->spill.bytes_written, 0u);
      }
    }

    // Determinism of the serial spill path: identical meters on replay.
    RunOptions spill = base;
    spill.enable_spill = true;
    spill.memory_budget_bytes = 4u << 20;
    spill.soft_memory_fraction = 0.0005;
    auto first = optimizer.Run(sql, spill);
    auto second = optimizer.Run(sql, spill);
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_EQ(first->ctx.rows_charged.load(), second->ctx.rows_charged.load());
    EXPECT_EQ(first->ctx.work_charged.load(), second->ctx.work_charged.load());
    EXPECT_EQ(first->spill.bytes_written, second->spill.bytes_written);
    EXPECT_EQ(first->spill.partitions, second->spill.partitions);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomQueries, SpillEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 20));

// --- Inputs big enough to recurse, plus aggregation/distinct spilling. ------

class SpillKernelFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    PopulateSyntheticCatalog(SyntheticConfig{6000, 60, 6, 99}, &catalog_);
    registry_.AnalyzeAll(catalog_);
  }

  RunOptions SpillOptionsFor(OptimizerMode mode, std::size_t threads) {
    RunOptions options;
    options.mode = mode;
    options.num_threads = threads;
    options.enable_spill = true;
    options.memory_budget_bytes = 16u << 20;
    options.soft_memory_fraction = 0.002;  // soft ≈ 32 KiB: joins spill
    return options;
  }

  Catalog catalog_;
  StatisticsRegistry registry_;
};

TEST_F(SpillKernelFixture, LargeJoinsSpillAndStayByteIdentical) {
  HybridOptimizer optimizer(&catalog_, &registry_);
  for (OptimizerMode mode :
       {OptimizerMode::kQhdHybrid, OptimizerMode::kYannakakis,
        OptimizerMode::kDpStatistics}) {
    for (const std::string& sql : {LineQuerySql(5), ChainQuerySql(4)}) {
      RunOptions unlimited;
      unlimited.mode = mode;
      auto reference = optimizer.Run(sql, unlimited);
      ASSERT_TRUE(reference.ok()) << reference.status().message();

      for (std::size_t threads : {1, 2, 4}) {
        auto run = optimizer.Run(sql, SpillOptionsFor(mode, threads));
        ASSERT_TRUE(run.ok())
            << OptimizerModeName(mode) << " at " << threads
            << " threads: " << run.status().message();
        EXPECT_GT(run->spill.spill_events, 0u)
            << OptimizerModeName(mode) << " never spilled: " << sql;
        EXPECT_TRUE(HasSpillDegradation(*run));
        EXPECT_TRUE(ByteIdentical(reference->output, run->output))
            << OptimizerModeName(mode) << " at " << threads << " threads: "
            << sql;
      }
    }
  }
}

TEST_F(SpillKernelFixture, AggregationAndDistinctSpillMatchInMemory) {
  // GROUP BY (the executor's hash aggregation) and SELECT DISTINCT both
  // spill through the one Grace driver (GraceEvaluate), each with its own
  // per-partition kernel.
  const std::string agg_sql =
      "SELECT r1.a AS k, count(*) AS n, sum(r3.b) AS s FROM r1, r2, r3 "
      "WHERE r1.b = r2.a AND r2.b = r3.a GROUP BY r1.a ORDER BY k";
  const std::string distinct_sql =
      "SELECT DISTINCT r1.a AS x, r2.b AS y FROM r1, r2 WHERE r1.b = r2.a";
  HybridOptimizer optimizer(&catalog_, &registry_);
  for (const std::string& sql : {agg_sql, distinct_sql}) {
    RunOptions unlimited;
    unlimited.mode = OptimizerMode::kQhdHybrid;
    unlimited.tid_mode = TidMode::kAllAtoms;
    auto reference = optimizer.Run(sql, unlimited);
    ASSERT_TRUE(reference.ok()) << reference.status().message();

    for (std::size_t threads : {1, 4}) {
      RunOptions options = SpillOptionsFor(OptimizerMode::kQhdHybrid, threads);
      options.tid_mode = TidMode::kAllAtoms;
      auto run = optimizer.Run(sql, options);
      ASSERT_TRUE(run.ok()) << run.status().message();
      EXPECT_GT(run->spill.spill_events, 0u) << sql;
      EXPECT_TRUE(ByteIdentical(reference->output, run->output))
          << threads << " threads: " << sql;
    }
  }
}

TEST(SpillAggregationTest, RecursingAggregationIsByteIdenticalToInMemory) {
  // Grouped aggregation forced deep into the Grace driver: 6000 rows over
  // 1500 groups with a ~2 KiB soft threshold, so partitions re-split twice
  // before they run the in-memory kernel. The double sum mixes magnitudes
  // 1e12 apart, so any change in the order rows reach an accumulator moves
  // its bits.
  Catalog catalog;
  Relation m{Schema({Column{"k", ValueType::kInt64},
                     Column{"v", ValueType::kDouble}})};
  for (int64_t i = 0; i < 6000; ++i) {
    const double v = (i % 3 == 0 ? 1e12 : 0.1) * static_cast<double>(i % 17) +
                     static_cast<double>(i) / 7.0;
    m.AddRow({Value::Int64((i * 7919) % 1500), Value::Double(v)});
  }
  catalog.Put("m", std::move(m));
  StatisticsRegistry registry;
  registry.AnalyzeAll(catalog);
  HybridOptimizer optimizer(&catalog, &registry);
  const std::string sql =
      "SELECT m.k AS k, sum(m.v) AS s, count(*) AS n FROM m GROUP BY m.k";

  RunOptions unlimited;
  unlimited.tid_mode = TidMode::kAllAtoms;
  auto reference = optimizer.Run(sql, unlimited);
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  ASSERT_EQ(reference->output.NumRows(), 1500u);

  for (std::size_t threads : {1, 4}) {
    RunOptions spill = unlimited;
    spill.num_threads = threads;
    spill.enable_spill = true;
    spill.memory_budget_bytes = 4u << 20;
    spill.soft_memory_fraction = 0.0005;  // soft ≈ 2 KiB
    Tracer tracer;
    spill.trace.tracer = &tracer;
    auto run = optimizer.Run(sql, spill);
    ASSERT_TRUE(run.ok()) << threads << " threads: "
                          << run.status().message();
    EXPECT_TRUE(ByteIdentical(reference->output, run->output))
        << threads << " threads";
    // The aggregation itself spilled and re-partitioned at depths 1 and 2.
    EXPECT_GE(AggregationSpillDepth(tracer), 2) << threads << " threads";
    EXPECT_GE(run->spill.max_recursion_depth, 3u);
  }
}

// --- The Grace driver's merge and join on the tpch_spill shape. ------------

Relation TagRows(std::initializer_list<int64_t> values) {
  Relation rel{Schema({Column{"v", ValueType::kInt64}})};
  for (int64_t v : values) rel.AddRow({Value::Int64(v)});
  return rel;
}

std::vector<int64_t> Column0(const Relation& rel) {
  std::vector<int64_t> out;
  for (std::size_t r = 0; r < rel.NumRows(); ++r) {
    out.push_back(rel.At(r, 0).AsInt64());
  }
  return out;
}

TEST(SpillMergeTest, MergesRunsByTagKeepingRunOrderForEqualTags) {
  ExecContext ctx;
  // Runs (as the driver records them): [1, 4, 4], [], [0, 2, 5, 7], [],
  // [7]. Equal tags within a run keep their order; the tag shared by the
  // last two runs keeps run order.
  TaggedRuns runs{TagRows({10, 40, 41, 0, 20, 50, 70, 71}),
                  {1, 4, 4, 0, 2, 5, 7, 7},
                  {3, 3, 7, 7, 8}};
  Relation out{runs.rows.schema()};
  ASSERT_TRUE(internal::MergeRuns(runs, &out, &ctx).ok());
  EXPECT_EQ(Column0(out),
            (std::vector<int64_t>{0, 10, 20, 40, 41, 50, 70, 71}));

  // A single run comes back unchanged.
  TaggedRuns single{TagRows({5, 6, 7}), {2, 2, 9}, {3}};
  Relation one{single.rows.schema()};
  ASSERT_TRUE(internal::MergeRuns(single, &one, &ctx).ok());
  EXPECT_EQ(Column0(one), (std::vector<int64_t>{5, 6, 7}));

  // Only empty runs, and no runs at all, merge to nothing.
  for (std::vector<std::size_t> ends :
       {std::vector<std::size_t>{0, 0, 0}, std::vector<std::size_t>{}}) {
    TaggedRuns empty{TagRows({}), {}, ends};
    Relation none{empty.rows.schema()};
    ASSERT_TRUE(internal::MergeRuns(empty, &none, &ctx).ok());
    EXPECT_EQ(none.NumRows(), 0u);
  }
}

TEST(SpillJoinTest, SelectiveSpilledJoinMatchesInMemory) {
  // The tpch_spill shape: a large probe side of which under 1% matches a
  // small build side, and build keys that repeat, so one probe row meets
  // several build rows and the spilled join must reproduce their LIFO
  // chain order as well as the probe order.
  Relation build{Schema({Column{"k", ValueType::kInt64},
                         Column{"b", ValueType::kInt64}})};
  for (int64_t i = 0; i < 1500; ++i) {
    build.AddRow({Value::Int64(i % 500), Value::Int64(i)});
  }
  Relation probe{Schema({Column{"p", ValueType::kInt64},
                         Column{"k", ValueType::kInt64}})};
  std::size_t matching = 0;
  for (int64_t i = 0; i < 12000; ++i) {
    // Every 150th probe row hits a build key; the rest miss.
    const bool hit = i % 150 == 0;
    matching += hit ? 1 : 0;
    probe.AddRow({Value::Int64(i),
                  Value::Int64(hit ? (i / 150) % 500 : 1000 + i * 31)});
  }
  ASSERT_LT(matching * 100, probe.NumRows());

  ExecContext in_memory;
  auto reference = NaturalHashJoin(probe, build, &in_memory);
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  ASSERT_EQ(reference->NumRows(), matching * 3);

  SpillManager manager{SpillOptions{}};
  ExecContext spilled;
  spilled.spill = &manager;
  spilled.soft_memory_bytes = 1024;
  auto run = NaturalHashJoin(probe, build, &spilled);
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_TRUE(ByteIdentical(*reference, *run));
  EXPECT_EQ(manager.counters().spill_events, 1u);
  EXPECT_GE(manager.counters().max_recursion_depth, 2u);
  EXPECT_EQ(spilled.rows_charged.load(), in_memory.rows_charged.load());
  EXPECT_EQ(spilled.hash_probes.load(), in_memory.hash_probes.load());
}

// --- TPC-H acceptance: budget below the hash high-water. --------------------

TEST(SpillTpchTest, TightBudgetCompletesInSpillModeWithIdenticalRows) {
  Catalog catalog;
  StatisticsRegistry registry;
  TpchConfig config;
  config.scale_factor = 0.01;
  config.seed = 42;
  PopulateTpch(config, &catalog);
  registry.AnalyzeAll(catalog);
  HybridOptimizer optimizer(&catalog, &registry);
  const std::string sql = TpchQ5();
  // Below Q5's largest join working set at this scale (the governor trips the
  // in-memory path, asserted below) but above what the spill path keeps
  // resident (one partition pair per level plus sub-soft charges).
  constexpr std::size_t kBudget = 768u * 1024;

  // Unlimited-memory reference.
  RunOptions unlimited;
  unlimited.mode = OptimizerMode::kDpStatistics;
  auto reference = optimizer.Run(sql, unlimited);
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  ASSERT_GT(reference->output.NumRows(), 0u);

  // The same budget without spilling trips the memory governor — the budget
  // really is below the query's working-set high-water.
  RunOptions no_spill = unlimited;
  no_spill.memory_budget_bytes = kBudget;
  no_spill.degrade_on_budget = false;
  auto tripped = optimizer.Run(sql, no_spill);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(tripped.status().message().find("memory"), std::string::npos)
      << tripped.status().message();

  // With spilling enabled the same budget completes, records the spill as a
  // degradation, and reproduces the reference rows byte for byte.
  for (std::size_t threads : {1, 4}) {
    RunOptions spill = unlimited;
    spill.memory_budget_bytes = kBudget;
    spill.enable_spill = true;
    spill.num_threads = threads;
    auto run = optimizer.Run(sql, spill);
    ASSERT_TRUE(run.ok()) << threads << " threads: "
                          << run.status().message();
    EXPECT_GT(run->spill.spill_events, 0u);
    EXPECT_GT(run->spill.bytes_written, 0u);
    EXPECT_TRUE(HasSpillDegradation(*run));
    EXPECT_TRUE(ByteIdentical(reference->output, run->output))
        << threads << " threads";
  }
}

}  // namespace
}  // namespace htqo
