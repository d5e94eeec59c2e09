// Shared declarations of the htqo repository benchmark (perfbench).
//
// Four seeded closed-loop workloads drive the library through its public
// entry points only: HybridOptimizer, QueryServer/Client, the workload
// generators, StatisticsRegistry, DecompCache and MetricsRegistry. The
// benchmark adds no instrumentation inside the library; its per-layer
// numbers come from spans it opens around those calls and from counters
// the library already returns (README.md in this directory).
#ifndef HTQO_PERFBENCH_BENCH_H_
#define HTQO_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/hybrid_optimizer.h"
#include "server/server.h"
#include "stats/statistics.h"
#include "storage/catalog.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Query {
  std::string sql;
  // Derived table in FROM: runs through ParseSelect + RunStatement (the
  // isolation happens inside the library), not IsolateConjunctiveQuery.
  bool nested = false;
};

// A workload's fixed parameters. Latency limits are part of the benchmark
// definition (README.md, "Metrics").
struct WorkloadSpec {
  std::string name;
  double slo_ms = 0;  // slo_ok_frac latency limit
};

const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// Everything a run sets up before its first timed query. Owns the data,
// the statistics and (server_mixed) the in-process server.
struct Setup {
  std::string workload;
  uint64_t seed = 0;
  htqo::Catalog catalog;
  htqo::StatisticsRegistry stats;
  htqo::RunOptions options;             // in-process workloads
  std::vector<Query> warmup;            // run once each, in order
  std::vector<Query> timed;             // cycled by the timed phase
  // server_mixed only; declared after the data it serves, so it is
  // destroyed (and drained) first.
  std::unique_ptr<htqo::QueryServer> server;
  std::size_t clients = 0;                    // server_mixed only
  std::vector<std::string> tenants;           // server_mixed only
  // Set-up phase wall times (the traced run reports them).
  double datagen_s = 0;
  double analyze_s = 0;
  double warmup_s = 0;
};

struct SetupConfig {
  std::string workload;
  uint64_t seed = 0;
  std::string work_dir;  // spill files (tpch_spill)
};

// Generates the data and queries, analyzes, starts the server and runs
// the warm-up. Any failure is fatal to the run.
htqo::Status BuildSetup(const SetupConfig& config, Setup* setup);

// Data generation + query list only (no ANALYZE, no warm-up): the
// generator self-check fingerprints these.
htqo::Status GenerateInputs(const SetupConfig& config, Setup* setup);

// 64-bit fingerprint of every relation (name, schema, rows in order) of the
// catalog, and of the warm-up + timed query lists.
uint64_t DataFingerprint(const htqo::Catalog& catalog);
uint64_t QueryFingerprint(const Setup& setup);

// Row-order-insensitive result comparison; doubles compare with a relative
// tolerance of 1e-9 (different plans sum in different orders).
bool SameResult(const htqo::Relation& a, const htqo::Relation& b,
                std::string* why);

// First answer of each timed query in this process. Every later run of
// the query must render byte-identically: repeats in the timed phase, and
// the traced run of a query against its untraced run (DESIGN.md §6d).
class AnswerLog {
 public:
  explicit AnswerLog(std::size_t n) : first_(n), rendered_(n) {}
  // Records query k's first answer; false when `rel` differs from it.
  bool Check(std::size_t k, const htqo::Relation& rel);
  // Query k's first answer, or nullptr when it never completed.
  const htqo::Relation* First(std::size_t k) const {
    return first_[k] ? &*first_[k] : nullptr;
  }

 private:
  std::vector<std::optional<htqo::Relation>> first_;
  std::vector<std::string> rendered_;
};

// Per-layer metrics of the traced run (layers.cc). `seconds` bounds the
// untraced reference pass; the traced pass repeats the same queries.
struct LayerReport {
  std::map<std::string, double> metrics;  // name -> value
  bool correct = true;
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};
LayerReport RunTracedLayers(Setup* setup, double seconds,
                            const std::string& trace_path);

// Names and units of every per-layer metric, in report order. The traced
// run emits all of them on every workload; a layer the workload does not
// reach reports 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

}  // namespace perfbench

#endif  // HTQO_PERFBENCH_BENCH_H_
