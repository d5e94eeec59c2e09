// Interactive shell: the stand-alone face of the hybrid optimizer. Loads a
// workload, runs SQL under any optimizer mode, and can explain the
// decomposition it used (including Graphviz output).
//
//   $ ./htqo_shell
//   htqo> \load tpch 0.005
//   htqo> \mode qhd-hybrid
//   htqo> SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS r ...;
//   htqo> \help
//
// Also scriptable:  echo '...' | ./htqo_shell

#include <csignal>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "api/hybrid_optimizer.h"
#include "cache/decomp_cache.h"
#include "cq/hypergraph_builder.h"
#include "decomp/qhd.h"
#include "obs/flightrec.h"
#include "stats/feedback.h"
#include "storage/csv.h"
#include "workload/synthetic.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

// Ctrl-C cancels the in-flight query through the exact mechanism the query
// server's drain path uses: a shared atomic wired into
// RunOptions::cancel_flag, polled at every governor checkpoint. The handler
// only flips the flag (async-signal-safe); the run unwinds cooperatively
// and surfaces kDeadlineExceeded with a cancellation message.
std::atomic<bool> g_cancel{false};

extern "C" void HandleSigint(int) {
  g_cancel.store(true, std::memory_order_relaxed);
  constexpr char kMsg[] = "\n[cancel requested — finishing at the next "
                          "governor checkpoint; \\quit exits]\n";
  ssize_t ignored = write(STDOUT_FILENO, kMsg, sizeof(kMsg) - 1);
  (void)ignored;
}

namespace {

using namespace htqo;

struct ShellState {
  Catalog catalog;
  StatisticsRegistry stats;
  RunOptions options;
  bool explain = false;
  bool analyze = false;       // EXPLAIN ANALYZE: trace + annotated plan
  std::string trace_path;     // Chrome trace output per query ("" = off)
  // Adaptive loop (\adaptive): mid-query replans armed + every query's
  // trace reconciled into the statistics registry afterwards.
  bool adaptive = false;
};

const struct {
  const char* name;
  OptimizerMode mode;
} kModes[] = {
    {"qhd-hybrid", OptimizerMode::kQhdHybrid},
    {"qhd-structural", OptimizerMode::kQhdStructural},
    {"qhd-no-optimize", OptimizerMode::kQhdNoOptimize},
    {"dp-statistics", OptimizerMode::kDpStatistics},
    {"naive", OptimizerMode::kNaive},
    {"geqo-defaults", OptimizerMode::kGeqoDefaults},
    {"yannakakis", OptimizerMode::kYannakakis},
    {"classic-hd", OptimizerMode::kClassicHd},
    {"tree-decomposition", OptimizerMode::kTreeDecomposition},
};

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  \\load tpch <scale-factor>          generate the TPC-H database\n"
      "  \\load synthetic <card> <sel> <n>   generate r1..rN(a,b)\n"
      "  \\mode <name>                       pick the optimizer mode\n"
      "  \\width <k>                         decomposition width bound\n"
      "  \\deadline <seconds>                wall-clock deadline (0 = off)\n"
      "  \\budget <nodes>                    search-node budget (0 = off)\n"
      "  \\mem <bytes>                       memory budget + spilling (0 = off)\n"
      "  \\spill <dir>                       spill directory (- = system tmp)\n"
      "  \\threads <n>                       worker lanes (1 = serial)\n"
      "  \\shards <n>                        hash-partition shards (0 = "
      "off)\n"
      "  \\cache [on|off|clear]              plan cache control; no argument\n"
      "                                     prints hit/miss/eviction stats\n"
      "  \\adaptive [on|off]                 adaptive loop: mid-query replans\n"
      "                                     + post-query stats feedback\n"
      "  \\explain                           toggle plan explanation\n"
      "  \\analyze                           toggle EXPLAIN ANALYZE (traced\n"
      "                                     run, per-node rows and times)\n"
      "  \\trace <file.json>                 write a Chrome trace per query\n"
      "                                     (chrome://tracing; - = off)\n"
      "  \\dot <sql>                         print the decomposition as DOT\n"
      "  \\rewrite <sql>                     print the SQL-views rewriting\n"
      "  \\import <name> <path.csv>          load a relation from CSV\n"
      "  \\export <name> <path.csv>          write a relation to CSV\n"
      "  \\relations                         list relations\n"
      "  \\q5 / \\q8                          run the TPC-H queries\n"
      "  \\slow [n]                          slowest queries this session\n"
      "                                     (flight recorder, default 10)\n"
      "  \\help, \\quit\n"
      "modes:");
  for (const auto& m : kModes) std::printf(" %s", m.name);
  std::printf("\nSQL statements end with ';'.\n");
}

void RunSql(ShellState& state, const std::string& sql) {
  HybridOptimizer optimizer(&state.catalog, &state.stats);
  // One tracer per query: \analyze, \trace and the \adaptive feedback loop
  // all need the span tree, and a fresh tracer keeps each query's trace
  // self-contained.
  const bool traced =
      state.analyze || !state.trace_path.empty() || state.adaptive;
  Tracer tracer;
  state.options.trace.tracer = traced ? &tracer : nullptr;
  state.options.trace.parent = 0;
  // Arm Ctrl-C for this run only; a flag left over from an idle-prompt ^C
  // must not kill the next query before it starts.
  g_cancel.store(false, std::memory_order_relaxed);
  state.options.cancel_flag = &g_cancel;
  auto run = optimizer.Run(sql, state.options);
  state.options.cancel_flag = nullptr;
  state.options.trace.tracer = nullptr;
  // Every completed query — success or failure — lands in the flight
  // recorder, the same ring \slow reads and the server dumps on crash.
  FlightRecord rec;
  rec.SetTenant("shell");
  rec.fingerprint = QueryShapeFingerprint(sql);
  rec.status = static_cast<int32_t>(run.ok() ? StatusCode::kOk
                                             : run.status().code());
  if (run.ok()) {
    rec.rows = run->output.NumRows();
    rec.width = static_cast<uint32_t>(run->decomposition_width);
    rec.degradations = static_cast<uint32_t>(run->degradations.size());
    rec.replans = static_cast<uint32_t>(run->replans);
    rec.spill_bytes = run->spill.bytes_written;
    rec.parse_us = static_cast<uint64_t>(run->parse_seconds * 1e6);
    rec.plan_us = static_cast<uint64_t>(run->plan_seconds * 1e6);
    rec.exec_us = static_cast<uint64_t>(run->exec_seconds * 1e6);
    rec.total_us = static_cast<uint64_t>(
        (run->parse_seconds + run->plan_seconds + run->exec_seconds) * 1e6);
  }
  FlightRecorder::Global().Record(rec);
  if (!run.ok()) {
    std::printf("error: %s\n", run.status().ToString().c_str());
    return;
  }
  if (!state.trace_path.empty()) {
    // Exporter I/O failure is the exporter's problem, never the query's.
    Status ts = tracer.WriteChromeTrace(state.trace_path);
    if (ts.ok()) {
      std::printf("trace: %zu spans -> %s\n", tracer.NumSpans(),
                  state.trace_path.c_str());
    } else {
      std::printf("warning: trace export failed: %s\n",
                  ts.ToString().c_str());
    }
  }
  for (const std::string& step : run->degradations) {
    std::printf("degraded: %s\n", step.c_str());
  }
  if (state.explain || state.analyze) {
    std::printf("plan: %s%s\n", run->plan_description.c_str(),
                run->used_fallback() ? " (fallback)" : "");
    if (!run->plan_details.empty()) {
      std::printf("%s", run->plan_details.c_str());
    }
    std::printf("plan time: %.2f ms, exec time: %.2f ms, work: %zu, "
                "peak intermediate: %zu rows\n",
                run->plan_seconds * 1e3, run->exec_seconds * 1e3,
                run->ctx.work_charged.load(), run->ctx.peak_rows.load());
    if (!run->plan_cache.empty()) {
      std::printf("plan cache: %s\n", run->plan_cache.c_str());
    }
    if (run->governor.search_nodes > 0) {
      std::printf("governor: %zu search nodes, %zu trips\n",
                  run->governor.search_nodes, run->governor.trips());
    }
    if (run->spill.spill_events > 0) {
      std::printf("spill: %zu event(s), %zu bytes written, %zu partitions, "
                  "recursion depth %zu\n",
                  run->spill.spill_events, run->spill.bytes_written,
                  run->spill.partitions, run->spill.max_recursion_depth);
    }
    if (run->shard.num_shards > 0 && run->shard.exchanges > 0) {
      std::printf("shards: %zu (%zu partitioned, %zu replicated), "
                  "%zu exchange(s) shipped %zu filter + %zu key bytes "
                  "(vs %zu row bytes), pruned %zu rows\n",
                  run->shard.num_shards, run->shard.partitions,
                  run->shard.replicated, run->shard.exchanges,
                  run->shard.filter_bytes, run->shard.key_bytes,
                  run->shard.row_ship_bytes, run->shard.rows_pruned);
    }
  }
  if (state.analyze) {
    std::printf("-- spans --\n%s", tracer.ToTreeString().c_str());
  }
  if (run->replans > 0) {
    std::printf("replans: %zu\n", run->replans);
  }
  if (state.adaptive) {
    // Post-query reconciliation: mine this query's trace, refresh any
    // relation whose statistics have drifted. Nested queries don't Resolve
    // as a single CQ — skip feedback for those, never the query itself.
    auto rq = optimizer.Resolve(sql, state.options.tid_mode);
    if (rq.ok()) {
      FeedbackCollector collector(&state.catalog, &state.stats);
      FeedbackReport report = collector.Reconcile(rq.value(), tracer);
      for (const std::string& name : report.refreshed) {
        std::printf("feedback: refreshed statistics for %s (max estimate "
                    "error %.1fx)\n",
                    name.c_str(), report.max_error_factor);
      }
      if (report.skipped > 0) {
        std::printf("feedback: %zu refresh(es) skipped\n", report.skipped);
      }
    }
  }
  std::printf("%s", run->output.ToString(25).c_str());
}

void Dot(ShellState& state, const std::string& sql) {
  HybridOptimizer optimizer(&state.catalog, &state.stats);
  auto rq = optimizer.Resolve(sql, TidMode::kNone);
  if (!rq.ok()) {
    std::printf("error: %s\n", rq.status().ToString().c_str());
    return;
  }
  Hypergraph h = BuildHypergraph(rq->cq);
  Estimator estimator(&state.stats);
  StatsDecompositionCostModel model(h, BuildEdgeStats(rq->cq, estimator));
  QhdOptions qhd;
  qhd.max_width = state.options.max_width;
  auto decomp = QHypertreeDecomp(h, OutputVarsBitset(rq->cq), model, qhd);
  if (!decomp.ok()) {
    std::printf("error: %s\n", decomp.status().ToString().c_str());
    return;
  }
  std::printf("%s", decomp->hd.ToDot(h).c_str());
}

void Rewrite(ShellState& state, const std::string& sql) {
  HybridOptimizer optimizer(&state.catalog, &state.stats);
  auto rewritten = optimizer.RewriteQuery(sql, state.options);
  if (!rewritten.ok()) {
    std::printf("error: %s\n", rewritten.status().ToString().c_str());
    return;
  }
  std::printf("%s", rewritten->ToScript().c_str());
}

bool HandleCommand(ShellState& state, const std::string& line) {
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  if (cmd == "\\quit" || cmd == "\\q") return false;
  if (cmd == "\\help") {
    PrintHelp();
  } else if (cmd == "\\load") {
    std::string kind;
    in >> kind;
    if (kind == "tpch") {
      double sf = 0.005;
      in >> sf;
      PopulateTpch(TpchConfig{sf, 42}, &state.catalog);
      state.stats.AnalyzeAll(state.catalog);
      std::printf("loaded TPC-H at SF %g (%zu rows total)\n", sf,
                  state.catalog.TotalRows());
    } else if (kind == "synthetic") {
      SyntheticConfig config;
      in >> config.cardinality >> config.selectivity >>
          config.num_relations;
      PopulateSyntheticCatalog(config, &state.catalog);
      state.stats.AnalyzeAll(state.catalog);
      std::printf("loaded r1..r%zu (card %zu, selectivity %zu%%)\n",
                  config.num_relations, config.cardinality,
                  config.selectivity);
    } else {
      std::printf("usage: \\load tpch <sf> | \\load synthetic <card> <sel> "
                  "<n>\n");
    }
  } else if (cmd == "\\mode") {
    std::string name;
    in >> name;
    bool found = false;
    for (const auto& m : kModes) {
      if (name == m.name) {
        state.options.mode = m.mode;
        found = true;
      }
    }
    std::printf(found ? "mode = %s\n" : "unknown mode: %s\n", name.c_str());
  } else if (cmd == "\\width") {
    in >> state.options.max_width;
    std::printf("width bound k = %zu\n", state.options.max_width);
  } else if (cmd == "\\deadline") {
    in >> state.options.deadline_seconds;
    std::printf("deadline = %g s%s\n", state.options.deadline_seconds,
                state.options.deadline_seconds > 0 ? "" : " (off)");
  } else if (cmd == "\\budget") {
    long long nodes = 0;  // signed, so "-7" reads as negative instead of wrapping
    in >> nodes;
    if (nodes > 0) {
      state.options.search_node_budget = static_cast<std::size_t>(nodes);
      std::printf("search-node budget = %lld\n", nodes);
    } else {
      state.options.search_node_budget =
          std::numeric_limits<std::size_t>::max();
      std::printf("search-node budget off\n");
    }
  } else if (cmd == "\\mem") {
    long long bytes = 0;
    in >> bytes;
    if (bytes > 0) {
      state.options.memory_budget_bytes = static_cast<std::size_t>(bytes);
      state.options.enable_spill = true;
      std::printf("memory budget = %lld bytes (spilling past %g%% of it)\n",
                  bytes, state.options.soft_memory_fraction * 100.0);
    } else {
      state.options.memory_budget_bytes =
          std::numeric_limits<std::size_t>::max();
      state.options.enable_spill = false;
      std::printf("memory budget off\n");
    }
  } else if (cmd == "\\spill") {
    std::string dir;
    in >> dir;
    if (dir == "-") dir.clear();
    state.options.spill_dir = dir;
    std::printf("spill directory = %s\n",
                dir.empty() ? "<system temp>" : dir.c_str());
  } else if (cmd == "\\threads") {
    long long n = 0;
    in >> n;
    state.options.num_threads = n > 1 ? static_cast<std::size_t>(n) : 1;
    std::printf("threads = %zu%s\n", state.options.num_threads,
                state.options.num_threads == 1 ? " (serial engine)" : "");
  } else if (cmd == "\\shards") {
    long long n = 0;
    in >> n;
    state.options.num_shards = n > 0 ? static_cast<std::size_t>(n) : 0;
    std::printf("shards = %zu%s\n", state.options.num_shards,
                state.options.num_shards == 0
                    ? " (sharded evaluation off)"
                    : " (hash-partitioned semijoin reduction)");
  } else if (cmd == "\\cache") {
    std::string arg;
    in >> arg;
    if (arg == "on") {
      state.options.use_plan_cache = true;
      std::printf("plan cache on\n");
    } else if (arg == "off") {
      state.options.use_plan_cache = false;
      std::printf("plan cache off\n");
    } else if (arg == "clear") {
      DecompCache::Global().Clear();
      std::printf("plan cache cleared\n");
    } else {
      DecompCache::Stats s = DecompCache::Global().stats();
      std::printf("plan cache %s: %llu entries, %llu/%llu bytes\n"
                  "  hits %llu, misses %llu, stale %llu, evictions %llu, "
                  "single-flight waits %llu\n",
                  state.options.use_plan_cache ? "on" : "off",
                  static_cast<unsigned long long>(s.entries),
                  static_cast<unsigned long long>(s.bytes),
                  static_cast<unsigned long long>(s.byte_budget),
                  static_cast<unsigned long long>(s.hits),
                  static_cast<unsigned long long>(s.misses),
                  static_cast<unsigned long long>(s.stale),
                  static_cast<unsigned long long>(s.evictions),
                  static_cast<unsigned long long>(s.singleflight_waits));
    }
  } else if (cmd == "\\adaptive") {
    std::string arg;
    in >> arg;
    if (arg == "on") {
      state.adaptive = true;
    } else if (arg == "off") {
      state.adaptive = false;
    } else if (!arg.empty()) {
      std::printf("usage: \\adaptive [on|off]\n");
      return true;
    } else {
      state.adaptive = !state.adaptive;
    }
    state.options.enable_replan = state.adaptive;
    std::printf("adaptive loop %s%s\n", state.adaptive ? "on" : "off",
                state.adaptive
                    ? " (mid-query replans + post-query stats feedback)"
                    : "");
  } else if (cmd == "\\explain") {
    state.explain = !state.explain;
    std::printf("explain %s\n", state.explain ? "on" : "off");
  } else if (cmd == "\\analyze") {
    state.analyze = !state.analyze;
    std::printf("analyze %s%s\n", state.analyze ? "on" : "off",
                state.analyze && !kTracingCompiledIn
                    ? " (tracing compiled out: spans will be empty)"
                    : "");
  } else if (cmd == "\\trace") {
    std::string path;
    in >> path;
    if (path == "-") path.clear();
    state.trace_path = path;
    std::printf("trace output = %s\n",
                path.empty() ? "off" : path.c_str());
  } else if (cmd == "\\stats") {
    // Manual statistics (Section 5 stand-alone usage): relation name, row
    // count, then one distinct count per column (0 or omitted = unknown).
    std::string name;
    std::size_t rows = 0;
    in >> name >> rows;
    std::vector<std::size_t> distinct;
    std::size_t d;
    while (in >> d) distinct.push_back(d);
    const Relation* rel = state.catalog.Find(name);
    if (rel != nullptr) distinct.resize(rel->arity(), 0);
    state.stats.Put(name, MakeManualStats(rows, distinct));
    std::printf("declared stats for %s: %zu rows, %zu column counts\n",
                name.c_str(), rows, distinct.size());
  } else if (cmd == "\\import") {
    std::string name, path;
    in >> name >> path;
    auto rel = ReadCsvFile(path);
    if (!rel.ok()) {
      std::printf("error: %s\n", rel.status().ToString().c_str());
    } else {
      std::printf("loaded %zu rows into %s\n", rel->NumRows(), name.c_str());
      state.catalog.Put(name, std::move(rel.value()));
      state.stats.AnalyzeAll(state.catalog);
    }
  } else if (cmd == "\\export") {
    std::string name, path;
    in >> name >> path;
    const Relation* rel = state.catalog.Find(name);
    if (rel == nullptr) {
      std::printf("error: unknown relation %s\n", name.c_str());
    } else {
      Status s = WriteCsvFile(*rel, path);
      std::printf("%s\n", s.ok() ? "written" : s.ToString().c_str());
    }
  } else if (cmd == "\\relations") {
    for (const std::string& name : state.catalog.Names()) {
      std::printf("  %-12s %8zu rows %s\n", name.c_str(),
                  state.catalog.Find(name)->NumRows(),
                  state.catalog.Find(name)->schema().ToString().c_str());
    }
  } else if (cmd == "\\dot") {
    std::string rest;
    std::getline(in, rest);
    Dot(state, rest);
  } else if (cmd == "\\rewrite") {
    std::string rest;
    std::getline(in, rest);
    Rewrite(state, rest);
  } else if (cmd == "\\q5") {
    RunSql(state, TpchQ5());
  } else if (cmd == "\\q8") {
    RunSql(state, TpchQ8());
  } else if (cmd == "\\slow") {
    std::size_t n = 10;
    in >> n;
    if (n == 0) n = 10;
    const FlightRecorder& recorder = FlightRecorder::Global();
    auto slow = recorder.Slowest(n);
    if (slow.empty()) {
      std::printf("flight recorder empty — run a query first\n");
    } else {
      std::printf("%-5s %-10s %-16s %9s %6s %5s %5s %10s %10s\n", "id",
                  "status", "fingerprint", "total ms", "rows", "w", "deg",
                  "plan ms", "exec ms");
      for (const FlightRecord& r : slow) {
        std::printf("%-5llu %-10s %016llx %9.2f %6llu %5u %5u %10.2f "
                    "%10.2f\n",
                    static_cast<unsigned long long>(r.id),
                    StatusCodeKebab(r.status),
                    static_cast<unsigned long long>(r.fingerprint),
                    r.total_us / 1e3, static_cast<unsigned long long>(r.rows),
                    r.width, r.degradations, r.plan_us / 1e3,
                    r.exec_us / 1e3);
      }
      std::printf("%zu of %llu recorded (ring capacity %zu)\n", slow.size(),
                  static_cast<unsigned long long>(recorder.total_recorded()),
                  recorder.capacity());
    }
  } else {
    std::printf("unknown command: %s (try \\help)\n", cmd.c_str());
  }
  return true;
}

}  // namespace

int main() {
  // SA_RESTART keeps the prompt's getline alive across ^C: the signal only
  // sets the cancel flag, and a running query notices it cooperatively.
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSigint;
  sa.sa_flags = SA_RESTART;
  sigaction(SIGINT, &sa, nullptr);

  ShellState state;
  state.options.mode = OptimizerMode::kQhdHybrid;
  // Interactive sessions re-plan the same templates constantly; the cache
  // is on by default here (libraries opt in via RunOptions).
  state.options.use_plan_cache = true;
  state.explain = true;
  std::printf("htqo shell — hypertree decompositions for query "
              "optimization.\nType \\help for commands.\n");

  std::string buffer;
  std::string line;
  bool interactive = true;
  while (interactive) {
    std::printf(buffer.empty() ? "htqo> " : "  ...> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (buffer.empty() && !line.empty() && line[0] == '\\') {
      if (!HandleCommand(state, line)) break;
      continue;
    }
    buffer += line + "\n";
    if (line.find(';') != std::string::npos) {
      RunSql(state, buffer);
      buffer.clear();
    } else if (line.empty()) {
      buffer.clear();
    }
  }
  std::printf("\n");
  return 0;
}
