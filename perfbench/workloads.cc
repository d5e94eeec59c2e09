// Workload generators and set-up (data, ANALYZE, server, warm-up).
#include <algorithm>
#include <cmath>
#include <set>
#include <thread>

#include "bench.h"
#include "cache/decomp_cache.h"
#include "cq/hypergraph_builder.h"
#include "cq/isolator.h"
#include "hypergraph/canonical.h"
#include "server/client.h"
#include "sql/parser.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/synthetic.h"
#include "workload/tpch_gen.h"
#include "workload/tpch_queries.h"

namespace perfbench {

using htqo::Catalog;
using htqo::Relation;
using htqo::Rng;
using htqo::Status;
using htqo::Value;

namespace {

// slo_ms: about three times the workload's p90 on the reference host
// (README.md), so slo_ok_frac reads ~1 and falls when the tail grows.
const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"tpch_exec", 200.0},
      {"tpch_spill", 900.0},
      {"cyclic_plan", 75.0},
      {"server_mixed", 10.0},
  };
  return specs;
}

// Input sizes (README.md, "Workloads").
constexpr double kTpchScale = 0.05;         // tpch_exec, tpch_spill
constexpr double kServerTpchScale = 0.005;  // server_mixed
constexpr std::size_t kSpillBudgetBytes = 12u << 20;
constexpr std::size_t kCyclicRows = 100;
constexpr std::size_t kCyclicPlanted = 4;
constexpr std::size_t kCyclicSelectivity = 90;
constexpr std::size_t kCyclicBinary = 8;   // b1..b8 (a, b)
constexpr std::size_t kCyclicTernary = 4;  // t1..t4 (a, b, c)
constexpr std::size_t kCyclicWarmup = 150;
constexpr std::size_t kCyclicTimed = 6000;  // ~3x what a 20 s run uses
// Width bound of the cyclic_plan search (RunOptions::max_width; k=4 is the
// default): k=3 keeps the mean search near 10 ms, so a run collects over
// a thousand latency samples.
constexpr std::size_t kCyclicMaxWidth = 3;
constexpr std::size_t kCyclicCacheBytes = 256u << 10;
constexpr std::size_t kServerSynthRows = 300;
constexpr std::size_t kServerSynthSelectivity = 50;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + salt);
  return rng.Next();
}

// The tpch_exec / tpch_spill rotation: fixed bindings of Q5 (3), flat Q8
// (2) and nested Q8 (4), in an order drawn from the seed. The bindings are
// fixed because Q5's cost, and how deeply it spills, depends on them. The
// mix puts the median inside one latency cluster rather than on the gap
// between two: Q5 and nested Q8 (7 of 9) on tpch_exec, nested Q8 (ranks
// 3-6 of 9, between flat Q8 and the spilling Q5) on tpch_spill.
std::vector<Query> TpchRotation(uint64_t seed) {
  std::vector<Query> out = {
      {htqo::TpchQ5("ASIA", "1994-01-01"), false},
      {htqo::TpchQ5("EUROPE", "1995-01-01"), false},
      {htqo::TpchQ5("AMERICA", "1996-01-01"), false},
      {htqo::TpchQ8("AMERICA", "ECONOMY ANODIZED STEEL"), false},
      {htqo::TpchQ8("ASIA", "STANDARD POLISHED BRASS"), false},
      {htqo::TpchQ8Nested("AFRICA", "LARGE PLATED TIN"), true},
      {htqo::TpchQ8Nested("MIDDLE EAST", "MEDIUM BRUSHED NICKEL"), true},
      {htqo::TpchQ8Nested("AMERICA", "SMALL ANODIZED STEEL"), true},
      {htqo::TpchQ8Nested("EUROPE", "PROMO BURNISHED COPPER"), true},
  };
  Rng rng(Mix(seed, 5));
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.Uniform(i)]);
  }
  return out;
}

// --- cyclic_plan shapes -------------------------------------------------
//
// A ring of L variables closed by L ring atoms; a third of the ring atoms
// are ternary with a chord to a random non-adjacent variable, and c extra
// binary chord atoms join random variable pairs. The size mix is fixed
// rather than drawn: draw i has 8 + i % 9 atoms (8..16) and 1 + (i / 9) %
// (atoms / 4) chord atoms, so every run plans the same mix of sizes and
// only the shapes within a size vary with the seed.
std::string CyclicQuerySql(Rng& rng, std::size_t draw) {
  const std::size_t atoms = 8 + draw % 9;
  const std::size_t chords = 1 + (draw / 9) % (atoms / 4);
  const std::size_t ring = atoms - chords;
  struct AtomSpec {
    std::string relation;
    std::vector<std::size_t> vars;
  };
  std::vector<AtomSpec> spec;
  auto far_var = [&](std::size_t a, std::size_t b) {
    std::size_t v;
    do {
      v = rng.Uniform(ring);
    } while (v == a || v == b);
    return v;
  };
  for (std::size_t i = 0; i < ring; ++i) {
    const std::size_t next = (i + 1) % ring;
    if (rng.Uniform(3) == 0) {
      spec.push_back({"t" + std::to_string(1 + rng.Uniform(kCyclicTernary)),
                      {i, next, far_var(i, next)}});
    } else {
      spec.push_back({"b" + std::to_string(1 + rng.Uniform(kCyclicBinary)),
                      {i, next}});
    }
  }
  for (std::size_t c = 0; c < chords; ++c) {
    const std::size_t a = rng.Uniform(ring);
    spec.push_back({"b" + std::to_string(1 + rng.Uniform(kCyclicBinary)),
                    {a, far_var(a, (a + 1) % ring)}});
  }
  static const char* const kCols[] = {"a", "b", "c"};
  std::vector<std::string> from;
  std::vector<std::vector<std::string>> occurrences(ring);
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const std::string alias = "x" + std::to_string(i);
    from.push_back(spec[i].relation + " " + alias);
    for (std::size_t k = 0; k < spec[i].vars.size(); ++k) {
      occurrences[spec[i].vars[k]].push_back(alias + "." + kCols[k]);
    }
  }
  std::vector<std::string> where;
  for (const auto& occ : occurrences) {
    for (std::size_t k = 1; k < occ.size(); ++k) {
      where.push_back(occ[0] + " = " + occ[k]);
    }
  }
  return "SELECT DISTINCT " + occurrences[0][0] + " FROM " +
         htqo::Join(from, ", ") + " WHERE " + htqo::Join(where, " AND ");
}

// Draws `count` queries whose plan-cache certificates (the canonical form
// DecompCache keys on) differ from each other and from `seen`.
Status DistinctCyclicQueries(const Catalog& catalog, Rng& rng,
                             std::size_t count, std::set<std::string>* seen,
                             std::vector<Query>* out) {
  for (std::size_t draw = 0; out->size() < count; ++draw) {
    if (draw > count * 20) {
      return Status::Internal("cyclic_plan: too few distinct shapes");
    }
    std::string sql = CyclicQuerySql(rng, draw);
    auto stmt = htqo::ParseSelect(sql);
    if (!stmt.ok()) return stmt.status();
    auto rq = htqo::IsolateConjunctiveQuery(*stmt, catalog);
    if (!rq.ok()) return rq.status();
    std::vector<std::string> labels;
    for (const auto& atom : rq->cq.atoms) {
      labels.push_back(htqo::ToLower(atom.relation));
    }
    htqo::Hypergraph h = htqo::BuildHypergraph(rq->cq);
    auto form = htqo::CanonicalizeHypergraph(
        h, htqo::OutputVarsBitset(rq->cq), labels);
    if (seen->insert(form.certificate).second) {
      out->push_back({std::move(sql), false});
    }
  }
  return Status::Ok();
}

// --- server_mixed templates ---------------------------------------------

// Line (acyclic) or chain (cyclic) query over r1..rn with the aliases
// renamed and the FROM items and conjuncts permuted when `rng` is given —
// an isomorphic variant, so it maps to the same plan-cache entry.
std::string LineOrChain(std::size_t n, bool cycle, Rng* rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::string prefix = "x";
  if (rng != nullptr) {
    prefix = "v";
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng->Uniform(i)]);
    }
  }
  auto alias = [&](std::size_t i) {
    return prefix + std::to_string(order[i] + 10);
  };
  std::vector<std::string> from;
  for (std::size_t i = 0; i < n; ++i) {
    from.push_back("r" + std::to_string(i + 1) + " " + alias(i));
  }
  std::vector<std::string> where;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    where.push_back(alias(i) + ".b = " + alias(i + 1) + ".a");
  }
  if (cycle) where.push_back(alias(n - 1) + ".b = " + alias(0) + ".a");
  if (rng != nullptr) {
    for (std::size_t i = from.size(); i > 1; --i) {
      std::swap(from[i - 1], from[rng->Uniform(i)]);
    }
    for (std::size_t i = where.size(); i > 1; --i) {
      std::swap(where[i - 1], where[rng->Uniform(i)]);
    }
  }
  return "SELECT DISTINCT " + alias(0) + ".a FROM " + htqo::Join(from, ", ") +
         " WHERE " + htqo::Join(where, " AND ");
}

// Permutes the FROM list and the WHERE conjuncts of a flat TPC-H query
// as rendered by workload/tpch_queries.cc.
std::string PermuteTpch(const std::string& sql, Rng& rng) {
  const std::size_t from = sql.find("\nFROM ");
  const std::size_t where = sql.find("\nWHERE ");
  const std::size_t group = sql.find("\nGROUP BY");
  std::vector<std::string> items =
      htqo::Split(sql.substr(from + 6, where - from - 6), ',');
  for (auto& item : items) {
    item.erase(0, item.find_first_not_of(' '));
  }
  std::vector<std::string> conjuncts;
  std::string body = sql.substr(where + 7, group - where - 7);
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = body.find("\n  AND ", pos);
    conjuncts.push_back(body.substr(pos, next - pos));
    if (next == std::string::npos) break;
    pos = next + 7;
  }
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Uniform(i)]);
  }
  for (std::size_t i = conjuncts.size(); i > 1; --i) {
    std::swap(conjuncts[i - 1], conjuncts[rng.Uniform(i)]);
  }
  return sql.substr(0, from) + "\nFROM " + htqo::Join(items, ", ") +
         "\nWHERE " + htqo::Join(conjuncts, "\n  AND ") + sql.substr(group);
}

// 8 TPC-H templates (~3 ms) and 16 line/chain templates (<1 ms): a third
// of the mix is TPC-H, so p50 falls inside the short cluster and p90/p99
// inside the TPC-H one rather than on the gap between them.
std::vector<Query> ServerTemplates(uint64_t seed) {
  Rng rng(Mix(seed, 11));
  const std::vector<std::string> base = {
      htqo::TpchQ5("ASIA", "1994-01-01"),
      htqo::TpchQ5("EUROPE", "1995-01-01"),
      htqo::TpchQ8("AMERICA", "ECONOMY ANODIZED STEEL"),
      htqo::TpchQ8("ASIA", "STANDARD POLISHED BRASS"),
  };
  std::vector<Query> out;
  for (const std::string& sql : base) {
    out.push_back({sql, false});
    out.push_back({PermuteTpch(sql, rng), false});
  }
  for (std::size_t n : {3, 4, 5, 6}) {
    for (bool cycle : {false, true}) {
      out.push_back({LineOrChain(n, cycle, nullptr), false});
      out.push_back({LineOrChain(n, cycle, &rng), false});
    }
  }
  return out;
}

// Random low-fan-out relations plus kCyclicPlanted "diagonal" rows (v, v)
// / (v, v, v) that share their values across all relations. Random cyclic
// joins with chords are almost always empty, so without the planted rows
// the result check would compare empty answers; with them every query
// answers at least the planted values.
void PopulateCyclic(uint64_t seed, Catalog* catalog) {
  const std::size_t random_rows = kCyclicRows - kCyclicPlanted;
  const std::size_t domain = random_rows * kCyclicSelectivity / 100;
  Rng rng(Mix(seed, 300));
  std::vector<Value> planted;
  for (std::size_t i = 0; i < kCyclicPlanted; ++i) {
    planted.push_back(Value::Int64(static_cast<int64_t>(rng.Uniform(domain))));
  }
  auto add = [&](const std::string& name,
                 const std::vector<std::string>& columns, uint64_t salt) {
    Relation rel = htqo::MakeSyntheticRelation(
        random_rows, columns, kCyclicSelectivity, Mix(seed, salt));
    for (const Value& v : planted) {
      rel.AddRow(std::vector<Value>(columns.size(), v));
    }
    catalog->Put(name, std::move(rel));
  };
  for (std::size_t i = 1; i <= kCyclicBinary; ++i) {
    add("b" + std::to_string(i), {"a", "b"}, 100 + i);
  }
  for (std::size_t i = 1; i <= kCyclicTernary; ++i) {
    add("t" + std::to_string(i), {"a", "b", "c"}, 200 + i);
  }
}

htqo::RunOptions BaseOptions() {
  htqo::RunOptions o;
  o.mode = htqo::OptimizerMode::kQhdHybrid;
  o.use_plan_cache = true;
  o.num_threads = 1;
  return o;
}

Status RunWarmup(Setup* setup) {
  if (setup->server != nullptr) {
    htqo::ClientOptions co;
    co.port = setup->server->port();
    co.tenant = setup->tenants.front();
    htqo::Client client(co);
    Status s = client.Connect();
    if (!s.ok()) return s;
    for (const Query& q : setup->warmup) {
      auto reply = client.Query(q.sql);
      if (!reply.ok()) return reply.status();
    }
    return Status::Ok();
  }
  const htqo::HybridOptimizer optimizer(&setup->catalog, &setup->stats);
  for (const Query& q : setup->warmup) {
    auto run = optimizer.Run(q.sql, setup->options);
    if (!run.ok()) return run.status();
  }
  return Status::Ok();
}

void FoldBytes(uint64_t* h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 0x100000001b3ull;  // FNV-1a
  }
}

void FoldString(uint64_t* h, const std::string& s) {
  const uint64_t n = s.size();
  FoldBytes(h, &n, sizeof(n));
  FoldBytes(h, s.data(), s.size());
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Specs()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& w : Specs()) names.push_back(w.name);
  return names;
}

Status GenerateInputs(const SetupConfig& config, Setup* setup) {
  setup->workload = config.workload;
  setup->seed = config.seed;
  setup->options = BaseOptions();
  const std::string& w = config.workload;
  if (w == "tpch_exec" || w == "tpch_spill") {
    htqo::PopulateTpch({kTpchScale, Mix(config.seed, 1)}, &setup->catalog);
    setup->timed = TpchRotation(config.seed);
    setup->warmup = setup->timed;
    if (w == "tpch_spill") {
      setup->options.enable_spill = true;
      setup->options.memory_budget_bytes = kSpillBudgetBytes;
      setup->options.spill_dir = config.work_dir;
    }
    return Status::Ok();
  }
  if (w == "cyclic_plan") {
    PopulateCyclic(config.seed, &setup->catalog);
    setup->options.max_width = kCyclicMaxWidth;
    Rng rng(Mix(config.seed, 3));
    std::set<std::string> seen;
    Status s = DistinctCyclicQueries(setup->catalog, rng, kCyclicWarmup,
                                     &seen, &setup->warmup);
    if (!s.ok()) return s;
    return DistinctCyclicQueries(setup->catalog, rng, kCyclicTimed, &seen,
                                 &setup->timed);
  }
  if (w == "server_mixed") {
    htqo::PopulateTpch({kServerTpchScale, Mix(config.seed, 1)},
                       &setup->catalog);
    htqo::SyntheticConfig sc;
    sc.cardinality = kServerSynthRows;
    sc.selectivity = kServerSynthSelectivity;
    sc.num_relations = 6;
    sc.seed = Mix(config.seed, 2);
    htqo::PopulateSyntheticCatalog(sc, &setup->catalog);
    setup->timed = ServerTemplates(config.seed);
    setup->warmup = setup->timed;
    return Status::Ok();
  }
  return Status::InvalidArgument("unknown workload: " + w);
}

Status BuildSetup(const SetupConfig& config, Setup* setup) {
  const auto t0 = Clock::now();
  Status s = GenerateInputs(config, setup);
  if (!s.ok()) return s;
  const auto t1 = Clock::now();
  setup->stats.AnalyzeAll(setup->catalog);
  const auto t2 = Clock::now();
  if (config.workload == "cyclic_plan") {
    htqo::DecompCache::Global().set_byte_budget(kCyclicCacheBytes);
  }
  if (config.workload == "server_mixed") {
    const std::size_t nproc =
        std::max(1u, std::thread::hardware_concurrency());
    // One client per CPU, 2..4. Fewer clients than CPUs was less steady on
    // the reference host (idle CPUs wake slowly): with 2 clients on 4
    // CPUs, qps varied 30% across runs, against 7% with 4.
    setup->clients = std::clamp<std::size_t>(nproc, 2, 4);
    setup->tenants = {"tenant_a", "tenant_b"};
    htqo::ServerOptions so;
    so.run_template = BaseOptions();
    so.admission.max_total_concurrent = setup->clients;
    so.admission.default_quota.max_concurrent = (setup->clients + 1) / 2;
    so.admission.default_quota.max_queue_depth = 8;
    setup->server = std::make_unique<htqo::QueryServer>(
        &setup->catalog,
        static_cast<const htqo::StatisticsRegistry*>(&setup->stats),
        std::move(so));
    s = setup->server->Start();
    if (!s.ok()) return s;
  }
  s = RunWarmup(setup);
  if (!s.ok()) return s;
  const auto t3 = Clock::now();
  setup->datagen_s = SecondsBetween(t0, t1);
  setup->analyze_s = SecondsBetween(t1, t2);
  setup->warmup_s = SecondsBetween(t2, t3);
  return Status::Ok();
}

uint64_t DataFingerprint(const Catalog& catalog) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& name : catalog.Names()) {
    const Relation* rel = catalog.Find(name);
    FoldString(&h, name);
    for (std::size_t c = 0; c < rel->arity(); ++c) {
      FoldString(&h, rel->schema().column(c).name);
    }
    for (std::size_t r = 0; r < rel->NumRows(); ++r) {
      for (const Value& v : rel->Row(r)) {
        const uint64_t vh = v.Hash();
        FoldBytes(&h, &vh, sizeof(vh));
      }
    }
  }
  return h;
}

uint64_t QueryFingerprint(const Setup& setup) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const auto* list : {&setup.warmup, &setup.timed}) {
    for (const Query& q : *list) FoldString(&h, q.sql);
  }
  return h;
}

bool AnswerLog::Check(std::size_t k, const Relation& rel) {
  std::string text = rel.ToString(1u << 20);
  if (!first_[k].has_value()) {
    first_[k] = rel;
    rendered_[k] = std::move(text);
    return true;
  }
  return rendered_[k] == text;
}

bool SameResult(const Relation& a, const Relation& b, std::string* why) {
  if (a.arity() != b.arity() || a.NumRows() != b.NumRows()) {
    *why = "shape " + std::to_string(a.NumRows()) + "x" +
           std::to_string(a.arity()) + " vs " + std::to_string(b.NumRows()) +
           "x" + std::to_string(b.arity());
    return false;
  }
  std::vector<std::size_t> all(a.arity());
  for (std::size_t c = 0; c < all.size(); ++c) all[c] = c;
  Relation sa = a;
  Relation sb = b;
  sa.SortBy(all);
  sb.SortBy(all);
  for (std::size_t r = 0; r < sa.NumRows(); ++r) {
    for (std::size_t c = 0; c < sa.arity(); ++c) {
      const Value& x = sa.At(r, c);
      const Value& y = sb.At(r, c);
      if (x.type() == htqo::ValueType::kDouble &&
          y.type() == htqo::ValueType::kDouble) {
        const double dx = x.AsDouble();
        const double dy = y.AsDouble();
        if (std::fabs(dx - dy) <=
            1e-9 * std::max({1.0, std::fabs(dx), std::fabs(dy)})) {
          continue;
        }
      } else if (x == y) {
        continue;
      }
      *why = "row " + std::to_string(r) + " col " + std::to_string(c) +
             ": " + x.ToString() + " vs " + y.ToString();
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
