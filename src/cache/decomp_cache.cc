#include "cache/decomp_cache.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>

#include "obs/metrics.h"
#include "stats/statistics.h"
#include "util/fault_injector.h"

namespace htqo {

namespace {

// Approximate retained footprint of an entry: tree nodes with their bitset
// words and child lists, plus the epoch snapshot and the key certificate it
// is stored under. Order-of-magnitude accounting is enough for an LRU byte
// budget.
std::size_t EstimateEntryBytes(const DecompCache::Entry& entry,
                               const PlanCacheKey& key) {
  std::size_t bytes = sizeof(DecompCache::Entry) + key.certificate.size() +
                      entry.no_decomposition.message().size();
  const std::size_t chi_words = (entry.num_vertices + 63) / 64;
  const std::size_t lambda_words = (entry.num_edges + 63) / 64;
  for (std::size_t i = 0; i < entry.canon_hd.NumNodes(); ++i) {
    const HypertreeNode& n = entry.canon_hd.node(i);
    bytes += sizeof(HypertreeNode) + 8 * (chi_words + lambda_words) +
             8 * (n.children.size() + n.priority_children.size());
  }
  for (const auto& [name, epoch] : entry.epochs) {
    bytes += sizeof(std::pair<std::string, uint64_t>) + name.size();
  }
  return bytes;
}

struct CacheMetrics {
  Counter* hits;
  Counter* misses;
  Counter* evictions;
  Counter* stale;
  Counter* singleflight_waits;
  Histogram* hit_latency_us;

  static CacheMetrics& Get() {
    static CacheMetrics* m = [] {
      MetricsRegistry& reg = MetricsRegistry::Global();
      return new CacheMetrics{
          reg.GetCounter(kMetricPlanCacheHitsTotal),
          reg.GetCounter(kMetricPlanCacheMissesTotal),
          reg.GetCounter(kMetricPlanCacheEvictionsTotal),
          reg.GetCounter(kMetricPlanCacheStaleTotal),
          reg.GetCounter(kMetricPlanCacheSingleflightWaitsTotal),
          reg.GetHistogram(kMetricPlanCacheHitLatencyUs)};
    }();
    return *m;
  }
};

std::string FingerprintHex(const PlanCacheKey& key) {
  char buf[34];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(key.hi),
                static_cast<unsigned long long>(key.lo));
  return buf;
}

}  // namespace

PlanCacheKey PlanCacheKey::FromCertificate(std::string certificate) {
  PlanCacheKey key;
  key.certificate = std::move(certificate);
  Fingerprint128(key.certificate, &key.lo, &key.hi);
  return key;
}

DecompCache::DecompCache(std::size_t byte_budget, std::size_t num_shards)
    : byte_budget_(byte_budget) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

DecompCache& DecompCache::Global() {
  static DecompCache* cache = new DecompCache();
  return *cache;
}

DecompCache::AcquireResult DecompCache::Acquire(const PlanCacheKey& key,
                                                const Validator& fresh,
                                                ResourceGovernor* governor) {
  CacheMetrics& metrics = CacheMetrics::Get();
  const std::pair<uint64_t, uint64_t> kp{key.lo, key.hi};
  Shard& s = shard(key);
  AcquireResult result;
  std::unique_lock<std::mutex> lock(s.mu);
  for (;;) {
    auto it = s.table.find(kp);
    if (it != s.table.end() && it->second.certificate == key.certificate) {
      if (fresh == nullptr || fresh(*it->second.entry)) {
        s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
        hits_.fetch_add(1, std::memory_order_relaxed);
        metrics.hits->Increment();
        result.kind = AcquireKind::kHit;
        result.entry = it->second.entry;
        return result;
      }
      // Stale: drop it and fall through to claiming the recompute.
      s.bytes -= it->second.entry->bytes;
      s.lru.erase(it->second.lru_it);
      s.table.erase(it);
      stale_.fetch_add(1, std::memory_order_relaxed);
      metrics.stale->Increment();
      result.stale = true;
    } else if (it != s.table.end()) {
      // 128-bit fingerprint collision with a different certificate: treat
      // as a miss; Publish will overwrite the colliding slot.
      s.bytes -= it->second.entry->bytes;
      s.lru.erase(it->second.lru_it);
      s.table.erase(it);
    }
    auto fit = s.flights.find(kp);
    if (fit == s.flights.end()) {
      s.flights.emplace(kp, std::make_shared<Flight>());
      misses_.fetch_add(1, std::memory_order_relaxed);
      metrics.misses->Increment();
      result.kind = AcquireKind::kOwner;
      return result;
    }
    // Someone else is computing this fingerprint: wait for their Publish,
    // checking the governor so a deadline still fires mid-wait.
    result.waited = true;
    std::shared_ptr<Flight> flight = fit->second;
    while (!flight->done) {
      if (governor != nullptr) {
        s.cv.wait_for(lock, std::chrono::milliseconds(2));
        Status st = governor->Check();
        if (!st.ok()) {
          result.kind = AcquireKind::kTripped;
          result.status = st;
          return result;
        }
      } else {
        s.cv.wait(lock);
      }
    }
    singleflight_waits_.fetch_add(1, std::memory_order_relaxed);
    metrics.singleflight_waits->Increment();
    if (flight->result != nullptr) {
      result.kind = AcquireKind::kShared;
      result.entry = flight->result;
      return result;
    }
    // The owner's search failed; every waiter computes (and fails or
    // degrades) under its own budgets, without re-claiming the flight.
    result.kind = AcquireKind::kRetry;
    return result;
  }
}

void DecompCache::Publish(const PlanCacheKey& key, EntryPtr entry) {
  const std::pair<uint64_t, uint64_t> kp{key.lo, key.hi};
  Shard& s = shard(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto fit = s.flights.find(kp);
  if (fit != s.flights.end()) {
    fit->second->done = true;
    fit->second->result = entry;
    s.flights.erase(fit);
  }
  s.cv.notify_all();
  if (entry != nullptr) InsertLocked(&s, key, std::move(entry));
}

void DecompCache::InsertLocked(Shard* s, const PlanCacheKey& key,
                               EntryPtr entry) {
  // Injected insert failure: the computed result was already handed to the
  // caller and any waiters; only the retain degrades (to a future miss).
  if (FaultInjector::Instance().ShouldFail(kFaultSiteCacheInsert)) return;
  CacheMetrics& metrics = CacheMetrics::Get();
  const std::pair<uint64_t, uint64_t> kp{key.lo, key.hi};
  // Publish computed `bytes` on a mutable copy before the entry goes const.
  auto sized = std::make_shared<Entry>(*entry);
  sized->bytes = EstimateEntryBytes(*sized, key);
  auto it = s->table.find(kp);
  if (it != s->table.end()) {
    s->bytes -= it->second.entry->bytes;
    s->lru.erase(it->second.lru_it);
    s->table.erase(it);
  }
  s->lru.push_front(kp);
  Slot slot;
  slot.certificate = key.certificate;
  slot.entry = std::move(sized);
  slot.lru_it = s->lru.begin();
  s->bytes += slot.entry->bytes;
  s->table.emplace(kp, std::move(slot));
  const std::size_t per_shard =
      std::max<std::size_t>(1, byte_budget_.load(std::memory_order_relaxed) /
                                   shards_.size());
  while (s->bytes > per_shard && !s->lru.empty()) {
    auto victim = s->table.find(s->lru.back());
    s->bytes -= victim->second.entry->bytes;
    s->lru.pop_back();
    s->table.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    metrics.evictions->Increment();
  }
}

void DecompCache::Clear() {
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    s->table.clear();
    s->lru.clear();
    s->bytes = 0;
  }
}

void DecompCache::set_byte_budget(std::size_t bytes) {
  // Applied lazily by the next insert's eviction loop.
  byte_budget_.store(bytes, std::memory_order_relaxed);
}

DecompCache::Stats DecompCache::stats() const {
  Stats stats;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    stats.entries += s->table.size();
    stats.bytes += s->bytes;
  }
  stats.byte_budget = byte_budget_.load(std::memory_order_relaxed);
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.stale = stale_.load(std::memory_order_relaxed);
  stats.singleflight_waits =
      singleflight_waits_.load(std::memory_order_relaxed);
  return stats;
}

std::string PlanCacheOutcome::ToString() const {
  if (!enabled) return "";
  if (hit) return waited ? "shared-hit" : "hit";
  return stale ? "stale-miss" : "miss";
}

Hypertree MapHypertree(const Hypertree& in,
                       const std::vector<std::size_t>& vertex_map,
                       const std::vector<std::size_t>& edge_map,
                       std::size_t num_vertices, std::size_t num_edges) {
  Hypertree out;
  for (std::size_t i = 0; i < in.NumNodes(); ++i) {
    const HypertreeNode& n = in.node(i);
    Bitset chi(num_vertices);
    for (std::size_t v = n.chi.FirstSet(); v < n.chi.size();
         v = n.chi.NextSet(v)) {
      chi.Set(vertex_map[v]);
    }
    Bitset lambda(num_edges);
    for (std::size_t e = n.lambda.FirstSet(); e < n.lambda.size();
         e = n.lambda.NextSet(e)) {
      lambda.Set(edge_map[e]);
    }
    out.AddNode(std::move(chi), std::move(lambda), n.parent);
    out.mutable_node(i).priority_children = n.priority_children;
  }
  return out;
}

Result<QhdResult> CachedQHypertreeDecomp(
    const Hypergraph& h, const Bitset& out_vars,
    const std::vector<std::string>& edge_labels,
    const StatisticsRegistry* stats, std::size_t max_width,
    bool use_statistics, ResourceGovernor* governor, Tracer* tracer,
    const std::function<Result<QhdResult>()>& compute,
    PlanCacheOutcome* outcome) {
  outcome->enabled = true;
  DecompCache& cache = DecompCache::Global();
  const auto warm_start = std::chrono::steady_clock::now();

  // Relations local to a statistics overlay (derived tables) exist only in
  // this statement's overlay, so a process-wide epoch cannot track them.
  // Their certificate label carries a fingerprint of their statistics
  // instead: a re-run with equal derived stats finds its entry, and other
  // bindings get entries of their own rather than evicting each other as
  // stale under one key. A fingerprint collision can only rebind another
  // valid decomposition of this same hypergraph (the certificate still
  // pins the shape), so it may cost plan quality, never a wrong answer.
  std::vector<std::string> labels = edge_labels;
  std::map<std::string, uint64_t> epoch_by_name;
  for (std::string& label : labels) {
    std::optional<uint64_t> fp;
    if (stats != nullptr) fp = stats->OverlayFingerprint(label);
    if (!fp.has_value()) {
      epoch_by_name.emplace(label, 0);
      continue;
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "#%016llx",
                  static_cast<unsigned long long>(*fp));
    label += buf;
  }

  CanonicalForm form;
  PlanCacheKey key;
  {
    ScopedSpan span(tracer, "cache.lookup");
    form = CanonicalizeHypergraph(h, out_vars, labels);
    // The certificate covers everything a reusable search result depends
    // on: the canonical labeled hypergraph + out-set, the width bound, and
    // the cost-model flavor (not run_optimize — entries are pre-Optimize).
    std::string cert = std::move(form.certificate);
    cert += "|w";
    cert += std::to_string(max_width);
    cert += use_statistics ? "|stats" : "|struct";
    key = PlanCacheKey::FromCertificate(std::move(cert));
    span.Attr("fingerprint", FingerprintHex(key));
  }

  // Epoch snapshot, taken *before* the search: a stats update racing the
  // compute leaves the entry already-stale, which errs toward recompute.
  for (auto& [name, epoch] : epoch_by_name) {
    epoch = StatsEpochRegistry::Global().Get(name);
  }
  std::vector<std::pair<std::string, uint64_t>> epochs(epoch_by_name.begin(),
                                                       epoch_by_name.end());
  auto fresh = [&](const DecompCache::Entry& e) {
    return e.num_vertices == h.NumVertices() &&
           e.num_edges == h.NumEdges() && e.epochs == epochs;
  };

  DecompCache::AcquireResult acq = cache.Acquire(key, fresh, governor);
  outcome->stale = acq.stale;
  outcome->waited = acq.waited;
  switch (acq.kind) {
    case DecompCache::AcquireKind::kTripped:
      return acq.status;
    case DecompCache::AcquireKind::kHit:
    case DecompCache::AcquireKind::kShared: {
      outcome->hit = true;
      if (!acq.entry->no_decomposition.ok()) {
        return acq.entry->no_decomposition;
      }
      ScopedSpan span(tracer, "cache.rebind");
      span.Attr("nodes", acq.entry->canon_hd.NumNodes());
      if (governor != nullptr) {
        Status st = governor->ChargeNodes(acq.entry->canon_hd.NumNodes());
        if (!st.ok()) return st;
      }
      QhdResult result;
      result.hd =
          MapHypertree(acq.entry->canon_hd, form.canon_to_vertex,
                       form.canon_to_edge, h.NumVertices(), h.NumEdges());
      result.width = acq.entry->width;
      CacheMetrics::Get().hit_latency_us->Record(static_cast<uint64_t>(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - warm_start)
              .count()));
      return result;
    }
    case DecompCache::AcquireKind::kOwner: {
      Result<QhdResult> computed = compute();
      // "No decomposition of width <= k" is as reusable as a decomposition;
      // a governor trip (or any other failure) says nothing about the
      // hypergraph and is never retained.
      const bool negative =
          !computed.ok() &&
          computed.status().code() == StatusCode::kNotFound &&
          (governor == nullptr || !governor->exhausted());
      if (!computed.ok() && !negative) {
        cache.Publish(key, nullptr);
        return computed;
      }
      auto entry = std::make_shared<DecompCache::Entry>();
      if (negative) {
        entry->no_decomposition = computed.status();
      } else {
        entry->canon_hd = MapHypertree(computed->hd, form.vertex_to_canon,
                                       form.edge_to_canon, h.NumVertices(),
                                       h.NumEdges());
        entry->width = computed->width;
      }
      entry->num_vertices = h.NumVertices();
      entry->num_edges = h.NumEdges();
      entry->epochs = std::move(epochs);
      cache.Publish(key, std::move(entry));
      return computed;
    }
    case DecompCache::AcquireKind::kRetry:
      return compute();
  }
  return Status::Internal("unreachable cache acquire kind");
}

}  // namespace htqo
