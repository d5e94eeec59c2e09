// Process-wide decomposition & plan cache keyed by canonical hypergraph
// fingerprints (DESIGN.md §6e).
//
// A (q-)hypertree decomposition depends only on the query's labeled
// hypergraph and output-variable set, so repeated query *templates* —
// same shape over the same relations, different constants and names —
// can reuse one search result. DecompCache stores completed (pre-Optimize)
// decompositions in canonical vertex/edge numbering:
//
//   * keyed by the 128-bit fingerprint of the canonical certificate (which
//     folds in the width bound and cost-model flavor); the full certificate
//     is kept in the entry and compared on lookup, so a fingerprint
//     collision degrades to a miss, never a wrong rebind;
//   * sharded (fingerprint-low bits) with per-shard LRU eviction under a
//     process byte budget;
//   * single-flight: concurrent misses on one fingerprint compute once —
//     the first caller owns the search, later callers block on a per-shard
//     condition variable (governor-checkpointed, so a deadline still fires
//     mid-wait) and share the published entry;
//   * invalidated by statistics epochs: each entry snapshots the
//     StatsEpochRegistry epoch of every referenced root-registry relation
//     at compute time; any later ANALYZE/Put/Clear makes the entry stale
//     and the next lookup transparently recomputes. Relations local to a
//     statistics overlay (derived tables) carry a fingerprint of their
//     statistics in their certificate edge label instead, so a re-run of
//     the same nested statement finds its own entry;
//   * negative entries: a search that finds no decomposition of width <= k
//     (kNotFound) is cached like a found one, because existence is a
//     property of the hypergraph; a governor trip is never cached;
//   * fault site `cache.insert`: an injected failure drops the retain —
//     the computing query still returns its fresh decomposition, the cache
//     just behaves as if the entry were never stored.
//
// CachedQHypertreeDecomp is the glue HybridOptimizer uses: canonicalize,
// acquire, rebind-on-hit / compute-and-publish-on-miss, with cache.lookup /
// cache.rebind spans and the cache.{hit,miss,stale,evict,singleflight_wait}
// metrics recorded from day one.

#ifndef HTQO_CACHE_DECOMP_CACHE_H_
#define HTQO_CACHE_DECOMP_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "decomp/hypertree.h"
#include "decomp/qhd.h"
#include "hypergraph/canonical.h"
#include "hypergraph/hypergraph.h"
#include "obs/trace.h"
#include "stats/statistics.h"
#include "util/bitset.h"
#include "util/governor.h"
#include "util/status.h"

namespace htqo {

struct PlanCacheKey {
  uint64_t lo = 0;
  uint64_t hi = 0;
  // Exact-compare payload (canonical certificate + width + cost-model tag);
  // guards against 128-bit collisions.
  std::string certificate;

  static PlanCacheKey FromCertificate(std::string certificate);
};

class DecompCache {
 public:
  struct Entry {
    // Completed (post-CompleteDecomposition, pre-Optimize) tree whose chi /
    // lambda bitsets are over canonical vertex / edge positions.
    Hypertree canon_hd;
    std::size_t width = 0;
    std::size_t num_vertices = 0;
    std::size_t num_edges = 0;
    // Lowercased relation name -> StatsEpochRegistry epoch at compute time,
    // sorted by name (vector equality is the freshness test).
    std::vector<std::pair<std::string, uint64_t>> epochs;
    // Negative entry: the search's kNotFound status, returned verbatim on a
    // hit (canon_hd is then empty). OK for a found decomposition.
    Status no_decomposition;
    std::size_t bytes = 0;  // approximate footprint, filled on insert
  };
  using EntryPtr = std::shared_ptr<const Entry>;
  // Freshness predicate evaluated under the shard lock; false drops the
  // entry (counted as stale) and turns the lookup into a miss.
  using Validator = std::function<bool(const Entry&)>;

  enum class AcquireKind {
    kHit,      // fresh entry returned
    kOwner,    // caller must compute and then Publish (success or failure)
    kShared,   // waited on another caller's compute; entry returned
    kRetry,    // waited, but the owner failed: compute locally, no Publish
    kTripped,  // the caller's governor tripped while waiting
  };
  struct AcquireResult {
    AcquireKind kind = AcquireKind::kOwner;
    EntryPtr entry;       // kHit / kShared
    bool waited = false;  // blocked on an in-flight compute
    bool stale = false;   // an existing entry failed validation and was dropped
    Status status;  // kTripped: the governor's trip status
  };

  struct Stats {
    uint64_t entries = 0;
    uint64_t bytes = 0;
    uint64_t byte_budget = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t stale = 0;
    uint64_t singleflight_waits = 0;
  };

  static constexpr std::size_t kDefaultByteBudget = 64ull << 20;

  explicit DecompCache(std::size_t byte_budget = kDefaultByteBudget,
                       std::size_t num_shards = 8);
  static DecompCache& Global();

  // Lookup + single-flight claim in one step. kOwner obligates the caller
  // to call Publish exactly once (nullptr on failure) or waiters block
  // until their governor trips.
  AcquireResult Acquire(const PlanCacheKey& key, const Validator& fresh,
                        ResourceGovernor* governor);

  // Resolves the in-flight compute for `key`: wakes waiters (they share
  // `entry`; nullptr tells them to compute locally) and retains the entry
  // in the LRU table — unless the cache.insert fault site fires, which
  // degrades the retain to a no-op.
  void Publish(const PlanCacheKey& key, EntryPtr entry);

  // Drops every cached entry (in-flight computes are unaffected).
  void Clear();

  void set_byte_budget(std::size_t bytes);
  Stats stats() const;

  DecompCache(const DecompCache&) = delete;
  DecompCache& operator=(const DecompCache&) = delete;

 private:
  struct Flight {
    bool done = false;
    EntryPtr result;  // null = owner failed
  };
  struct Slot {
    std::string certificate;
    EntryPtr entry;
    std::list<std::pair<uint64_t, uint64_t>>::iterator lru_it;
  };
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::map<std::pair<uint64_t, uint64_t>, Slot> table;
    // Front = most recently used.
    std::list<std::pair<uint64_t, uint64_t>> lru;
    std::map<std::pair<uint64_t, uint64_t>, std::shared_ptr<Flight>> flights;
    std::size_t bytes = 0;
  };

  Shard& shard(const PlanCacheKey& key) {
    return *shards_[key.lo % shards_.size()];
  }
  void InsertLocked(Shard* s, const PlanCacheKey& key, EntryPtr entry);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> byte_budget_;

  // Mirrors of the MetricsRegistry counters, for the shell's \cache view.
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> stale_{0};
  std::atomic<uint64_t> singleflight_waits_{0};
};

// What the cached planning path observed, for QueryRun/tests.
struct PlanCacheOutcome {
  bool enabled = false;
  bool hit = false;     // entry served (own lookup or shared in-flight)
  bool stale = false;   // an entry was dropped for a stats-epoch mismatch
  bool waited = false;  // blocked on another caller's compute
  // "hit" / "shared-hit" / "miss" / "stale-miss", "" when disabled.
  std::string ToString() const;
};

// Cache-fronted QHypertreeDecomp for HybridOptimizer's q-HD path.
//
// `edge_labels` holds one lowercased relation name per hyperedge (atom
// order); it feeds both the canonical certificate and the epoch snapshot.
// `stats` (nullptr allowed) is the registry the search estimates from: a
// relation it resolves in an overlay (StatisticsRegistry::
// OverlayFingerprint) has that fingerprint folded into its edge label and
// is left out of the epoch snapshot.
// `compute` must run the decomposition search *without* Procedure Optimize
// (the cache stores pre-Optimize trees; the caller re-runs Optimize on the
// rebound result each time, keeping kQhdNoOptimize and kQhdHybrid on one
// entry). On a hit the entry is rebound through the canonical relabeling to
// the caller's vertex/edge numbering, with the governor charged one search
// node per rebound tree node so rebind work stays bounded. A kNotFound from
// `compute` is published as a negative entry (unless the governor is
// exhausted) and returned again, unchanged, on later hits.
Result<QhdResult> CachedQHypertreeDecomp(
    const Hypergraph& h, const Bitset& out_vars,
    const std::vector<std::string>& edge_labels,
    const StatisticsRegistry* stats, std::size_t max_width,
    bool use_statistics, ResourceGovernor* governor, Tracer* tracer,
    const std::function<Result<QhdResult>()>& compute,
    PlanCacheOutcome* outcome);

// Remaps a hypertree's chi/lambda bitsets through per-vertex / per-edge
// position maps (tree shape, parents and children are preserved). Exposed
// for tests; the cache uses it for both directions of the canonical
// relabeling.
Hypertree MapHypertree(const Hypertree& in,
                       const std::vector<std::size_t>& vertex_map,
                       const std::vector<std::size_t>& edge_map,
                       std::size_t num_vertices, std::size_t num_edges);

}  // namespace htqo

#endif  // HTQO_CACHE_DECOMP_CACHE_H_
