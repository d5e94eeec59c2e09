// ResourceGovernor: one cancellable budget object threaded through every
// exponential search loop (det-k-decomp, cost-k-decomp, q-HD construction,
// Procedure Optimize, DP and GEQO join ordering) and, via ExecContext, the
// execution operators.
//
// The paper's evaluation reports queries that "do not terminate after 10
// minutes"; a production pipeline must *return* in that situation, not
// stall. The governor enforces three limits and a cooperative cancellation
// flag, all surfacing as StatusCode::kDeadlineExceeded:
//
//   * a wall-clock deadline (steady_clock, polled every kPollStride node
//     charges so the hot search loops stay syscall-free);
//   * a deterministic search-node budget — reproducible across machines,
//     the limit tests and benchmarks should prefer;
//   * a live-memory budget with high-water accounting (searches charge
//     their memoization tables, execution charges materialized rows).
//
// A tripped governor is sticky: every later Charge*/Check returns the same
// error, so deeply nested loops unwind without re-deriving the reason.
//
// Thread safety: all charge/check/cancel entry points may be called
// concurrently — the parallel execution engine charges from every pool
// worker. Counters are lock-free atomics; the trip record is written once
// under a mutex and published through the atomic `tripped_` flag. Totals
// are exact (saturating) regardless of interleaving, so a budget that the
// serial engine would trip also trips at any thread count, and vice versa.

#ifndef HTQO_UTIL_GOVERNOR_H_
#define HTQO_UTIL_GOVERNOR_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>

#include "util/status.h"

namespace htqo {

// Addition that sticks at SIZE_MAX instead of wrapping — resource counters
// must never lap their budgets.
inline std::size_t SaturatingAdd(std::size_t a, std::size_t b) {
  std::size_t sum = a + b;
  return sum < a ? std::numeric_limits<std::size_t>::max() : sum;
}

// Saturating fetch-add on an atomic counter; returns the new value. CAS
// loop rather than fetch_add so a counter parked at SIZE_MAX never wraps.
inline std::size_t AtomicSaturatingAdd(std::atomic<std::size_t>* counter,
                                       std::size_t n) {
  std::size_t cur = counter->load(std::memory_order_relaxed);
  std::size_t next;
  do {
    next = SaturatingAdd(cur, n);
  } while (!counter->compare_exchange_weak(cur, next,
                                           std::memory_order_relaxed));
  return next;
}

// Monotonic max on an atomic high-water mark.
inline void AtomicMax(std::atomic<std::size_t>* high_water,
                      std::size_t candidate) {
  std::size_t cur = high_water->load(std::memory_order_relaxed);
  while (cur < candidate &&
         !high_water->compare_exchange_weak(cur, candidate,
                                            std::memory_order_relaxed)) {
  }
}

// Why a governor tripped. All trips still surface as
// StatusCode::kDeadlineExceeded (the pipeline-wide "governed stop" code);
// the reason disambiguates deadline vs. node budget vs. memory in
// QueryRun::governor and the bench JSON without changing the error contract.
enum class TripReason {
  kNone = 0,
  kDeadline,
  kNodeBudget,
  kMemory,
  kCancelled,
  // Shed at the admission door before any search or execution ran — the
  // query server's load shedder rejected the query (queue full, drain in
  // progress, or the admission.enqueue fault site fired). Distinguishes
  // "never started" from "tripped mid-query" in bench JSON and the
  // `[governor trip: …]` message suffixes.
  kAdmissionShed,
  // Mid-query re-planning rung: an intermediate's actual cardinality blew
  // past its estimate and execution was abandoned to re-enter the optimizer
  // with observed cardinalities pinned. Unlike the reasons above this is a
  // *soft* trip — the query still answers; the reason only labels the
  // degradation entry and the replan_trips counter.
  kReplan,
};

const char* TripReasonName(TripReason reason);

// Snapshot of what a governor observed; aggregated across degradation-ladder
// attempts into QueryRun::governor and the benchmark JSON.
struct GovernorStats {
  std::size_t search_nodes = 0;      // nodes charged by search loops
  std::size_t exec_charges = 0;      // rows/work units forwarded by exec
  std::size_t peak_memory_bytes = 0;  // high-water of live charged bytes
  std::size_t deadline_hits = 0;     // trips by the wall clock
  std::size_t budget_hits = 0;       // trips by the node budget
  std::size_t memory_hits = 0;       // trips by the memory budget
  std::size_t cancellations = 0;     // trips by Cancel()
  std::size_t admission_sheds = 0;   // rejected at the admission door
  // Mid-query replans taken (soft trips: the query still answered, so these
  // are excluded from trips() and never set trip_reason).
  std::size_t replan_trips = 0;
  TripReason trip_reason = TripReason::kNone;  // first trip's reason
  double elapsed_seconds = 0;

  std::size_t trips() const {
    return deadline_hits + budget_hits + memory_hits + cancellations +
           admission_sheds;
  }
  void Merge(const GovernorStats& other);
};

class ResourceGovernor {
 public:
  using Clock = std::chrono::steady_clock;

  struct Options {
    // Absolute deadline so several governors (one per degradation-ladder
    // attempt) can share one wall-clock cutoff. max() = no deadline.
    Clock::time_point deadline = Clock::time_point::max();
    std::size_t node_budget = std::numeric_limits<std::size_t>::max();
    std::size_t memory_budget_bytes = std::numeric_limits<std::size_t>::max();
    // External cooperative-cancel flag, polled at every checkpoint next to
    // the internal Cancel() request. One flag can cover a whole group of
    // governors: the shell's SIGINT handler and the query server's drain
    // path both flip a single atomic to cancel every in-flight query. The
    // pointee must outlive the governor; nullptr disables the poll.
    const std::atomic<bool>* cancel_flag = nullptr;

    static Options Unlimited() { return Options(); }
    // Deadline `seconds` from now; <= 0 means no deadline.
    static Options AfterSeconds(double seconds);
  };

  ResourceGovernor() : ResourceGovernor(Options()) {}
  explicit ResourceGovernor(const Options& options);

  // Charges `n` search nodes against the deterministic budget; polls the
  // wall clock every kPollStride charged nodes. Sticky on trip.
  Status ChargeNodes(std::size_t n = 1);

  // Execution-side charge (rows or work units); same polling cadence.
  Status ChargeExecution(std::size_t units);

  // Live-memory accounting: Charge may trip the memory budget, Release
  // never fails. Peak is recorded in stats().
  Status ChargeMemory(std::size_t bytes);
  void ReleaseMemory(std::size_t bytes);

  // Raises the peak-memory high-water mark without touching the live
  // balance — for materializations whose lifetime the owner tracks itself
  // (ExecContext forwards its peak-rows estimate here).
  void NotePeakMemory(std::size_t bytes) { AtomicMax(&peak_memory_, bytes); }

  // Current live charged bytes; operators add their projected working set
  // to this when deciding whether to take the spill path.
  std::size_t live_memory_bytes() const {
    return live_memory_.load(std::memory_order_relaxed);
  }

  // Polls deadline, cancellation, and the governor.checkpoint fault site
  // immediately. Sticky on trip.
  Status Check();

  // Cooperative cancellation; safe to call from another thread. The next
  // checkpoint in the governed pipeline trips kDeadlineExceeded on every
  // worker.
  void Cancel() { cancel_requested_.store(true, std::memory_order_relaxed); }

  bool exhausted() const {
    return tripped_.load(std::memory_order_acquire);
  }
  // Valid (and stable) once exhausted(); Ok before any trip.
  Status trip_status() const;
  double elapsed_seconds() const;
  // Snapshot including elapsed time; valid whether or not the governor
  // tripped.
  GovernorStats stats() const;

  static constexpr std::size_t kPollStride = 256;

  // Records an admission-door shed against this governor: trips it with
  // TripReason::kAdmissionShed so stats()/trip_status() report "shed before
  // any work ran". Used by the server's admission controller, which creates
  // the per-query governor only to account for the rejection.
  Status TripShed(std::string message);

 private:
  Status Trip(TripReason reason, std::size_t GovernorStats::* counter,
              std::string message);
  Status Poll();  // deadline + cancellation + fault site

  Options options_;
  Clock::time_point start_;
  std::atomic<std::size_t> search_nodes_{0};
  std::atomic<std::size_t> exec_charges_{0};
  std::atomic<std::size_t> charges_since_poll_{0};
  std::atomic<std::size_t> live_memory_{0};
  std::atomic<std::size_t> peak_memory_{0};
  std::atomic<bool> tripped_{false};
  std::atomic<bool> cancel_requested_{false};
  // Trip record: written once by the first tripping thread, then read-only.
  // trip_counters_ holds the deadline/budget/memory/cancel hit counts.
  mutable std::mutex trip_mu_;
  Status trip_;
  GovernorStats trip_counters_;
};

// Tenant-scoped budget derivation: scales a process-wide budget by a
// tenant's share, preserving the "unlimited" sentinel (SIZE_MAX stays
// SIZE_MAX at any share) and never rounding a positive budget down to zero.
// Shares are clamped to (0, 1]. The query server's admission controller
// uses this to split memory_budget_bytes / node budgets across tenants.
std::size_t ScaleBudget(std::size_t budget, double share);

// The canonical Status for a query shed at the admission door: carries the
// same "[governor trip: …]" suffix convention as mid-query trips, with the
// admission-shed reason, under kResourceExhausted (retryable — unlike the
// kDeadlineExceeded a governed query trips mid-flight).
Status AdmissionShedStatus(std::string message);

}  // namespace htqo

#endif  // HTQO_UTIL_GOVERNOR_H_
