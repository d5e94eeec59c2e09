#include "util/governor.h"

#include <algorithm>

#include "util/fault_injector.h"

namespace htqo {

const char* TripReasonName(TripReason reason) {
  switch (reason) {
    case TripReason::kNone:
      return "none";
    case TripReason::kDeadline:
      return "deadline";
    case TripReason::kNodeBudget:
      return "node-budget";
    case TripReason::kMemory:
      return "memory";
    case TripReason::kCancelled:
      return "cancelled";
    case TripReason::kAdmissionShed:
      return "admission-shed";
    case TripReason::kReplan:
      return "replan";
  }
  return "none";
}

void GovernorStats::Merge(const GovernorStats& other) {
  search_nodes = SaturatingAdd(search_nodes, other.search_nodes);
  exec_charges = SaturatingAdd(exec_charges, other.exec_charges);
  peak_memory_bytes = std::max(peak_memory_bytes, other.peak_memory_bytes);
  deadline_hits += other.deadline_hits;
  budget_hits += other.budget_hits;
  memory_hits += other.memory_hits;
  cancellations += other.cancellations;
  admission_sheds += other.admission_sheds;
  replan_trips += other.replan_trips;
  // The aggregate keeps the first attempt's reason: that trip is what set
  // the degradation ladder in motion.
  if (trip_reason == TripReason::kNone) trip_reason = other.trip_reason;
  elapsed_seconds += other.elapsed_seconds;
}

ResourceGovernor::Options ResourceGovernor::Options::AfterSeconds(
    double seconds) {
  Options options;
  if (seconds > 0) {
    options.deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
  }
  return options;
}

ResourceGovernor::ResourceGovernor(const Options& options)
    : options_(options), start_(Clock::now()) {}

Status ResourceGovernor::Trip(TripReason reason,
                              std::size_t GovernorStats::* counter,
                              std::string message) {
  std::lock_guard<std::mutex> lock(trip_mu_);
  // First tripping thread wins; later trips (possible when several workers
  // cross a budget in the same instant) return the established record so the
  // whole pipeline reports one coherent reason.
  if (!tripped_.load(std::memory_order_relaxed)) {
    ++(trip_counters_.*counter);
    trip_counters_.trip_reason = reason;
    message += " [governor trip: ";
    message += TripReasonName(reason);
    message += "]";
    trip_ = Status::DeadlineExceeded(std::move(message));
    tripped_.store(true, std::memory_order_release);
  }
  return trip_;
}

Status ResourceGovernor::trip_status() const {
  std::lock_guard<std::mutex> lock(trip_mu_);
  return tripped_.load(std::memory_order_relaxed) ? trip_ : Status::Ok();
}

Status ResourceGovernor::Poll() {
  if (cancel_requested_.load(std::memory_order_relaxed) ||
      (options_.cancel_flag != nullptr &&
       options_.cancel_flag->load(std::memory_order_relaxed))) {
    return Trip(TripReason::kCancelled, &GovernorStats::cancellations,
                "query cancelled");
  }
  if (FaultInjector::Instance().ShouldFail(kFaultSiteGovernorCheckpoint)) {
    return Trip(TripReason::kDeadline, &GovernorStats::deadline_hits,
                "injected fault at governor checkpoint");
  }
  if (options_.deadline != Clock::time_point::max() &&
      Clock::now() >= options_.deadline) {
    return Trip(TripReason::kDeadline, &GovernorStats::deadline_hits,
                "deadline exceeded");
  }
  return Status::Ok();
}

Status ResourceGovernor::ChargeNodes(std::size_t n) {
  if (exhausted()) return trip_status();
  if (AtomicSaturatingAdd(&search_nodes_, n) > options_.node_budget) {
    return Trip(TripReason::kNodeBudget, &GovernorStats::budget_hits,
                "search-node budget exceeded");
  }
  if (AtomicSaturatingAdd(&charges_since_poll_, n) >= kPollStride) {
    charges_since_poll_.store(0, std::memory_order_relaxed);
    return Poll();
  }
  return Status::Ok();
}

Status ResourceGovernor::ChargeExecution(std::size_t units) {
  if (exhausted()) return trip_status();
  AtomicSaturatingAdd(&exec_charges_, units);
  if (AtomicSaturatingAdd(&charges_since_poll_, units) >= kPollStride) {
    charges_since_poll_.store(0, std::memory_order_relaxed);
    return Poll();
  }
  return Status::Ok();
}

Status ResourceGovernor::ChargeMemory(std::size_t bytes) {
  if (exhausted()) return trip_status();
  std::size_t live = AtomicSaturatingAdd(&live_memory_, bytes);
  AtomicMax(&peak_memory_, live);
  if (live > options_.memory_budget_bytes) {
    return Trip(TripReason::kMemory, &GovernorStats::memory_hits,
                "memory budget exceeded");
  }
  return Status::Ok();
}

void ResourceGovernor::ReleaseMemory(std::size_t bytes) {
  // Saturating subtract: a release may race a concurrent charge, but the
  // balance never goes below the charges actually outstanding.
  std::size_t cur = live_memory_.load(std::memory_order_relaxed);
  std::size_t next;
  do {
    next = cur - std::min(bytes, cur);
  } while (!live_memory_.compare_exchange_weak(cur, next,
                                               std::memory_order_relaxed));
}

Status ResourceGovernor::Check() {
  if (exhausted()) return trip_status();
  charges_since_poll_.store(0, std::memory_order_relaxed);
  return Poll();
}

double ResourceGovernor::elapsed_seconds() const {
  return std::chrono::duration<double>(Clock::now() - start_).count();
}

Status ResourceGovernor::TripShed(std::string message) {
  std::lock_guard<std::mutex> lock(trip_mu_);
  if (!tripped_.load(std::memory_order_relaxed)) {
    ++trip_counters_.admission_sheds;
    trip_counters_.trip_reason = TripReason::kAdmissionShed;
    // AdmissionShedStatus appends the "[governor trip: …]" suffix; unlike
    // Trip() this surfaces as kResourceExhausted, the retryable code.
    trip_ = AdmissionShedStatus(std::move(message));
    tripped_.store(true, std::memory_order_release);
  }
  return trip_;
}

GovernorStats ResourceGovernor::stats() const {
  GovernorStats out;
  {
    std::lock_guard<std::mutex> lock(trip_mu_);
    out = trip_counters_;
  }
  out.search_nodes = search_nodes_.load(std::memory_order_relaxed);
  out.exec_charges = exec_charges_.load(std::memory_order_relaxed);
  out.peak_memory_bytes = peak_memory_.load(std::memory_order_relaxed);
  out.elapsed_seconds = elapsed_seconds();
  return out;
}

std::size_t ScaleBudget(std::size_t budget, double share) {
  if (budget == std::numeric_limits<std::size_t>::max()) return budget;
  if (share >= 1.0 || share <= 0.0) return budget;
  double scaled = static_cast<double>(budget) * share;
  return std::max<std::size_t>(1, static_cast<std::size_t>(scaled));
}

Status AdmissionShedStatus(std::string message) {
  message += " [governor trip: ";
  message += TripReasonName(TripReason::kAdmissionShed);
  message += "]";
  return Status::ResourceExhausted(std::move(message));
}

}  // namespace htqo
