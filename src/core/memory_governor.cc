#include "core/memory_governor.h"

#include <algorithm>

#include "common/metrics.h"

namespace benu {
namespace {

/// Smallest lease worth batching: below this a frontier batch costs more
/// in bookkeeping than the wide prefetch saves, so the governor denies
/// and lets the executor run the (equally correct) plain-DFS path.
constexpr size_t kMinLeaseBytes = 256;

}  // namespace

MemoryGovernor::MemoryGovernor(size_t memory_budget_bytes,
                               size_t base_prefetch_budget,
                               size_t base_prefetch_batch_size)
    : budget_bytes_(memory_budget_bytes),
      base_prefetch_budget_(base_prefetch_budget),
      base_prefetch_batch_(
          base_prefetch_batch_size == 0 ? 1 : base_prefetch_batch_size) {
  auto& registry = metrics::MetricsRegistry::Global();
  budget_gauge_ = registry.GetGauge(
      "memory.governor.budget_bytes", "bytes",
      "configured memory ceiling of the governed run (0: no ceiling)");
  pinned_gauge_ = registry.GetGauge(
      "memory.governor.pinned_bytes", "bytes",
      "bytes currently pinned against the budget (DB-cache resident + "
      "frontier regions)");
  frontier_gauge_ = registry.GetGauge(
      "memory.governor.frontier_bytes", "bytes",
      "frontier-region component of the pinned bytes");
  high_water_gauge_ = registry.GetGauge(
      "memory.governor.lease_high_water", "bytes",
      "maximum pinned bytes ever observed by the governor");
  grants_counter_ = registry.GetCounter(
      "memory.governor.lease_grants", "1",
      "frontier leases granted (wide BFS batches allowed)");
  denials_counter_ = registry.GetCounter(
      "memory.governor.lease_denials", "1",
      "frontier leases denied near the cap (executor spilled to DFS)");
  budget_gauge_->Set(static_cast<double>(budget_bytes_));
}

uint64_t MemoryGovernor::pinned_bytes() const {
  const int64_t total = cache_bytes_.load(std::memory_order_relaxed) +
                        frontier_bytes_.load(std::memory_order_relaxed);
  return total > 0 ? static_cast<uint64_t>(total) : 0;
}

void MemoryGovernor::NotePinned() {
  const uint64_t pinned = pinned_bytes();
  pinned_gauge_->Set(static_cast<double>(pinned));
  const int64_t frontier = frontier_bytes_.load(std::memory_order_relaxed);
  frontier_gauge_->Set(static_cast<double>(frontier > 0 ? frontier : 0));
  uint64_t seen = high_water_.load(std::memory_order_relaxed);
  while (pinned > seen && !high_water_.compare_exchange_weak(
                              seen, pinned, std::memory_order_relaxed)) {
  }
  if (pinned > seen) {
    high_water_gauge_->Set(static_cast<double>(pinned));
  }
}

void MemoryGovernor::AddCacheResident(int64_t delta_bytes) {
  cache_bytes_.fetch_add(delta_bytes, std::memory_order_relaxed);
  NotePinned();
}

void MemoryGovernor::AddFrontierPinned(int64_t delta_bytes) {
  frontier_bytes_.fetch_add(delta_bytes, std::memory_order_relaxed);
  NotePinned();
}

size_t MemoryGovernor::GrantFrontierLease(size_t want_bytes) {
  if (want_bytes == 0) return 0;
  if (budget_bytes_ == 0) {
    lease_grants_.fetch_add(1, std::memory_order_relaxed);
    grants_counter_->Add(1);
    return want_bytes;
  }
  // Keep a guard band of 1/8 of the budget unleased, so concurrent cache
  // growth and sibling executors landing their own batches do not push
  // the total straight past the ceiling; split the rest conservatively
  // (an executor takes at most a quarter of the usable headroom per
  // lease — the next batch re-asks under the then-current pressure).
  const uint64_t pinned = pinned_bytes();
  const uint64_t floor = GuardFloor();
  const uint64_t usable = pinned < floor ? floor - pinned : 0;
  const size_t grant =
      static_cast<size_t>(std::min<uint64_t>(want_bytes, usable / 4));
  if (grant < std::min<size_t>(want_bytes, kMinLeaseBytes)) {
    lease_denials_.fetch_add(1, std::memory_order_relaxed);
    denials_counter_->Add(1);
    return 0;
  }
  lease_grants_.fetch_add(1, std::memory_order_relaxed);
  grants_counter_->Add(1);
  return grant;
}

bool MemoryGovernor::HasHeadroomFor(size_t bytes) const {
  if (budget_bytes_ == 0) return true;
  return pinned_bytes() + bytes <= GuardFloor();
}

double MemoryGovernor::Headroom() const {
  if (budget_bytes_ == 0) return 1.0;
  const uint64_t pinned = pinned_bytes();
  if (pinned >= budget_bytes_) return 0.0;
  return static_cast<double>(budget_bytes_ - pinned) /
         static_cast<double>(budget_bytes_);
}

size_t MemoryGovernor::PrefetchBudget() const {
  if (base_prefetch_budget_ == 0) return 0;
  const double widened = static_cast<double>(base_prefetch_budget_) *
                         (kMaxPrefetchWidening - 1) * Headroom();
  return base_prefetch_budget_ + static_cast<size_t>(widened);
}

size_t MemoryGovernor::PrefetchBatchSize() const {
  const double widened = static_cast<double>(base_prefetch_batch_) *
                         (kMaxBatchWidening - 1) * Headroom();
  return base_prefetch_batch_ + static_cast<size_t>(widened);
}

MemoryGovernor::Stats MemoryGovernor::stats() const {
  Stats s;
  s.budget_bytes = budget_bytes_;
  const int64_t cache = cache_bytes_.load(std::memory_order_relaxed);
  const int64_t frontier = frontier_bytes_.load(std::memory_order_relaxed);
  s.cache_bytes = cache > 0 ? static_cast<uint64_t>(cache) : 0;
  s.frontier_bytes = frontier > 0 ? static_cast<uint64_t>(frontier) : 0;
  s.pinned_bytes = pinned_bytes();
  s.high_water_bytes = high_water_.load(std::memory_order_relaxed);
  s.lease_grants = lease_grants_.load(std::memory_order_relaxed);
  s.lease_denials = lease_denials_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace benu
