#include "storage/db_cache.h"

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/memory_governor.h"

namespace benu {

DbCache::DbCache(const DistributedKvStore* store, size_t capacity_bytes,
                 size_t num_shards, ThreadPool* fetch_pool,
                 size_t prefetch_batch_size, MemoryGovernor* governor)
    : store_(store),
      capacity_bytes_(capacity_bytes),
      fetch_pool_(fetch_pool),
      prefetch_batch_size_(prefetch_batch_size == 0 ? 1
                                                    : prefetch_batch_size),
      governor_(governor) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  auto& registry = metrics::MetricsRegistry::Global();
  metrics_.hits = registry.GetCounter(
      "db_cache.hits", "1", "lookups served from cache without any wait");
  metrics_.misses = registry.GetCounter(
      "db_cache.misses", "1", "lookups that issued a store query");
  metrics_.coalesced = registry.GetCounter(
      "db_cache.coalesced", "1",
      "lookups that waited on another thread's in-flight query (non-hits)");
  metrics_.prefetches_issued = registry.GetCounter(
      "db_cache.prefetches_issued", "1",
      "keys enqueued by PrefetchAsync (not cached, not in flight)");
  metrics_.prefetch_hits = registry.GetCounter(
      "db_cache.prefetch_hits", "1",
      "first-touch hits on prefetched entries (latency fully hidden)");
  metrics_.prefetch_claimed = registry.GetCounter(
      "db_cache.prefetch_claimed", "1",
      "queued prefetches a Get claimed and fetched synchronously");
  metrics_.prefetch_wasted = registry.GetCounter(
      "db_cache.prefetch_wasted", "1",
      "prefetched entries evicted or dropped without serving a hit");
  metrics_.epoch_invalidations = registry.GetCounter(
      "db_cache.epoch_invalidations", "1",
      "entries evicted by AdvanceEpoch's precise invalidation");
  metrics_.encoded_inserts = registry.GetCounter(
      "db_cache.encoded_inserts", "1",
      "retained entries stored encoded: the decoded form did not fit the "
      "shard's free capacity or the governor's headroom");
  metrics_.prefetch_round_trips = registry.GetCounter(
      "db_cache.prefetch_round_trips", "1",
      "round trips of batched background fetches (1/partition/batch)");
  metrics_.prefetch_bytes = registry.GetCounter(
      "db_cache.prefetch_bytes", "bytes",
      "payload bytes fetched by the prefetch pipeline");
  metrics_.resident_bytes = registry.GetGauge(
      "db_cache.resident_bytes", "bytes",
      "currently cached resident bytes (4 B/entry for decoded entries, "
      "encoded size for encoded ones, plus per-entry overhead) across all "
      "caches");
  metrics_.sync_fetch_us = registry.GetHistogram(
      "db_cache.sync_fetch.us", "us",
      "latency of synchronous primary-miss store queries (traced)");
  metrics_.coalesced_wait_us = registry.GetHistogram(
      "db_cache.coalesced_wait.us", "us",
      "time a coalesced lookup waited on a sibling's flight (traced)");
  metrics_.batch_fetch_us = registry.GetHistogram(
      "db_cache.batch_fetch.us", "us",
      "latency of one batched background multi-get (traced)");
}

DbCache::~DbCache() {
  {
    std::unique_lock<std::mutex> lock(prefetch_mu_);
    shutting_down_ = true;
    // Fetcher jobs referencing this cache must finish before the shards
    // go away; the pool keeps running them by contract (it outlives the
    // cache), so this wait terminates.
    prefetch_idle_cv_.wait(lock, [this] { return active_jobs_ == 0; });
  }
  // Publish any flights no fetcher picked up, so a (misbehaving) waiter
  // blocked in Get is released rather than deadlocked on teardown.
  DrainQueue();
  // The resident-bytes gauge is a process-wide total across caches;
  // un-count this cache's surviving entries (and release the governor's
  // budget share, so a later run under the same governor starts clean).
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (shard->bytes != 0) {
      metrics_.resident_bytes->Add(-static_cast<double>(shard->bytes));
      if (governor_ != nullptr) {
        governor_->AddCacheResident(-static_cast<int64_t>(shard->bytes));
      }
    }
  }
}

DbCache::Reply DbCache::Get(VertexId v) { return Lookup(v, /*counted=*/true); }

DbCache::Reply DbCache::Lookup(VertexId v, bool counted) {
  Shard& shard = ShardFor(v);
  std::shared_ptr<Flight> flight;
  bool primary = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(v);
    if (it != shard.index.end()) {
      if (counted) {
        ++shard.hits;
        metrics_.hits->Add(1);
      }
      if (it->second->prefetched) {
        // First touch of a prefetched entry: the pipeline converted a
        // would-be stall into a hit.
        it->second->prefetched = false;
        ++shard.prefetch_hits;
        metrics_.prefetch_hits->Add(1);
      }
      // Move to the front of the LRU list.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return Reply{it->second->value, Outcome::kHit, /*retained=*/true};
    }
    auto fit = shard.inflight.find(v);
    if (fit != shard.inflight.end()) {
      flight = fit->second;
      int expected = kFlightQueued;
      if (flight->state.compare_exchange_strong(expected, kFlightFetching)) {
        // The key sits in the prefetch queue but no fetcher has picked
        // it up: claim the flight and fetch synchronously. The stale
        // queue entry is skipped when a fetcher eventually pops it.
        if (counted) {
          ++shard.misses;
          metrics_.misses->Add(1);
        }
        ++shard.prefetch_claimed;
        metrics_.prefetch_claimed->Add(1);
        primary = true;
      } else if (counted) {
        // Another thread (Get primary or fetcher) is already fetching v:
        // piggyback on its query.
        ++shard.coalesced;
        metrics_.coalesced->Add(1);
      }
    } else {
      if (counted) {
        ++shard.misses;
        metrics_.misses->Add(1);
      }
      flight = std::make_shared<Flight>();
      flight->epoch.store(epoch_.load(std::memory_order_acquire),
                          std::memory_order_relaxed);
      shard.inflight.emplace(v, flight);
      primary = true;
    }
  }

  if (!primary) {
    {
      metrics::ScopedSpan span(metrics_.coalesced_wait_us);
      std::unique_lock<std::mutex> fl(flight->mu);
      flight->ready_cv.wait(fl, [&flight] { return flight->ready; });
    }
    if (flight->epoch.load(std::memory_order_acquire) !=
        epoch_.load(std::memory_order_acquire)) {
      // The flight we waited on was fetched under a superseded epoch:
      // its value belongs to the previous snapshot (and was not
      // retained). Retry under the current epoch; this lookup is already
      // counted, so the retry is not, and it still reports coalesced.
      Reply retry = Lookup(v, /*counted=*/false);
      retry.outcome = Outcome::kCoalesced;
      retry.retained = false;
      return retry;
    }
    return Reply{flight->value, Outcome::kCoalesced};
  }

  // Primary miss path: query the distributed database outside any lock so
  // a slow remote fetch blocks neither other keys of this shard nor the
  // waiters of other flights.
  AdjacencyPayload value;
  for (;;) {
    {
      metrics::ScopedSpan span(metrics_.sync_fetch_us);
      value = store_->GetAdjacency(v);
    }
    const uint64_t now = epoch_.load(std::memory_order_acquire);
    if (flight->epoch.load(std::memory_order_relaxed) == now) break;
    // An epoch advanced mid-fetch: the value may be the old snapshot's.
    // Re-stamp the flight and refetch so this Get returns (and installs)
    // the current epoch's adjacency.
    flight->epoch.store(now, std::memory_order_release);
  }
  const bool retained =
      InsertAndPublish(v, &value, flight, /*prefetched=*/false);
  return Reply{std::move(value), Outcome::kMiss, retained};
}

bool DbCache::InsertAndPublish(VertexId v, AdjacencyPayload* value,
                               const std::shared_ptr<Flight>& flight,
                               bool prefetched) {
  Shard& shard = ShardFor(v);
  const size_t shard_capacity = ShardCapacity();
  // Fetched under a superseded epoch? Publish to waiters (they re-check
  // the tag and retry) but never retain — a stale adjacency set must not
  // surface as a hit in the new snapshot.
  const bool stale = flight->epoch.load(std::memory_order_acquire) !=
                     epoch_.load(std::memory_order_acquire);
  // Decode on insert: an encoded payload is decoded once, outside the
  // shard lock, when its raw charge fits the shard's free capacity and
  // the governor's headroom. The insert below re-checks the fit and
  // keeps the encoded form if a racing insert took the room meanwhile.
  AdjacencyPayload encoded;
  if (!stale && value->is_encoded() && shard_capacity != 0) {
    const size_t raw_bytes = value->size() * sizeof(VertexId) +
                             kEntryOverheadBytes;
    bool room;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      room = shard.bytes + raw_bytes <= shard_capacity;
    }
    if (room &&
        (governor_ == nullptr || governor_->HasHeadroomFor(raw_bytes))) {
      encoded = std::move(*value);
      *value = AdjacencyPayload{encoded.Materialize(), nullptr,
                                encoded.wire_bytes};
    }
  }
  bool retained = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.inflight.erase(v);
    if (encoded.is_encoded() &&
        shard.bytes + EntryBytes(*value) > shard_capacity) {
      *value = std::move(encoded);
    }
    const size_t bytes = EntryBytes(*value);
    if (!stale &&
        bytes <= shard_capacity) {  // capacity 0 / oversized: not retained
      retained = true;
      auto it = shard.index.find(v);
      if (it != shard.index.end()) {
        // Raced insert (unreachable while single-flight holds, kept as
        // defense): the entry is hot — promote it to MRU instead of
        // leaving it where a concurrent eviction pass would take it. The
        // incoming value is dropped; if it was prefetched, that fetch
        // converted nothing and counts as wasted.
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        if (prefetched) {
          ++shard.prefetch_wasted;
          metrics_.prefetch_wasted->Add(1);
        }
      } else {
        if (value->is_encoded()) {
          ++shard.encoded_inserts;
          metrics_.encoded_inserts->Add(1);
        }
        shard.lru.push_front(Entry{v, *value, bytes, prefetched});
        shard.index[v] = shard.lru.begin();
        shard.bytes += bytes;
        metrics_.resident_bytes->Add(static_cast<double>(bytes));
        if (governor_ != nullptr) {
          governor_->AddCacheResident(static_cast<int64_t>(bytes));
        }
        while (shard.bytes > shard_capacity && !shard.lru.empty()) {
          const Entry& victim = shard.lru.back();
          if (victim.prefetched) {
            ++shard.prefetch_wasted;
            metrics_.prefetch_wasted->Add(1);
          }
          shard.bytes -= victim.bytes;
          metrics_.resident_bytes->Add(-static_cast<double>(victim.bytes));
          if (governor_ != nullptr) {
            governor_->AddCacheResident(-static_cast<int64_t>(victim.bytes));
          }
          shard.index.erase(victim.key);
          shard.lru.pop_back();
          evictions_.fetch_add(1);
        }
      }
    } else if (prefetched) {
      // Fetched but never retained: the prefetch cannot convert a future
      // lookup, so the work is wasted by definition.
      ++shard.prefetch_wasted;
      metrics_.prefetch_wasted->Add(1);
    }
  }
  // Publish to waiters only after the flight is unlinked from the shard,
  // so a late Get either sees the cached entry or starts a fresh flight.
  {
    std::lock_guard<std::mutex> fl(flight->mu);
    flight->value = *value;
    flight->ready = true;
  }
  flight->ready_cv.notify_all();
  return retained;
}

void DbCache::PrefetchAsync(const VertexId* keys, size_t count) {
  if (count == 0) return;
  std::vector<VertexId> fresh;
  fresh.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const VertexId v = keys[i];
    Shard& shard = ShardFor(v);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.index.count(v) != 0) continue;     // already cached
    if (shard.inflight.count(v) != 0) continue;  // already queued/fetching
    auto flight = std::make_shared<Flight>();
    flight->state.store(kFlightQueued, std::memory_order_relaxed);
    flight->epoch.store(epoch_.load(std::memory_order_acquire),
                        std::memory_order_relaxed);
    shard.inflight.emplace(v, flight);
    ++shard.prefetches_issued;
    metrics_.prefetches_issued->Add(1);
    fresh.push_back(v);
  }
  if (fresh.empty()) return;
  bool scheduled = false;
  {
    std::lock_guard<std::mutex> lock(prefetch_mu_);
    prefetch_queue_.insert(prefetch_queue_.end(), fresh.begin(), fresh.end());
    if (fetch_pool_ != nullptr && !shutting_down_) {
      ++active_jobs_;
      scheduled = true;
    }
  }
  if (scheduled) {
    fetch_pool_->Submit([this] {
      DrainQueue();
      std::lock_guard<std::mutex> lock(prefetch_mu_);
      if (--active_jobs_ == 0) prefetch_idle_cv_.notify_all();
    });
  } else if (fetch_pool_ == nullptr) {
    // Forced-sync mode: no background fetcher — drain inline, still
    // through the batched multi-get (deterministic, no overlap).
    DrainQueue();
  }
}

void DbCache::DrainQueue() {
  std::vector<VertexId> batch;
  batch.reserve(prefetch_batch_size_);
  for (;;) {
    // With a governor the multi-get width breathes with memory headroom
    // (re-read per batch — pressure can change while draining): wider
    // batches amortize more round-trip latency when memory is plentiful,
    // and fall back to the static knob near the cap.
    const size_t batch_limit = governor_ != nullptr
                                   ? governor_->PrefetchBatchSize()
                                   : prefetch_batch_size_;
    batch.clear();
    {
      std::lock_guard<std::mutex> lock(prefetch_mu_);
      while (!prefetch_queue_.empty() && batch.size() < batch_limit) {
        batch.push_back(prefetch_queue_.front());
        prefetch_queue_.pop_front();
      }
    }
    if (batch.empty()) return;
    FetchBatch(batch);
  }
}

void DbCache::FetchBatch(const std::vector<VertexId>& batch) {
  std::vector<VertexId> to_fetch;
  std::vector<std::shared_ptr<Flight>> flights;
  to_fetch.reserve(batch.size());
  flights.reserve(batch.size());
  for (VertexId v : batch) {
    Shard& shard = ShardFor(v);
    std::shared_ptr<Flight> flight;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.inflight.find(v);
      if (it == shard.inflight.end()) continue;  // claimed and resolved
      flight = it->second;
    }
    int expected = kFlightQueued;
    if (!flight->state.compare_exchange_strong(expected, kFlightFetching)) {
      continue;  // a Get claimed this key and fetches it itself
    }
    to_fetch.push_back(v);
    flights.push_back(std::move(flight));
  }
  if (to_fetch.empty()) return;
  DistributedKvStore::BatchReply reply;
  {
    metrics::ScopedSpan span(metrics_.batch_fetch_us);
    reply = store_->GetAdjacencyBatch(to_fetch);
  }
  prefetch_round_trips_.fetch_add(reply.round_trips,
                                  std::memory_order_relaxed);
  prefetch_bytes_.fetch_add(reply.bytes, std::memory_order_relaxed);
  metrics_.prefetch_round_trips->Add(reply.round_trips);
  metrics_.prefetch_bytes->Add(reply.bytes);
  for (size_t i = 0; i < to_fetch.size(); ++i) {
    InsertAndPublish(to_fetch[i], &reply.values[i], flights[i],
                     /*prefetched=*/true);
  }
}

void DbCache::AdvanceEpoch(uint64_t epoch,
                           std::span<const VertexId> touched) {
  // Publish the new epoch BEFORE purging: an install racing this call
  // either reads the new epoch (and drops itself as stale) or installed
  // under the old epoch before the purge (and is purged below). Either
  // way no stale entry survives into the new epoch.
  epoch_.store(epoch, std::memory_order_release);
  for (VertexId v : touched) {
    Shard& shard = ShardFor(v);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(v);
    if (it == shard.index.end()) continue;
    const Entry& victim = *it->second;
    if (victim.prefetched) {
      ++shard.prefetch_wasted;
      metrics_.prefetch_wasted->Add(1);
    }
    ++shard.epoch_invalidations;
    metrics_.epoch_invalidations->Add(1);
    shard.bytes -= victim.bytes;
    metrics_.resident_bytes->Add(-static_cast<double>(victim.bytes));
    if (governor_ != nullptr) {
      governor_->AddCacheResident(-static_cast<int64_t>(victim.bytes));
    }
    shard.lru.erase(it->second);
    shard.index.erase(it);
    evictions_.fetch_add(1);
  }
}

void DbCache::WaitForPrefetches() {
  std::unique_lock<std::mutex> lock(prefetch_mu_);
  prefetch_idle_cv_.wait(lock, [this] {
    return active_jobs_ == 0 && prefetch_queue_.empty();
  });
}

void DbCache::CreditHits(Count n) {
  credited_hits_.fetch_add(n, std::memory_order_relaxed);
  metrics_.hits->Add(n);
}

std::shared_ptr<const VertexSet> DbCache::GetAdjacency(VertexId v,
                                                       bool* was_hit) {
  Reply reply = Get(v);
  if (was_hit != nullptr) *was_hit = reply.outcome == Outcome::kHit;
  return reply.value.Materialize();
}

DbCacheStats DbCache::stats() const {
  DbCacheStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.coalesced += shard->coalesced;
    total.prefetches_issued += shard->prefetches_issued;
    total.prefetch_hits += shard->prefetch_hits;
    total.prefetch_claimed += shard->prefetch_claimed;
    total.prefetch_wasted += shard->prefetch_wasted;
    total.epoch_invalidations += shard->epoch_invalidations;
    total.encoded_inserts += shard->encoded_inserts;
  }
  total.hits += credited_hits_.load(std::memory_order_relaxed);
  total.prefetch_round_trips =
      prefetch_round_trips_.load(std::memory_order_relaxed);
  total.prefetch_bytes = prefetch_bytes_.load(std::memory_order_relaxed);
  return total;
}

size_t DbCache::SizeBytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->bytes;
  }
  return total;
}

}  // namespace benu
