#ifndef BENU_STORAGE_DB_CACHE_H_
#define BENU_STORAGE_DB_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "graph/vertex_set.h"
#include "storage/kv_store.h"

namespace benu {

class MemoryGovernor;
class ThreadPool;

namespace metrics {
class Counter;
class Gauge;
class Histogram;
}  // namespace metrics

/// Hit/miss statistics of a database cache. Every lookup is counted in
/// exactly one bucket: `hits` (served from cache), `misses` (this lookup
/// issued a store query of its own) or `coalesced` (this lookup waited on
/// another thread's in-flight query for the same key). A coalesced waiter
/// whose flight turns out to have been fetched under a superseded epoch
/// re-runs the lookup uncounted and stays `coalesced`, like the primary's
/// own epoch refetch stays one miss.
///
/// Hit-rate convention (the one convention used everywhere — reports,
/// benches and tests): a lookup counts as a *hit* iff it was served from
/// the cache without waiting on any store round trip. Coalesced waits are
/// therefore non-hits — the caller did wait out a remote round trip, just
/// a shared one — and sit in the denominator:
///
///   HitRate()   = hits / Lookups()
///   StallRate() = (misses + coalesced) / Lookups() = 1 - HitRate()
///
/// `misses` alone is the store-query rate: without prefetching it equals
/// the number of store queries this cache issued. With the prefetch
/// pipeline, background fetches add `prefetches_issued - prefetch_claimed`
/// further store queries that belong to no lookup bucket (a converted
/// prefetch surfaces later as a plain hit).
struct DbCacheStats {
  Count hits = 0;
  Count misses = 0;
  Count coalesced = 0;

  /// Keys enqueued by PrefetchAsync (not already cached or in flight).
  Count prefetches_issued = 0;
  /// Hits served by a prefetched entry on its first touch: the fetch
  /// latency was fully hidden from the requesting thread.
  Count prefetch_hits = 0;
  /// Prefetched keys a Get claimed before any fetcher picked them up;
  /// the Get fetched synchronously (counted in `misses`), so the
  /// prefetch saved nothing.
  Count prefetch_claimed = 0;
  /// Prefetched entries evicted — or never retained (zero/overflowed
  /// capacity, or fetched at a superseded epoch) — without serving a
  /// single hit: wasted fetch work.
  Count prefetch_wasted = 0;
  /// Entries evicted by AdvanceEpoch's precise invalidation (their
  /// vertex was touched by an epoch's delta).
  Count epoch_invalidations = 0;
  /// Retained entries stored still encoded because their decoded form
  /// did not fit the shard's free capacity or the governor's headroom.
  Count encoded_inserts = 0;
  /// Round trips of the batched background fetches (one per partition
  /// per batch) and their payload bytes; the cluster's overlap model
  /// charges these against compute instead of task stall time.
  Count prefetch_round_trips = 0;
  Count prefetch_bytes = 0;

  /// Total lookups: every Get lands in exactly one of the three buckets.
  Count Lookups() const { return hits + misses + coalesced; }

  double HitRate() const {
    const Count total = Lookups();
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }

  double StallRate() const {
    const Count total = Lookups();
    return total == 0 ? 0.0
                      : static_cast<double>(misses + coalesced) / total;
  }
};

/// The local in-memory database cache of §V-A: one per worker machine,
/// shared by all of the worker's threads, storing adjacency sets fetched
/// from the distributed database. LRU replacement captures the intra-task
/// locality of the backtracking search; sharing across threads captures
/// the inter-task locality of overlapping neighborhoods. Capacity is in
/// bytes of cached adjacency payload, so experiments can size it relative
/// to the data graph (Exp-3).
///
/// Charge basis: each entry is charged its *resident* bytes
/// (AdjacencyPayload::resident_bytes: 4 B/entry decoded, the encoded size
/// when encoded) plus a fixed per-entry overhead. Residency is mixed.
/// Raw payloads are stored as delivered. An encoded payload (compressed
/// backends) is decoded once on insert and stored raw iff the raw charge
/// fits the shard's free capacity without evicting anything and the
/// governor, when present, has headroom for it; otherwise it stays
/// encoded (counted in `db_cache.encoded_inserts`), so a full cache
/// settles back to all-encoded residency and the same capacity holds ~the
/// compression ratio more adjacency sets. The current total is exported
/// as the `db_cache.resident_bytes` gauge.
///
/// Recency: PlanExecutor memoizes the retained sets it fetched for the
/// length of one task, while the cache evicts nothing (evictions()), and
/// credits the repeat lookups it served from that memo as hits
/// (CreditHits). LRU recency is therefore refreshed on a vertex's first
/// touch per task, not on every touch; which lookups hit is unchanged.
///
/// Sharded LRU: the key space is split over independent shards, each with
/// its own mutex, list and map, so concurrent worker threads do not
/// serialize on one lock.
///
/// Single-flight misses: concurrent lookups of the same absent key are
/// coalesced — exactly one thread (the primary) queries the distributed
/// store while the others block on the in-flight entry and share its
/// reply, so N racing threads cost one remote query instead of N.
///
/// Prefetch pipeline (§2d of DESIGN.md): PrefetchAsync enqueues absent
/// keys as *queued* flights into a pending queue drained by fetcher jobs
/// on `fetch_pool` through the store's batched multi-get — one round trip
/// per partition per batch. A Get racing a queued flight claims it (CAS
/// on the flight state) and fetches synchronously, so prefetching can
/// never deadlock even if no fetcher ever runs; a Get racing an already
/// fetching flight coalesces as usual. Prefetch-inserted entries are
/// tagged so stats can tell converted hits from wasted fetches.
class DbCache {
 public:
  /// How one Get was served.
  enum class Outcome {
    kHit,        ///< present in the cache
    kMiss,       ///< this call queried the distributed store
    kCoalesced,  ///< waited on another thread's in-flight store query
  };

  struct Reply {
    /// The form the cache stores: decoded, or still delta+varint encoded
    /// when the decoded form did not fit (and always encoded from a
    /// compressed backend when nothing is retained). The executor's fused
    /// kernels consume the encoded form directly; call
    /// value.Materialize() for a decoded set.
    AdjacencyPayload value;
    Outcome outcome = Outcome::kMiss;
    /// `value` is the cache's resident entry (every hit, and a miss whose
    /// reply was retained), so a repeat lookup would hit until evicted.
    bool retained = false;
  };

  /// `capacity_bytes` == 0 disables caching (every get is a miss that
  /// goes to the store and is not retained; concurrent misses still
  /// coalesce). `fetch_pool`, when non-null, services PrefetchAsync in
  /// the background and must outlive the cache; when null, PrefetchAsync
  /// drains synchronously before returning (the forced-sync mode —
  /// batched, deterministic, but no overlap). `prefetch_batch_size` caps
  /// the keys per batched multi-get a fetcher drains at once; with a
  /// `governor` it is the base of the governor's headroom-scaled dynamic
  /// batch size, and every insert/evict reports its resident-byte delta
  /// to the governor so cache growth counts against the memory budget.
  DbCache(const DistributedKvStore* store, size_t capacity_bytes,
          size_t num_shards = 8, ThreadPool* fetch_pool = nullptr,
          size_t prefetch_batch_size = 16,
          MemoryGovernor* governor = nullptr);

  /// Waits for in-flight fetcher jobs, then drains any still-pending
  /// prefetch keys inline so every flight is published before teardown.
  ~DbCache();

  DbCache(const DbCache&) = delete;
  DbCache& operator=(const DbCache&) = delete;

  /// Returns Γ(v) and how the lookup was served: from cache when present,
  /// otherwise querying the distributed store (or piggybacking on a
  /// concurrent in-flight query) and inserting the reply.
  Reply Get(VertexId v);

  /// Counts `n` lookups a caller served from its own memo of sets this
  /// cache returned as retained (PlanExecutor's per-task memo) as hits,
  /// so `hits` keeps counting every adjacency request served without a
  /// store query.
  void CreditHits(Count n);

  /// Entries dropped so far: LRU evictions plus AdvanceEpoch purges. An
  /// entry returned as retained is still resident while this is
  /// unchanged, which is what lets a caller memoize it.
  uint64_t evictions() const {
    return evictions_.load();
  }

  /// Convenience wrapper around Get that materializes the payload.
  /// `was_hit`, if non-null, reports whether this call was served from
  /// cache (coalesced waits count as not-hit — the documented
  /// DbCacheStats convention: the caller did wait out a remote round
  /// trip, just a shared one).
  std::shared_ptr<const VertexSet> GetAdjacency(VertexId v,
                                                bool* was_hit = nullptr);

  /// Non-blocking: enqueues every key that is neither cached nor already
  /// in flight for background fetching and returns immediately (with a
  /// null fetch pool, drains the queue inline before returning). Safe to
  /// call concurrently with Get on the same keys — single-flight holds
  /// across both paths, so the store sees at most one query per distinct
  /// key while it stays cached.
  void PrefetchAsync(const VertexId* keys, size_t count);

  /// Blocks until no prefetch work is pending or running. Used before
  /// reading stats for accounting and by tests; NOT needed for
  /// correctness of Get (which claims or coalesces as appropriate).
  void WaitForPrefetches();

  /// Moves the cache to `epoch`, precisely invalidating the entries of
  /// `touched` vertices (the EpochDelta's endpoint set) — untouched
  /// entries stay hot. In-flight fetches started under the old epoch are
  /// not installed when they land (their flight's epoch tag mismatches;
  /// the fetch counts as prefetch_wasted for prefetch flights), and
  /// coalesced waiters woken by a stale flight retry under the new
  /// epoch, so a prefetch racing an epoch advance can never publish a
  /// stale adjacency set into the new snapshot.
  void AdvanceEpoch(uint64_t epoch, std::span<const VertexId> touched);

  /// The epoch this cache currently serves.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Aggregated statistics over all shards.
  DbCacheStats stats() const;

  /// Current cached resident bytes over all shards (incl. the per-entry
  /// overhead) — what capacity is charged against, also exported as the
  /// `db_cache.resident_bytes` gauge.
  size_t SizeBytes() const;

  size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Entry {
    VertexId key;
    AdjacencyPayload value;
    /// resident_bytes() + kEntryOverheadBytes, the capacity charge.
    size_t bytes;
    /// Inserted by the prefetch pipeline and not yet hit; cleared on the
    /// first hit (counted as prefetch_hits), counted as prefetch_wasted
    /// if evicted or dropped while still set.
    bool prefetched = false;
  };
  /// One in-flight store query; waiters block on `ready_cv`. `state`
  /// arbitrates who performs the fetch: prefetch flights start kQueued
  /// and are claimed (kQueued -> kFetching, exactly once) either by a
  /// fetcher job or by a racing Get; primary-miss flights start
  /// kFetching.
  struct Flight {
    std::mutex mu;
    std::condition_variable ready_cv;
    AdjacencyPayload value;
    bool ready = false;
    std::atomic<int> state{kFlightFetching};
    /// Cache epoch the flight was created (or refetched) under; installs
    /// whose tag no longer matches the cache epoch are dropped. Atomic:
    /// waiters re-check it lock-free after wake.
    std::atomic<uint64_t> epoch{0};
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<VertexId, std::list<Entry>::iterator> index;
    std::unordered_map<VertexId, std::shared_ptr<Flight>> inflight;
    size_t bytes = 0;
    Count hits = 0;
    Count misses = 0;
    Count coalesced = 0;
    Count prefetches_issued = 0;
    Count prefetch_hits = 0;
    Count prefetch_claimed = 0;
    Count prefetch_wasted = 0;
    Count epoch_invalidations = 0;
    Count encoded_inserts = 0;
  };

  static constexpr int kFlightQueued = 0;
  static constexpr int kFlightFetching = 1;

  Shard& ShardFor(VertexId v) { return *shards_[v % shards_.size()]; }
  size_t ShardCapacity() const {
    return capacity_bytes_ == 0 ? 0 : capacity_bytes_ / shards_.size();
  }
  static size_t EntryBytes(const AdjacencyPayload& value) {
    return value.resident_bytes() + kEntryOverheadBytes;
  }

  /// Get's body; `counted` false re-runs a lookup already counted in a
  /// bucket (the stale-flight retry) without counting it again.
  Reply Lookup(VertexId v, bool counted);
  /// Inserts the reply into the LRU (respecting capacity, decoding it
  /// first when the decoded form fits), unlinks the flight and publishes
  /// the value to waiters. `*value` becomes the published form; returns
  /// whether it was retained.
  bool InsertAndPublish(VertexId v, AdjacencyPayload* value,
                        const std::shared_ptr<Flight>& flight,
                        bool prefetched);
  /// Drains the pending prefetch queue in batches until it is empty.
  void DrainQueue();
  /// Fetches one batch of queued keys via the store's multi-get and
  /// publishes the replies; keys whose flight a Get already claimed are
  /// skipped.
  void FetchBatch(const std::vector<VertexId>& batch);

  static constexpr size_t kEntryOverheadBytes = 32;

  const DistributedKvStore* store_;
  size_t capacity_bytes_;
  /// Epoch the cache serves; bumped by AdvanceEpoch before the touched
  /// entries are purged, so racing installs see the new epoch first.
  std::atomic<uint64_t> epoch_{0};
  std::vector<std::unique_ptr<Shard>> shards_;

  // Registry mirrors of the per-shard stats (process-wide totals across
  // all caches, `db_cache.*` in docs/metrics.md), resolved once at
  // construction; bumped with relaxed sharded adds next to the legacy
  // counters. The span histograms record fetch/wait latencies and are
  // only written when tracing is enabled (metrics::TracingEnabled).
  struct RegistryMirror {
    metrics::Counter* hits = nullptr;
    metrics::Counter* misses = nullptr;
    metrics::Counter* coalesced = nullptr;
    metrics::Counter* prefetches_issued = nullptr;
    metrics::Counter* prefetch_hits = nullptr;
    metrics::Counter* prefetch_claimed = nullptr;
    metrics::Counter* prefetch_wasted = nullptr;
    metrics::Counter* epoch_invalidations = nullptr;
    metrics::Counter* encoded_inserts = nullptr;
    metrics::Counter* prefetch_round_trips = nullptr;
    metrics::Counter* prefetch_bytes = nullptr;
    metrics::Gauge* resident_bytes = nullptr;
    metrics::Histogram* sync_fetch_us = nullptr;
    metrics::Histogram* coalesced_wait_us = nullptr;
    metrics::Histogram* batch_fetch_us = nullptr;
  };
  RegistryMirror metrics_;

  ThreadPool* fetch_pool_;
  size_t prefetch_batch_size_;
  /// Optional memory governor (hybrid execution): receives resident-byte
  /// deltas and supplies the dynamic multi-get batch size.
  MemoryGovernor* governor_;
  std::mutex prefetch_mu_;
  std::condition_variable prefetch_idle_cv_;
  std::deque<VertexId> prefetch_queue_;
  size_t active_jobs_ = 0;  ///< fetcher jobs submitted or running
  bool shutting_down_ = false;
  std::atomic<Count> prefetch_round_trips_{0};
  std::atomic<Count> prefetch_bytes_{0};
  std::atomic<Count> credited_hits_{0};  ///< CreditHits total
  std::atomic<uint64_t> evictions_{0};   ///< see evictions()
};

}  // namespace benu

#endif  // BENU_STORAGE_DB_CACHE_H_
