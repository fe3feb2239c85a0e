#ifndef BENU_DISTRIBUTED_DYNAMIC_RUNNER_H_
#define BENU_DISTRIBUTED_DYNAMIC_RUNNER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/executor.h"
#include "graph/graph.h"
#include "plan/incremental.h"
#include "storage/db_cache.h"
#include "storage/transport.h"
#include "storage/versioned_store.h"

namespace benu {

namespace metrics {
class Counter;
class Gauge;
}  // namespace metrics

/// Knobs of the dynamic maintenance loop.
struct DynamicRunnerOptions {
  /// DB cache capacity, bytes (0 disables caching benefits but the cache
  /// layer still coalesces and epoch-invalidates).
  size_t cache_bytes = 64u << 20;
  size_t cache_shards = 8;
  /// Keys forwarded per executor Prefetch call (0: synchronous misses
  /// only — the deterministic default; the bench turns it on).
  size_t prefetch_budget = 0;
  /// Maintain the full match multiset across epochs (TrackedMatches());
  /// the exactness property test compares it against a fresh recount at
  /// every epoch. Off for benchmarks — counting is the production mode.
  bool track_matches = false;
};

/// Outcome of one epoch batch.
struct EpochReport {
  uint64_t epoch = 0;
  /// Ops in the submitted batch before net canonicalization.
  size_t raw_ops = 0;
  size_t net_inserted = 0;
  size_t net_removed = 0;
  /// Matches gained (over the post-apply snapshot, seeded from Δ⁺).
  Count added = 0;
  /// Matches lost (over the pre-apply snapshot, seeded from Δ⁻).
  Count retracted = 0;
  /// Maintained total after this epoch: previous total − retracted + added.
  Count total = 0;
  /// Seeded executor tasks run (|Δ| × plans × 1 or 2, see RunSeededPass).
  Count seed_tasks = 0;
  /// Matches rejected by the min-index uniqueness filter.
  Count filter_rejected = 0;
  /// Wall time of the incremental maintenance (both passes + apply).
  double seconds = 0;
};

/// Outcome of one seeded S-BENU pass.
struct SeededPassResult {
  Count found = 0;            ///< matches the pass's delta owns
  Count seed_tasks = 0;       ///< seeded executor tasks run
  Count filter_rejected = 0;  ///< owned by an earlier plan (min-index)
};

/// One seeded S-BENU maintenance pass, shared by DynamicRunner and the
/// service's subscriptions: runs every plan of `plans` seeded from each
/// edge of `delta_edges` against `provider`'s snapshot and forwards the
/// matches DeltaMatchFilter gives the plan (against `patch`) to `sink`
/// (null: count only). An edge {u, v} is tried as (start, seed) = (u, v)
/// and (v, u), except when the plan's symmetry-breaking order constrains
/// the anchored pair itself: then only the orientation it admits can
/// report a match, and the other is not run.
StatusOr<SeededPassResult> RunSeededPass(const IncrementalPlanSet& plans,
                                         AdjacencyProvider* provider,
                                         std::span<const EdgeDelta> delta_edges,
                                         const EdgePatch& patch,
                                         MatchConsumer* sink);

/// Drives S-BENU incremental maintenance over a VersionedAdjacencyStore:
/// replays an edge stream in epoch batches, keeping the pattern's match
/// count (and optionally the match multiset) exact at every epoch.
///
/// Per ApplyBatch: Canonicalize → retraction pass (incremental plans
/// seeded from Δ⁻ against the pre-apply snapshot, patch = Δ⁻) → Apply
/// (store overlay + delta replication + DbCache::AdvanceEpoch precise
/// invalidation) → addition pass (seeded from Δ⁺ against the new
/// snapshot, patch = Δ⁺). Exactness: net canonicalization makes Δ⁺
/// disjoint from the old snapshot and Δ⁻ contained in it, so retracted
/// matches (⊇ one Δ⁻ edge, counted once via min-index) and added
/// matches (⊇ one Δ⁺ edge) partition the symmetric difference of the
/// match sets.
///
/// Works over any Transport backend — simulated, loopback, TCP — because
/// all mutation lives in the client-side overlay; servers keep serving
/// base payloads (see VersionedAdjacencyStore).
///
/// The vertex universe is fixed at the base graph's: delta endpoints
/// must be < store().num_vertices().
class DynamicRunner {
 public:
  /// `pattern` must be connected with ≥ 2 vertices. The transport must
  /// serve the epoch-0 base graph.
  static StatusOr<std::unique_ptr<DynamicRunner>> Create(
      std::shared_ptr<Transport> transport, const Graph& pattern,
      const DynamicRunnerOptions& options = {});

  /// Full enumeration at the current snapshot; (re)initializes the
  /// maintained total. Call once before the first ApplyBatch.
  StatusOr<Count> RunBaseline();

  /// One epoch batch end to end. The maintained total must have been
  /// initialized by RunBaseline.
  StatusOr<EpochReport> ApplyBatch(std::span<const EdgeDelta> ops);

  /// Full recomputation at the current snapshot — the comparator for the
  /// ≥5× speedup acceptance check and the exactness property test. Does
  /// not touch the maintained total.
  StatusOr<Count> Recount();

  /// Maintained match count.
  Count total_matches() const { return total_; }

  uint64_t epoch() const { return store_->epoch(); }
  VersionedAdjacencyStore& store() { return *store_; }
  DbCache& cache() { return *cache_; }
  const IncrementalPlanSet& incremental_plans() const { return inc_; }

  /// The maintained match multiset, sorted (requires
  /// options.track_matches and a prior RunBaseline).
  std::vector<std::vector<VertexId>> TrackedMatches() const;

 private:
  DynamicRunner(const Graph& pattern, const DynamicRunnerOptions& options);

  /// Full enumeration with the baseline plan; when `track` is true the
  /// tracked multiset is rebuilt.
  StatusOr<Count> EnumerateFull(bool track);

  Graph pattern_;
  DynamicRunnerOptions options_;
  IncrementalPlanSet inc_;
  ExecutionPlan full_plan_;
  std::unique_ptr<VersionedAdjacencyStore> store_;
  std::unique_ptr<DbCache> cache_;
  std::unique_ptr<CachedAdjacencyProvider> provider_;
  Count total_ = 0;
  bool baseline_run_ = false;
  /// match → multiplicity (should stay 1; tracked to catch duplicates).
  std::map<std::vector<VertexId>, Count> tracked_;

  metrics::Counter* epochs_metric_ = nullptr;
  metrics::Counter* raw_ops_metric_ = nullptr;
  metrics::Counter* added_metric_ = nullptr;
  metrics::Counter* retracted_metric_ = nullptr;
  metrics::Counter* seed_tasks_metric_ = nullptr;
  metrics::Counter* filter_rejected_metric_ = nullptr;
  metrics::Gauge* total_gauge_ = nullptr;
};

}  // namespace benu

#endif  // BENU_DISTRIBUTED_DYNAMIC_RUNNER_H_
