#include "distributed/dynamic_runner.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "plan/plan_generator.h"
#include "plan/symmetry_breaking.h"

namespace benu {

namespace {

// Counts matches and mirrors them into the tracked multiset: additions
// increment (and must create, multiplicity 1), retractions decrement (and
// must find) — any violation means the incremental decomposition double-
// counted or retracted a phantom match, which is a bug worth dying for.
class MaintenanceSink : public MatchConsumer {
 public:
  MaintenanceSink(std::map<std::vector<VertexId>, Count>* tracked,
                  bool retract)
      : tracked_(tracked), retract_(retract) {}

  void OnMatch(const std::vector<VertexId>& f) override {
    ++count_;
    if (tracked_ == nullptr) return;
    if (retract_) {
      auto it = tracked_->find(f);
      BENU_CHECK(it != tracked_->end());
      if (--it->second == 0) tracked_->erase(it);
    } else {
      const Count multiplicity = ++(*tracked_)[f];
      BENU_CHECK(multiplicity == 1);
    }
  }

  void OnCompressedCode(const std::vector<VertexId>& /*f*/,
                        const std::vector<VertexSetView>& /*sets*/) override {
    BENU_CHECK(false);  // maintenance plans are uncompressed
  }

  Count count() const { return count_; }

 private:
  std::map<std::vector<VertexId>, Count>* tracked_;
  bool retract_;
  Count count_ = 0;
};

}  // namespace

DynamicRunner::DynamicRunner(const Graph& pattern,
                             const DynamicRunnerOptions& options)
    : pattern_(pattern), options_(options) {
  auto& registry = metrics::MetricsRegistry::Global();
  epochs_metric_ = registry.GetCounter(
      "dynamic.epochs", "1", "Epoch batches applied by DynamicRunner");
  raw_ops_metric_ = registry.GetCounter(
      "dynamic.raw_ops", "1", "Edge ops submitted before canonicalization");
  added_metric_ = registry.GetCounter(
      "dynamic.matches_added", "1", "Matches gained across all epochs");
  retracted_metric_ = registry.GetCounter(
      "dynamic.matches_retracted", "1", "Matches lost across all epochs");
  seed_tasks_metric_ = registry.GetCounter(
      "dynamic.seed_tasks", "1",
      "Seeded incremental executor tasks (|delta| x plans x orientations "
      "not ruled out by the anchored pair's symmetry order: 1 or 2)");
  filter_rejected_metric_ = registry.GetCounter(
      "dynamic.filter_rejected", "1",
      "Matches rejected by the min-index uniqueness filter");
  total_gauge_ = registry.GetGauge(
      "dynamic.total_matches", "1",
      "Match count currently maintained by the newest DynamicRunner");
}

StatusOr<std::unique_ptr<DynamicRunner>> DynamicRunner::Create(
    std::shared_ptr<Transport> transport, const Graph& pattern,
    const DynamicRunnerOptions& options) {
  auto inc = GenerateIncrementalPlans(pattern);
  BENU_RETURN_IF_ERROR(inc.status());
  auto full = GenerateRawPlan(pattern, GreedyMatchingOrder(pattern),
                              ComputeSymmetryBreakingConstraints(pattern));
  BENU_RETURN_IF_ERROR(full.status());
  std::unique_ptr<DynamicRunner> runner(new DynamicRunner(pattern, options));
  runner->inc_ = *std::move(inc);
  runner->full_plan_ = *std::move(full);
  runner->store_ =
      std::make_unique<VersionedAdjacencyStore>(std::move(transport));
  runner->cache_ = std::make_unique<DbCache>(
      runner->store_.get(), options.cache_bytes, options.cache_shards);
  runner->provider_ = std::make_unique<CachedAdjacencyProvider>(
      runner->cache_.get(), runner->store_->num_vertices(),
      options.prefetch_budget);
  return runner;
}

StatusOr<Count> DynamicRunner::EnumerateFull(bool track) {
  if (track) tracked_.clear();
  MaintenanceSink sink(track ? &tracked_ : nullptr, /*retract=*/false);
  auto executor =
      PlanExecutor::Create(&full_plan_, provider_.get(), /*tcache=*/nullptr);
  BENU_RETURN_IF_ERROR(executor.status());
  const size_t n = store_->num_vertices();
  for (VertexId v = 0; v < static_cast<VertexId>(n); ++v) {
    SearchTask task;
    task.start = v;
    (*executor)->RunTask(task, &sink);
  }
  return sink.count();
}

StatusOr<Count> DynamicRunner::RunBaseline() {
  auto count = EnumerateFull(options_.track_matches);
  BENU_RETURN_IF_ERROR(count.status());
  total_ = *count;
  baseline_run_ = true;
  total_gauge_->Set(static_cast<double>(total_));
  return total_;
}

StatusOr<Count> DynamicRunner::Recount() {
  return EnumerateFull(/*track=*/false);
}

StatusOr<SeededPassResult> RunSeededPass(const IncrementalPlanSet& plans,
                                         AdjacencyProvider* provider,
                                         std::span<const EdgeDelta> delta_edges,
                                         const EdgePatch& patch,
                                         MatchConsumer* sink) {
  SeededPassResult result;
  for (const IncrementalPlan& inc : plans.plans) {
    // f(anchor_u) ≺ f(anchor_v) rules out start > seed; the reverse
    // constraint rules out start < seed.
    bool ascending = true;   // (start, seed) = (min, max) endpoint
    bool descending = true;  // (start, seed) = (max, min) endpoint
    for (const OrderConstraint& c : inc.plan.partial_order) {
      if (c == OrderConstraint{inc.anchor_u, inc.anchor_v}) descending = false;
      if (c == OrderConstraint{inc.anchor_v, inc.anchor_u}) ascending = false;
    }
    DeltaMatchFilter filter(&plans, inc.edge_index, &patch, sink);
    auto executor =
        PlanExecutor::Create(&inc.plan, provider, /*tcache=*/nullptr);
    BENU_RETURN_IF_ERROR(executor.status());
    SearchTask task;
    const auto run = [&](VertexId start, VertexId seed) {
      task.start = start;
      task.seed_second = seed;
      (*executor)->RunTask(task, &filter);
      ++result.seed_tasks;
    };
    for (const EdgeDelta& edge : delta_edges) {
      const VertexId lo = std::min(edge.u, edge.v);
      const VertexId hi = std::max(edge.u, edge.v);
      if (ascending) run(lo, hi);
      if (descending) run(hi, lo);
    }
    result.found += filter.accepted();
    result.filter_rejected += filter.rejected();
  }
  return result;
}

StatusOr<EpochReport> DynamicRunner::ApplyBatch(
    std::span<const EdgeDelta> ops) {
  if (!baseline_run_) {
    return Status::FailedPrecondition(
        "ApplyBatch requires a prior RunBaseline");
  }
  const size_t n = store_->num_vertices();
  for (const EdgeDelta& op : ops) {
    if (op.u >= n || op.v >= n) {
      return Status::InvalidArgument(
          "delta endpoint outside the base graph's vertex universe");
    }
  }
  Stopwatch watch;
  EpochReport report;
  report.raw_ops = ops.size();
  const EpochDelta delta = store_->Canonicalize(ops);
  report.epoch = delta.epoch;
  report.net_inserted = delta.inserted.size();
  report.net_removed = delta.removed.size();

  // One seeded pass per side of the delta: its matches go to `found`
  // and, when tracked, leave (retract) or join the multiset.
  const auto seeded_pass = [&](const std::vector<EdgeDelta>& edges,
                               bool retract, Count* found) -> Status {
    if (edges.empty()) return Status::OK();
    MaintenanceSink sink(&tracked_, retract);
    auto pass = RunSeededPass(inc_, provider_.get(), edges, EdgePatch(edges),
                              options_.track_matches ? &sink : nullptr);
    BENU_RETURN_IF_ERROR(pass.status());
    *found = pass->found;
    report.seed_tasks += pass->seed_tasks;
    report.filter_rejected += pass->filter_rejected;
    return Status::OK();
  };

  // Retraction pass: matches of the pre-apply snapshot involving a
  // net-removed edge.
  BENU_RETURN_IF_ERROR(
      seeded_pass(delta.removed, /*retract=*/true, &report.retracted));

  // Apply: store overlay + delta replication, then precise cache
  // invalidation (the cache epoch is bumped before the purge, so racing
  // prefetch installs are dropped, never served stale).
  const uint64_t new_epoch = store_->Apply(delta);
  cache_->AdvanceEpoch(new_epoch, delta.touched);

  // Addition pass: matches of the new snapshot involving a net-inserted
  // edge.
  BENU_RETURN_IF_ERROR(
      seeded_pass(delta.inserted, /*retract=*/false, &report.added));

  BENU_CHECK(total_ + report.added >= report.retracted);
  total_ = total_ + report.added - report.retracted;
  report.total = total_;
  report.seconds = watch.ElapsedSeconds();

  epochs_metric_->Add(1);
  raw_ops_metric_->Add(report.raw_ops);
  added_metric_->Add(report.added);
  retracted_metric_->Add(report.retracted);
  seed_tasks_metric_->Add(report.seed_tasks);
  filter_rejected_metric_->Add(report.filter_rejected);
  total_gauge_->Set(static_cast<double>(total_));
  return report;
}

std::vector<std::vector<VertexId>> DynamicRunner::TrackedMatches() const {
  std::vector<std::vector<VertexId>> out;
  out.reserve(tracked_.size());
  for (const auto& [match, multiplicity] : tracked_) {
    for (Count i = 0; i < multiplicity; ++i) out.push_back(match);
  }
  return out;
}

}  // namespace benu
