#include "core/executor.h"

#include <gtest/gtest.h>

#include "baselines/bruteforce.h"
#include "common/metrics.h"
#include "distributed/cluster.h"
#include "graph/generators.h"
#include "graph/patterns.h"
#include "plan/optimizer.h"
#include "plan/plan_generator.h"
#include "plan/plan_search.h"
#include "plan/symmetry_breaking.h"
#include "plan/vcbc.h"

namespace benu {
namespace {

std::vector<VertexId> Identity(size_t n) {
  std::vector<VertexId> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<VertexId>(i);
  return order;
}

// Runs `plan` over every start vertex with the direct provider and
// returns the total expanded match count.
Count RunAllTasks(const ExecutionPlan& plan, const Graph& data) {
  DirectAdjacencyProvider provider(&data);
  TriangleCache tcache;
  auto executor = PlanExecutor::Create(&plan, &provider, &tcache);
  EXPECT_TRUE(executor.ok()) << executor.status().ToString();
  CountingConsumer consumer(plan);
  for (VertexId v = 0; v < data.NumVertices(); ++v) {
    (*executor)->RunTask(SearchTask{v, 0, 1}, &consumer);
  }
  return consumer.matches();
}

TEST(ExecutorTest, TriangleOnDemoGraph) {
  // Fig. 1b's data graph has a known shape; use a simple one instead:
  // K4 contains 4 triangles.
  Graph data = MakeClique(4);
  Graph triangle = MakeClique(3);
  auto cs = ComputeSymmetryBreakingConstraints(triangle);
  auto plan = GenerateRawPlan(triangle, Identity(3), cs);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(RunAllTasks(*plan, data), 4u);
}

TEST(ExecutorTest, SquareOnCycleGraph) {
  // C8 contains no 4-cycles; C4 contains exactly one.
  Graph square = MakeCycle(4);
  auto cs = ComputeSymmetryBreakingConstraints(square);
  auto plan = GenerateRawPlan(square, Identity(4), cs);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(RunAllTasks(*plan, MakeCycle(8)), 0u);
  EXPECT_EQ(RunAllTasks(*plan, MakeCycle(4)), 1u);
}

TEST(ExecutorTest, RawPlanMatchesBruteForceOnRandomGraphs) {
  auto data = GenerateErdosRenyi(60, 240, 17);
  ASSERT_TRUE(data.ok());
  for (const std::string name :
       {"triangle", "square", "diamond", "clique4", "q1", "q3", "q5"}) {
    Graph p = std::move(GetPattern(name)).value();
    auto cs = ComputeSymmetryBreakingConstraints(p);
    auto plan = GenerateRawPlan(p, Identity(p.NumVertices()), cs);
    ASSERT_TRUE(plan.ok()) << name;
    auto expected = BruteForceCount(*data, p, cs);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(RunAllTasks(*plan, *data), *expected) << name;
  }
}

TEST(ExecutorTest, OptimizedPlanMatchesRawPlan) {
  auto data = GenerateBarabasiAlbert(150, 4, 23);
  ASSERT_TRUE(data.ok());
  Graph relabeled = data->RelabelByDegree();
  for (const std::string& name : AllPatternNames()) {
    Graph p = std::move(GetPattern(name)).value();
    auto cs = ComputeSymmetryBreakingConstraints(p);
    auto raw = GenerateRawPlan(p, Identity(p.NumVertices()), cs);
    ASSERT_TRUE(raw.ok()) << name;
    ExecutionPlan optimized = *raw;
    OptimizePlan(&optimized);
    EXPECT_EQ(RunAllTasks(*raw, relabeled), RunAllTasks(optimized, relabeled))
        << name;
  }
}

TEST(ExecutorTest, CompressedPlanCountsMatchUncompressed) {
  auto data = GenerateBarabasiAlbert(120, 4, 31);
  ASSERT_TRUE(data.ok());
  Graph relabeled = data->RelabelByDegree();
  for (const std::string& name : AllPatternNames()) {
    Graph p = std::move(GetPattern(name)).value();
    auto cs = ComputeSymmetryBreakingConstraints(p);
    auto plan = GenerateRawPlan(p, Identity(p.NumVertices()), cs);
    ASSERT_TRUE(plan.ok()) << name;
    OptimizePlan(&plan.value());
    Count uncompressed = RunAllTasks(*plan, relabeled);
    ExecutionPlan compressed = *plan;
    ASSERT_TRUE(ApplyVcbcCompression(&compressed).ok()) << name;
    EXPECT_EQ(RunAllTasks(compressed, relabeled), uncompressed) << name;
  }
}

TEST(ExecutorTest, BestPlanMatchesBruteForce) {
  auto data = GenerateErdosRenyi(70, 350, 5);
  ASSERT_TRUE(data.ok());
  Graph relabeled = data->RelabelByDegree();
  for (const std::string name : {"q2", "q4", "q6", "q7", "q8", "q9"}) {
    Graph p = std::move(GetPattern(name)).value();
    auto result = GenerateBestPlan(p, DataGraphStats::FromGraph(relabeled));
    ASSERT_TRUE(result.ok()) << name;
    auto expected = BruteForceCountSubgraphs(relabeled, p);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(RunAllTasks(result->plan, relabeled), *expected) << name;
  }
}

TEST(ExecutorTest, CollectingConsumerProducesValidSubgraphMatches) {
  auto data = GenerateErdosRenyi(30, 90, 3);
  ASSERT_TRUE(data.ok());
  Graph p = std::move(GetPattern("diamond")).value();
  auto cs = ComputeSymmetryBreakingConstraints(p);
  auto plan = GenerateRawPlan(p, Identity(4), cs);
  ASSERT_TRUE(plan.ok());
  OptimizePlan(&plan.value());

  DirectAdjacencyProvider provider(&*data);
  TriangleCache tcache;
  auto executor = PlanExecutor::Create(&plan.value(), &provider, &tcache);
  ASSERT_TRUE(executor.ok());
  CollectingConsumer consumer(*plan);
  for (VertexId v = 0; v < data->NumVertices(); ++v) {
    (*executor)->RunTask(SearchTask{v, 0, 1}, &consumer);
  }
  auto expected = BruteForceEnumerate(*data, p, cs);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(consumer.Sorted(), *expected);
  // Every reported match is an edge-preserving injective mapping.
  for (const auto& f : consumer.matches()) {
    for (const auto& [u, v] : p.Edges()) {
      EXPECT_TRUE(data->HasEdge(f[u], f[v]));
    }
  }
}

TEST(ExecutorTest, SubtaskSlicesPartitionTheWork) {
  auto data = GenerateBarabasiAlbert(200, 5, 7);
  ASSERT_TRUE(data.ok());
  Graph relabeled = data->RelabelByDegree();
  Graph p = std::move(GetPattern("triangle")).value();
  auto result = GenerateBestPlan(p, DataGraphStats::FromGraph(relabeled));
  ASSERT_TRUE(result.ok());

  DirectAdjacencyProvider provider(&relabeled);
  TriangleCache tcache;
  auto executor = PlanExecutor::Create(&result->plan, &provider, &tcache);
  ASSERT_TRUE(executor.ok());
  // Whole tasks vs 4-way split tasks must agree.
  CountingConsumer whole(result->plan);
  CountingConsumer split(result->plan);
  for (VertexId v = 0; v < relabeled.NumVertices(); ++v) {
    (*executor)->RunTask(SearchTask{v, 0, 1}, &whole);
    for (uint32_t s = 0; s < 4; ++s) {
      (*executor)->RunTask(SearchTask{v, s, 4}, &split);
    }
  }
  EXPECT_EQ(whole.matches(), split.matches());
}

TEST(ExecutorTest, CachedProviderReportsHitsAndQueries) {
  Graph data = MakeClique(6).RelabelByDegree();
  Graph p = std::move(GetPattern("triangle")).value();
  auto result = GenerateBestPlan(p, DataGraphStats::FromGraph(data));
  ASSERT_TRUE(result.ok());

  DistributedKvStore store(data, 2);
  DbCache cache(&store, 1 << 20);
  CachedAdjacencyProvider provider(&cache, data.NumVertices());
  TriangleCache tcache;
  auto executor = PlanExecutor::Create(&result->plan, &provider, &tcache);
  ASSERT_TRUE(executor.ok());
  CountingConsumer consumer(result->plan);
  TaskStats totals;
  for (VertexId v = 0; v < data.NumVertices(); ++v) {
    totals.Accumulate((*executor)->RunTask(SearchTask{v, 0, 1}, &consumer));
  }
  EXPECT_EQ(consumer.matches(), 20u);  // C(6,3) triangles in K6
  EXPECT_EQ(totals.adjacency_requests, totals.cache_hits + totals.db_queries);
  EXPECT_GT(totals.cache_hits, 0u);
  EXPECT_LE(totals.db_queries, data.NumVertices());
  EXPECT_EQ(store.stats().queries.load(), totals.db_queries);
}

// Counts the lookups that reach the cache, so a test can tell the DBQs
// the executor's per-task memo served.
class CountingCachedProvider : public CachedAdjacencyProvider {
 public:
  using CachedAdjacencyProvider::CachedAdjacencyProvider;
  Fetch GetAdjacency(VertexId v) override {
    ++calls;
    return CachedAdjacencyProvider::GetAdjacency(v);
  }
  Count calls = 0;
};

TEST(ExecutorTest, MemoServesRepeatDbqsWithinATaskAsCreditedHits) {
  auto raw = GenerateBarabasiAlbert(150, 5, 31);
  ASSERT_TRUE(raw.ok());
  Graph data = raw->RelabelByDegree();
  Graph p = std::move(GetPattern("q5")).value();
  auto result = GenerateBestPlan(p, DataGraphStats::FromGraph(data));
  ASSERT_TRUE(result.ok());

  DistributedKvStore store(data, 2);
  DbCache cache(&store, 1 << 20);
  CountingCachedProvider provider(&cache, data.NumVertices());
  TriangleCache tcache;
  auto executor = PlanExecutor::Create(&result->plan, &provider, &tcache);
  ASSERT_TRUE(executor.ok());
  CountingConsumer consumer(result->plan);
  TaskStats totals;
  for (VertexId v = 0; v < data.NumVertices(); ++v) {
    totals.Accumulate((*executor)->RunTask(SearchTask{v, 0, 1}, &consumer));
  }
  EXPECT_EQ(consumer.matches(), RunAllTasks(result->plan, data));
  // Some DBQs never reached the cache, yet the cache counts every
  // request served without a store query as a hit.
  EXPECT_LT(provider.calls, totals.adjacency_requests);
  const DbCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, totals.cache_hits);
  EXPECT_EQ(stats.misses, totals.db_queries);
  EXPECT_EQ(stats.Lookups(), totals.adjacency_requests);
}

TEST(ExecutorTest, MemoPinsNothingAcrossTasks) {
  auto raw = GenerateBarabasiAlbert(120, 4, 32);
  ASSERT_TRUE(raw.ok());
  Graph data = raw->RelabelByDegree();
  Graph p = std::move(GetPattern("q5")).value();
  auto result = GenerateBestPlan(p, DataGraphStats::FromGraph(data));
  ASSERT_TRUE(result.ok());

  DistributedKvStore store(data, 1);
  DbCache cache(&store, 1 << 20);
  CachedAdjacencyProvider provider(&cache, data.NumVertices());
  std::vector<std::shared_ptr<const VertexSet>> held;
  for (VertexId v = 0; v < data.NumVertices(); ++v) {
    held.push_back(cache.Get(v).value.decoded);
  }
  std::vector<long> before;
  for (const auto& set : held) before.push_back(set.use_count());

  TriangleCache tcache;
  auto executor = PlanExecutor::Create(&result->plan, &provider, &tcache);
  ASSERT_TRUE(executor.ok());
  CountingConsumer consumer(result->plan);
  TaskStats totals;
  for (VertexId v = 0; v < data.NumVertices(); ++v) {
    totals.Accumulate((*executor)->RunTask(SearchTask{v, 0, 1}, &consumer));
    for (size_t u = 0; u < held.size(); ++u) {
      ASSERT_EQ(held[u].use_count(), before[u]) << "task " << v << " set " << u;
    }
  }
  EXPECT_GT(totals.cache_hits, 0u);
}

TEST(ExecutorTest, MemoHitsKeepCacheAndClusterHitCountsEqual) {
  // 4 real threads on one worker share one DbCache; each executor's memo
  // credits its hits once per task, so the cache-side and task-side hit
  // counts still agree exactly.
  auto raw = GenerateBarabasiAlbert(200, 5, 33);
  ASSERT_TRUE(raw.ok());
  Graph data = raw->RelabelByDegree();
  Graph p = std::move(GetPattern("q5")).value();
  auto plan = GenerateBestPlan(p, DataGraphStats::FromGraph(data));
  ASSERT_TRUE(plan.ok());

  ClusterConfig config;
  config.num_workers = 1;
  config.threads_per_worker = 4;
  config.execution_threads = 4;
  config.allow_thread_oversubscription = true;
  config.max_runtime_threads = 4;
  config.db_cache_bytes = 1 << 20;
  auto& registry = metrics::MetricsRegistry::Global();
  metrics::Counter* hits = registry.GetCounter("db_cache.hits", "1");
  metrics::Counter* misses = registry.GetCounter("db_cache.misses", "1");
  metrics::Counter* coalesced = registry.GetCounter("db_cache.coalesced", "1");
  const uint64_t hits0 = hits->Value();
  const uint64_t misses0 = misses->Value();
  const uint64_t coalesced0 = coalesced->Value();

  ClusterSimulator cluster(data, config);
  auto run = cluster.Run(plan->plan);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->total_matches, RunAllTasks(plan->plan, data));
  EXPECT_EQ(run->execution_threads, 4);
  EXPECT_EQ(hits->Value() - hits0, run->cache_hits);
  EXPECT_EQ(misses->Value() - misses0, run->db_queries);
  EXPECT_EQ(coalesced->Value() - coalesced0, run->coalesced_fetches);
  EXPECT_EQ(run->cache_hits + run->db_queries + run->coalesced_fetches,
            run->adjacency_requests);
}

TEST(ExecutorTest, DirectProviderIsZeroCopy) {
  // The direct provider must not duplicate the graph: fetched views alias
  // the graph's CSR storage, and no owning pointer is handed out.
  Graph data = MakeClique(6);
  DirectAdjacencyProvider provider(&data);
  for (VertexId v = 0; v < data.NumVertices(); ++v) {
    AdjacencyProvider::Fetch fetch = provider.GetAdjacency(v);
    const VertexSetView direct = data.Adjacency(v);
    EXPECT_EQ(fetch.view.data, direct.data) << "copied adjacency of " << v;
    EXPECT_EQ(fetch.view.size, direct.size);
    EXPECT_EQ(fetch.set, nullptr);
    EXPECT_TRUE(fetch.cache_hit);
    EXPECT_EQ(fetch.bytes, 0u);
  }
}

TEST(ExecutorTest, CachedProviderViewAliasesOwnedPayload) {
  Graph data = MakeClique(5);
  DistributedKvStore store(data, 4);
  DbCache cache(&store, 1u << 20);
  CachedAdjacencyProvider provider(&cache, data.NumVertices());
  AdjacencyProvider::Fetch fetch = provider.GetAdjacency(2);
  ASSERT_NE(fetch.set, nullptr);
  EXPECT_EQ(fetch.view.data, fetch.set->data());
  EXPECT_EQ(fetch.view.size, fetch.set->size());
}

TEST(ExecutorTest, CreateRejectsTrcWithoutCache) {
  Graph p = MakeClique(4);
  auto cs = ComputeSymmetryBreakingConstraints(p);
  auto plan = GenerateRawPlan(p, Identity(4), cs);
  ASSERT_TRUE(plan.ok());
  OptimizePlan(&plan.value());
  Graph data = MakeClique(5);
  DirectAdjacencyProvider provider(&data);
  auto executor = PlanExecutor::Create(&plan.value(), &provider, nullptr);
  EXPECT_FALSE(executor.ok());
}

}  // namespace
}  // namespace benu
