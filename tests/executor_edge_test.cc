// Edge-case tests for the plan executor: degenerate patterns, empty and
// tiny data graphs, compressed single-vertex cores, and stats accounting
// under unusual conditions.

#include <gtest/gtest.h>

#include <string>

#include "baselines/bruteforce.h"
#include "common/metrics.h"
#include "core/executor.h"
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

Count RunAll(const ExecutionPlan& plan, const Graph& data) {
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

TEST(ExecutorEdgeTest, SingleEdgePattern) {
  // K2 in any graph counts each edge once (symmetry breaking halves the
  // 2M ordered matches).
  Graph edge = MakeClique(2);
  auto cs = ComputeSymmetryBreakingConstraints(edge);
  auto plan = GenerateRawPlan(edge, Identity(2), cs);
  ASSERT_TRUE(plan.ok());
  Graph data = MakeCycle(7);
  EXPECT_EQ(RunAll(*plan, data), data.NumEdges());
}

TEST(ExecutorEdgeTest, SingleVertexPattern) {
  auto one = Graph::FromEdges(1, {});
  ASSERT_TRUE(one.ok());
  auto plan = GenerateRawPlan(*one, {0}, {});
  ASSERT_TRUE(plan.ok());
  Graph data = MakeCycle(5);
  EXPECT_EQ(RunAll(*plan, data), data.NumVertices());
}

TEST(ExecutorEdgeTest, PatternLargerThanData) {
  Graph k5 = MakeClique(5);
  auto cs = ComputeSymmetryBreakingConstraints(k5);
  auto plan = GenerateRawPlan(k5, Identity(5), cs);
  ASSERT_TRUE(plan.ok());
  OptimizePlan(&plan.value());
  EXPECT_EQ(RunAll(*plan, MakeClique(4)), 0u);
}

TEST(ExecutorEdgeTest, EdgelessDataGraph) {
  auto data = Graph::FromEdges(10, {});
  ASSERT_TRUE(data.ok());
  Graph triangle = MakeClique(3);
  auto cs = ComputeSymmetryBreakingConstraints(triangle);
  auto plan = GenerateRawPlan(triangle, Identity(3), cs);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(RunAll(*plan, *data), 0u);
}

TEST(ExecutorEdgeTest, StarPatternCompressedToSingleCoreVertex) {
  // Star with 3 leaves: core = {center}; all leaves are SE non-core with
  // chain constraints, exercising the C(s, k) expansion fast path.
  Graph star = MakeStar(3);
  auto cs = ComputeSymmetryBreakingConstraints(star);
  // Matching order starting at the center.
  auto plan = GenerateRawPlan(star, {0, 1, 2, 3}, cs);
  ASSERT_TRUE(plan.ok());
  OptimizePlan(&plan.value());
  ASSERT_TRUE(ApplyVcbcCompression(&plan.value()).ok());
  EXPECT_EQ(plan->core_vertices.size(), 1u);

  auto data = GenerateBarabasiAlbert(80, 3, 12);
  ASSERT_TRUE(data.ok());
  auto expected = BruteForceCount(*data, star, cs);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(RunAll(*plan, *data), *expected);
}

TEST(ExecutorEdgeTest, DisconnectedMatchingOrderPrefixWorks) {
  // Path 0-1-2 matched 0,2,1: the executor hits the V(G) fast path with
  // injective + order filters.
  Graph path = MakePath(3);
  auto cs = ComputeSymmetryBreakingConstraints(path);  // 0 < 2
  auto plan = GenerateRawPlan(path, {0, 2, 1}, cs);
  ASSERT_TRUE(plan.ok());
  auto data = GenerateErdosRenyi(30, 60, 9);
  ASSERT_TRUE(data.ok());
  auto expected = BruteForceCount(*data, path, cs);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(RunAll(*plan, *data), *expected);
}

TEST(ExecutorEdgeTest, SubtaskSliceBeyondCandidatesIsEmpty) {
  Graph data = MakeClique(5);
  Graph triangle = MakeClique(3);
  auto result = GenerateBestPlan(triangle, DataGraphStats::FromGraph(data));
  ASSERT_TRUE(result.ok());
  DirectAdjacencyProvider provider(&data);
  TriangleCache tcache;
  auto executor = PlanExecutor::Create(&result->plan, &provider, &tcache);
  ASSERT_TRUE(executor.ok());
  CountingConsumer consumer(result->plan);
  // Splitting into more subtasks than candidates: the extra slices are
  // empty ranges, and the union still covers everything exactly once.
  for (VertexId v = 0; v < data.NumVertices(); ++v) {
    for (uint32_t s = 0; s < 64; ++s) {
      (*executor)->RunTask(SearchTask{v, s, 64}, &consumer);
    }
  }
  EXPECT_EQ(consumer.matches(), 10u);  // C(5,3)
}

TEST(ExecutorEdgeTest, CompressedCollectingMatchesUncompressed) {
  // CollectingConsumer expands compressed codes into full matches; the
  // sorted match sets of compressed and uncompressed runs must be equal.
  auto data = GenerateErdosRenyi(35, 120, 44);
  ASSERT_TRUE(data.ok());
  for (const std::string name : {"q4", "q5", "q8"}) {
    Graph p = std::move(GetPattern(name)).value();
    auto cs = ComputeSymmetryBreakingConstraints(p);
    auto plan = GenerateRawPlan(p, Identity(p.NumVertices()), cs);
    ASSERT_TRUE(plan.ok());
    OptimizePlan(&plan.value());
    ExecutionPlan compressed = *plan;
    ASSERT_TRUE(ApplyVcbcCompression(&compressed).ok());

    auto collect = [&](const ExecutionPlan& which) {
      DirectAdjacencyProvider provider(&*data);
      TriangleCache tcache;
      auto executor = PlanExecutor::Create(&which, &provider, &tcache);
      EXPECT_TRUE(executor.ok());
      CollectingConsumer consumer(which);
      for (VertexId v = 0; v < data->NumVertices(); ++v) {
        (*executor)->RunTask(SearchTask{v, 0, 1}, &consumer);
      }
      return consumer.Sorted();
    };
    EXPECT_EQ(collect(*plan), collect(compressed)) << name;
  }
}

TEST(ExecutorEdgeTest, StatsCountIntersectionsAndRequests) {
  Graph data = MakeClique(6);
  Graph triangle = MakeClique(3);
  auto cs = ComputeSymmetryBreakingConstraints(triangle);
  auto plan = GenerateRawPlan(triangle, Identity(3), cs);
  ASSERT_TRUE(plan.ok());
  DirectAdjacencyProvider provider(&data);
  auto executor = PlanExecutor::Create(&plan.value(), &provider, nullptr);
  ASSERT_TRUE(executor.ok());
  CountingConsumer consumer(*plan);
  TaskStats stats = (*executor)->RunTask(SearchTask{0, 0, 1}, &consumer);
  EXPECT_GT(stats.adjacency_requests, 0u);
  EXPECT_GT(stats.intersections, 0u);
}

TEST(ExecutorEdgeTest, RunTaskLeavesTaskTimesToTheCaller) {
  // RunTask reads no clock for the task times: an untraced task comes
  // back with wall 0 and cpu -1 (the cluster runtime stamps both around
  // its own call). A traced task still records executor.task.us.
  Graph data = MakeClique(6);
  Graph triangle = MakeClique(3);
  auto plan = GenerateRawPlan(triangle, Identity(3),
                              ComputeSymmetryBreakingConstraints(triangle));
  ASSERT_TRUE(plan.ok());
  DirectAdjacencyProvider provider(&data);
  auto executor = PlanExecutor::Create(&plan.value(), &provider, nullptr);
  ASSERT_TRUE(executor.ok());
  CountingConsumer consumer(*plan);
  metrics::Histogram* task_us =
      metrics::MetricsRegistry::Global().GetHistogram(
          "executor.task.us", "us", "wall time of one RunTask (traced)");
  const bool was_traced = metrics::TracingEnabled();

  metrics::SetTracingEnabled(false);
  const uint64_t recorded = task_us->Count();
  TaskStats untraced = (*executor)->RunTask(SearchTask{0, 0, 1}, &consumer);
  EXPECT_GT(untraced.adjacency_requests, 0u);
  EXPECT_EQ(untraced.wall_seconds, 0.0);
  EXPECT_EQ(untraced.cpu_seconds, -1.0);
  EXPECT_EQ(task_us->Count(), recorded);

  metrics::SetTracingEnabled(true);
  TaskStats traced = (*executor)->RunTask(SearchTask{0, 0, 1}, &consumer);
  metrics::SetTracingEnabled(was_traced);
  EXPECT_EQ(traced.wall_seconds, 0.0);
  EXPECT_EQ(traced.cpu_seconds, -1.0);
  EXPECT_EQ(task_us->Count(), recorded + 1);
}

TEST(ExecutorEdgeTest, ReusedExecutorIsStateless) {
  // Running the same task twice must double the count exactly: no state
  // leaks across RunTask calls.
  auto data = GenerateErdosRenyi(40, 150, 2);
  ASSERT_TRUE(data.ok());
  Graph diamond = std::move(GetPattern("diamond")).value();
  auto result = GenerateBestPlan(diamond, DataGraphStats::FromGraph(*data));
  ASSERT_TRUE(result.ok());
  DirectAdjacencyProvider provider(&*data);
  TriangleCache tcache;
  auto executor = PlanExecutor::Create(&result->plan, &provider, &tcache);
  ASSERT_TRUE(executor.ok());
  CountingConsumer once(result->plan);
  CountingConsumer twice(result->plan);
  for (VertexId v = 0; v < data->NumVertices(); ++v) {
    (*executor)->RunTask(SearchTask{v, 0, 1}, &once);
    (*executor)->RunTask(SearchTask{v, 0, 1}, &twice);
    (*executor)->RunTask(SearchTask{v, 0, 1}, &twice);
  }
  EXPECT_EQ(twice.matches(), 2 * once.matches());
}

TEST(ExecutorEdgeTest, TriangleCacheSharingAcrossSubtasksIsConsistent) {
  // Subtasks of one start vertex share the warm triangle cache; counts
  // must match the unsplit run.
  auto data = GenerateBarabasiAlbert(100, 5, 8);
  ASSERT_TRUE(data.ok());
  Graph relabeled = data->RelabelByDegree();
  Graph k4 = MakeClique(4);
  auto result = GenerateBestPlan(k4, DataGraphStats::FromGraph(relabeled));
  ASSERT_TRUE(result.ok());
  DirectAdjacencyProvider provider(&relabeled);
  TriangleCache tcache;
  auto executor = PlanExecutor::Create(&result->plan, &provider, &tcache);
  ASSERT_TRUE(executor.ok());
  CountingConsumer split(result->plan);
  CountingConsumer whole(result->plan);
  for (VertexId v = 0; v < relabeled.NumVertices(); ++v) {
    (*executor)->RunTask(SearchTask{v, 0, 1}, &whole);
  }
  for (VertexId v = 0; v < relabeled.NumVertices(); ++v) {
    for (uint32_t s = 0; s < 3; ++s) {
      (*executor)->RunTask(SearchTask{v, s, 3}, &split);
    }
  }
  EXPECT_EQ(split.matches(), whole.matches());
  EXPECT_GT(tcache.stats().hits + tcache.stats().misses, 0u);
}

}  // namespace
}  // namespace benu
