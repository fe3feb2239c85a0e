#include "distributed/dynamic_runner.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags_util.h"
#include "common/metrics.h"
#include "core/executor.h"
#include "core/match_consumer.h"
#include "graph/generators.h"
#include "graph/patterns.h"
#include "plan/incremental.h"
#include "plan/plan_generator.h"
#include "plan/symmetry_breaking.h"
#include "storage/db_cache.h"
#include "storage/tcp_transport.h"
#include "storage/transport.h"
#include "storage/versioned_store.h"

namespace benu {
namespace {

using EdgeSet = std::set<std::pair<VertexId, VertexId>>;

EdgeSet EdgesOf(const Graph& g) {
  const auto edges = g.Edges();
  return EdgeSet(edges.begin(), edges.end());
}

std::pair<VertexId, VertexId> Norm(VertexId u, VertexId v) {
  return u < v ? std::make_pair(u, v) : std::make_pair(v, u);
}

// Reference enumeration: full plan over an in-memory graph built from the
// current edge set — completely independent of the versioned store and
// the incremental machinery under test.
std::vector<std::vector<VertexId>> ReferenceMatches(const Graph& pattern,
                                                    size_t num_vertices,
                                                    const EdgeSet& edges) {
  Graph g = std::move(Graph::FromEdges(
                          num_vertices, {edges.begin(), edges.end()}))
                .value();
  ExecutionPlan plan =
      std::move(GenerateRawPlan(pattern, GreedyMatchingOrder(pattern),
                                ComputeSymmetryBreakingConstraints(pattern)))
          .value();
  DirectAdjacencyProvider provider(&g);
  CollectingConsumer consumer(plan);
  auto executor = std::move(PlanExecutor::Create(&plan, &provider, nullptr))
                      .value();
  for (VertexId v = 0; v < static_cast<VertexId>(num_vertices); ++v) {
    SearchTask task;
    task.start = v;
    executor->RunTask(task, &consumer);
  }
  return consumer.Sorted();
}

// A deterministic mixed insert/delete stream: some ops target existing
// edges (deletes), some absent pairs (inserts), some are deliberate
// no-ops or insert+delete churn inside one batch.
std::vector<std::vector<EdgeDelta>> MakeStream(const Graph& base,
                                               size_t num_epochs,
                                               size_t batch, uint64_t seed) {
  std::mt19937_64 rng(seed);
  const size_t n = base.NumVertices();
  EdgeSet present = EdgesOf(base);
  std::vector<std::vector<EdgeDelta>> stream;
  for (size_t e = 0; e < num_epochs; ++e) {
    std::vector<EdgeDelta> ops;
    while (ops.size() < batch) {
      const VertexId u = static_cast<VertexId>(rng() % n);
      const VertexId v = static_cast<VertexId>(rng() % n);
      if (u == v) continue;
      const auto key = Norm(u, v);
      const bool exists = present.count(key) != 0;
      const uint64_t roll = rng() % 10;
      if (exists && roll < 4) {
        ops.push_back({u, v, /*insert=*/false});
        present.erase(key);
      } else if (!exists && roll < 8) {
        ops.push_back({u, v, /*insert=*/true});
        present.insert(key);
        if (roll == 7 && ops.size() < batch) {
          // Same-batch churn: insert then delete must cancel to a no-op.
          ops.push_back({v, u, /*insert=*/false});
          present.erase(key);
        }
      } else {
        // Deliberate no-op: re-insert a present edge / delete an absent
        // one; canonicalization must drop it.
        ops.push_back({u, v, exists});
      }
    }
    stream.push_back(std::move(ops));
  }
  return stream;
}

void RunExactnessLoop(std::shared_ptr<Transport> transport,
                      const Graph& base, const Graph& pattern,
                      size_t num_epochs, size_t batch, uint64_t seed) {
  DynamicRunnerOptions options;
  options.track_matches = true;
  auto runner =
      std::move(DynamicRunner::Create(std::move(transport), pattern, options))
          .value();

  EdgeSet edges = EdgesOf(base);
  auto baseline = runner->RunBaseline();
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(*baseline,
            ReferenceMatches(pattern, base.NumVertices(), edges).size());

  // Seeded tasks per delta edge: one per plan whose anchored pair the
  // pattern's symmetry-breaking order covers directly, two otherwise.
  const std::vector<OrderConstraint> order =
      ComputeSymmetryBreakingConstraints(pattern);
  Count tasks_per_edge = 0;
  for (const IncrementalPlan& inc : runner->incremental_plans().plans) {
    const bool ordered =
        std::find(order.begin(), order.end(),
                  OrderConstraint{inc.anchor_u, inc.anchor_v}) !=
            order.end() ||
        std::find(order.begin(), order.end(),
                  OrderConstraint{inc.anchor_v, inc.anchor_u}) != order.end();
    tasks_per_edge += ordered ? 1 : 2;
  }

  const auto stream = MakeStream(base, num_epochs, batch, seed);
  for (size_t e = 0; e < stream.size(); ++e) {
    auto report = runner->ApplyBatch(stream[e]);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->epoch, e + 1);
    EXPECT_EQ(report->seed_tasks,
              tasks_per_edge * (report->net_inserted + report->net_removed))
        << "epoch " << e + 1;
    for (const EdgeDelta& op : stream[e]) {
      if (op.insert) {
        edges.insert(Norm(op.u, op.v));
      } else {
        edges.erase(Norm(op.u, op.v));
      }
    }
    const auto expected =
        ReferenceMatches(pattern, base.NumVertices(), edges);
    // Multiset bit-identical at every epoch, and the count consistent.
    EXPECT_EQ(runner->TrackedMatches(), expected)
        << "epoch " << e + 1 << " diverged";
    EXPECT_EQ(runner->total_matches(), expected.size());
    // The maintained count also agrees with a fresh recount through the
    // same store (epoch snapshot reads).
    auto recount = runner->Recount();
    ASSERT_TRUE(recount.ok());
    EXPECT_EQ(*recount, runner->total_matches());
  }
}

// --- incremental plan generation -------------------------------------

TEST(IncrementalPlanTest, OnePlanPerCanonicalEdge) {
  Graph q5 = std::move(GetPattern("q5")).value();
  auto set = GenerateIncrementalPlans(q5);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(set->plans.size(), q5.NumEdges());
  EXPECT_TRUE(std::is_sorted(set->edges.begin(), set->edges.end()));
  for (size_t i = 0; i < set->plans.size(); ++i) {
    const IncrementalPlan& inc = set->plans[i];
    EXPECT_EQ(inc.edge_index, i);
    EXPECT_LT(inc.anchor_u, inc.anchor_v);
    ASSERT_GE(inc.plan.matching_order.size(), 2u);
    // The matching order starts with the anchored edge, so seeding pins
    // (f(anchor_u), f(anchor_v)) to the delta edge.
    EXPECT_EQ(inc.plan.matching_order[0], inc.anchor_u);
    EXPECT_EQ(inc.plan.matching_order[1], inc.anchor_v);
    EXPECT_FALSE(inc.plan.compressed);
    std::string error;
    EXPECT_TRUE(ValidatePlan(inc.plan, &error)) << error;
  }
}

TEST(IncrementalPlanTest, RejectsDegeneratePatterns) {
  Graph lone = std::move(Graph::FromEdges(1, {})).value();
  EXPECT_FALSE(GenerateIncrementalPlans(lone).ok());
  Graph disconnected = std::move(Graph::FromEdges(4, {{0, 1}, {2, 3}})).value();
  EXPECT_FALSE(GenerateIncrementalPlans(disconnected).ok());
}

TEST(IncrementalPlanTest, GreedyOrderIsConnectedAndDeterministic) {
  Graph q9 = std::move(GetPattern("q9")).value();
  const auto order = GreedyMatchingOrder(q9);
  ASSERT_EQ(order.size(), q9.NumVertices());
  for (size_t i = 1; i < order.size(); ++i) {
    bool connected = false;
    for (size_t j = 0; j < i && !connected; ++j) {
      connected = q9.HasEdge(order[i], order[j]);
    }
    EXPECT_TRUE(connected) << "vertex " << order[i] << " joins disconnected";
  }
  EXPECT_EQ(order, GreedyMatchingOrder(q9));
}

// --- executor seeding --------------------------------------------------

TEST(SeededTaskTest, SeedPinsSecondVertex) {
  // Path graph 0-1-2-3 plus edge 1-3: count wedges (q1-like path of 3).
  Graph g = std::move(Graph::FromEdges(
                          4, {{0, 1}, {1, 2}, {2, 3}, {1, 3}}))
                .value();
  Graph pattern = std::move(Graph::FromEdges(3, {{0, 1}, {1, 2}})).value();
  ExecutionPlan plan =
      std::move(GenerateRawPlan(pattern, {0, 1, 2}, {})).value();
  DirectAdjacencyProvider provider(&g);
  auto executor = std::move(PlanExecutor::Create(&plan, &provider, nullptr))
                      .value();

  // Unseeded from start=0: f(0)=0 forces f(1)=1, f(2) in {2, 3}.
  CollectingConsumer all(plan);
  SearchTask unseeded;
  unseeded.start = 0;
  executor->RunTask(unseeded, &all);
  ASSERT_EQ(all.matches().size(), 2u);

  // Seeded (0, 1): same matches — the seed is the only candidate anyway.
  CollectingConsumer seeded(plan);
  SearchTask task;
  task.start = 0;
  task.seed_second = 1;
  executor->RunTask(task, &seeded);
  EXPECT_EQ(seeded.Sorted(), all.Sorted());

  // Seeded with a non-neighbor: nothing binds, nothing reported.
  CollectingConsumer none(plan);
  task.seed_second = 2;
  executor->RunTask(task, &none);
  EXPECT_TRUE(none.matches().empty());

  // Seed takes precedence over subtask slicing: a slice that would
  // exclude the seed must still enumerate it.
  CollectingConsumer sliced(plan);
  SearchTask slice;
  slice.start = 1;  // candidates of f(1)=... start has 3 neighbors
  slice.seed_second = 3;
  slice.subtask_index = 0;
  slice.num_subtasks = 4;
  executor->RunTask(slice, &sliced);
  for (const auto& match : sliced.matches()) {
    EXPECT_EQ(match[1], 3u);
  }
  EXPECT_FALSE(sliced.matches().empty());
}

// --- min-index uniqueness filter --------------------------------------

TEST(DeltaMatchFilterTest, RejectsMatchesOwnedByEarlierPlans) {
  Graph triangle = std::move(GetPattern("triangle")).value();
  auto set = std::move(GenerateIncrementalPlans(triangle)).value();
  ASSERT_EQ(set.edges.size(), 3u);

  // Patch contains the data edges {0,1} and {1,2}; pattern edges map
  // straight through for the identity match {0,1,2}.
  std::vector<EdgeDelta> ops = {{0, 1, true}, {1, 2, true}};
  EdgePatch patch(ops);

  CollectingConsumer sink0(set.plans[0].plan);
  DeltaMatchFilter f0(&set, 0, &patch, &sink0);
  f0.OnMatch({0, 1, 2});
  EXPECT_EQ(f0.accepted(), 1u);  // no earlier edge: plan 0 owns it

  // Plan for edge (1,2) — canonical index 2 in a triangle ((0,1) < (0,2)
  // < (1,2)): pattern edge (0,1) maps into the patch, so the match
  // belongs to plan 0 and must be rejected here.
  CollectingConsumer sink2(set.plans[2].plan);
  DeltaMatchFilter f2(&set, 2, &patch, &sink2);
  f2.OnMatch({0, 1, 2});
  EXPECT_EQ(f2.accepted(), 0u);
  EXPECT_EQ(f2.rejected(), 1u);

  // A match whose earlier edges avoid the patch passes.
  f2.OnMatch({3, 1, 2});  // edge (0,1) -> {3,1}: not in patch
  EXPECT_EQ(f2.accepted(), 1u);
}

// --- versioned store ---------------------------------------------------

TEST(VersionedStoreTest, CanonicalizeDropsNoopsAndChurn) {
  Graph g = std::move(Graph::FromEdges(4, {{0, 1}, {1, 2}})).value();
  VersionedAdjacencyStore store(MakeSimulatedTransport(g, 2));
  std::vector<EdgeDelta> ops = {
      {0, 1, true},   // already present: no-op
      {2, 3, false},  // absent: no-op
      {0, 3, true},   // net insert
      {3, 0, false},  // cancels the insert
      {0, 2, true},   // net insert (normalized)
      {1, 2, false},  // net remove
      {2, 2, true},   // self loop: dropped
  };
  const EpochDelta delta = store.Canonicalize(ops);
  EXPECT_EQ(delta.epoch, 1u);
  EXPECT_EQ(delta.raw_ops, ops.size());
  ASSERT_EQ(delta.inserted.size(), 1u);
  EXPECT_EQ(delta.inserted[0].u, 0u);
  EXPECT_EQ(delta.inserted[0].v, 2u);
  ASSERT_EQ(delta.removed.size(), 1u);
  EXPECT_EQ(delta.removed[0].u, 1u);
  EXPECT_EQ(delta.removed[0].v, 2u);
  EXPECT_EQ(delta.touched, (std::vector<VertexId>{0, 1, 2}));
}

// The ordered-map canonicalization the sort-based one replaced, over an
// edge set kept by the test: (presence before, presence after ops so
// far) per normalized edge; the last op wins.
EpochDelta ReferenceCanonicalize(const EdgeSet& present, uint64_t epoch,
                                 const std::vector<EdgeDelta>& ops) {
  EpochDelta delta;
  delta.raw_ops = ops.size();
  delta.epoch = epoch + 1;
  std::map<std::pair<VertexId, VertexId>, std::pair<bool, bool>> state;
  for (const EdgeDelta& op : ops) {
    if (op.u == op.v) continue;
    const auto key = Norm(op.u, op.v);
    auto it = state.find(key);
    if (it == state.end()) {
      const bool was = present.count(key) != 0;
      it = state.emplace(key, std::make_pair(was, was)).first;
    }
    it->second.second = op.insert;
  }
  std::set<VertexId> touched;
  for (const auto& [key, presence] : state) {
    if (presence.first == presence.second) continue;
    (presence.second ? delta.inserted : delta.removed)
        .push_back({key.first, key.second, presence.second});
    touched.insert(key.first);
    touched.insert(key.second);
  }
  delta.touched.assign(touched.begin(), touched.end());
  return delta;
}

TEST(VersionedStoreTest, CanonicalizeMatchesOrderedMapReference) {
  // A 12-vertex universe so random ops collide: duplicates, flip-flops
  // in both orders, reversed endpoints and self-loops, over epochs whose
  // earlier Applies leave edges in the overlay for later ops to hit.
  const size_t n = 12;
  Graph base = std::move(GenerateFromSpec("er:12,20,4")).value();
  ASSERT_EQ(base.NumVertices(), n);
  VersionedAdjacencyStore store(MakeSimulatedTransport(base, 3));
  EdgeSet present = EdgesOf(base);
  metrics::Counter* noop = metrics::MetricsRegistry::Global().GetCounter(
      "store.epoch.ops_noop", "1",
      "ops dropped as net no-ops by canonicalization");
  std::mt19937_64 rng(99);
  for (int epoch = 0; epoch < 40; ++epoch) {
    std::vector<EdgeDelta> ops;
    const size_t batch = 1 + rng() % 30;
    while (ops.size() < batch) {
      const VertexId u = static_cast<VertexId>(rng() % n);
      const VertexId v = static_cast<VertexId>(rng() % n);
      const bool insert = rng() % 2 == 0;
      ops.push_back({u, v, insert});
      switch (rng() % 5) {
        case 0:  // duplicate, endpoints reversed
          ops.push_back({v, u, insert});
          break;
        case 1:  // flip-flop: the opposite op right after
          ops.push_back({v, u, !insert});
          break;
        case 2:  // flip-flop back: opposite, then the original again
          ops.push_back({u, v, !insert});
          ops.push_back({v, u, insert});
          break;
        default:
          break;
      }
    }
    if (epoch % 4 == 0) ops.push_back({ops[0].u, ops[0].u, true});
    const EpochDelta expected =
        ReferenceCanonicalize(present, store.epoch(), ops);
    const EpochDelta got = store.Canonicalize(ops);
    EXPECT_EQ(got.epoch, expected.epoch);
    EXPECT_EQ(got.raw_ops, expected.raw_ops);
    EXPECT_EQ(got.inserted, expected.inserted) << "epoch " << epoch;
    EXPECT_EQ(got.removed, expected.removed) << "epoch " << epoch;
    EXPECT_EQ(got.touched, expected.touched) << "epoch " << epoch;
    const uint64_t noop_before = noop->Value();
    store.Apply(got);
    EXPECT_EQ(noop->Value() - noop_before,
              expected.raw_ops - expected.inserted.size() -
                  expected.removed.size());
    for (const EdgeDelta& e : expected.inserted) present.insert({e.u, e.v});
    for (const EdgeDelta& e : expected.removed) present.erase({e.u, e.v});
  }
  EXPECT_GT(store.overlay_vertices(), 0u);
}

TEST(VersionedStoreTest, SnapshotReadsComposeOverlay) {
  Graph g = std::move(Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}})).value();
  VersionedAdjacencyStore store(MakeSimulatedTransport(g, 2));
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_TRUE(store.EdgeExists(1, 2));

  const EpochDelta delta =
      store.Canonicalize(std::vector<EdgeDelta>{{0, 3, true}, {1, 2, false}});
  EXPECT_EQ(store.Apply(delta), 1u);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_TRUE(store.EdgeExists(0, 3));
  EXPECT_FALSE(store.EdgeExists(1, 2));
  EXPECT_TRUE(store.EdgeExists(0, 1));  // untouched

  EXPECT_EQ(*store.GetAdjacency(0).Materialize(), (VertexSet{1, 3}));
  EXPECT_EQ(*store.GetAdjacency(1).Materialize(), (VertexSet{0}));
  EXPECT_EQ(*store.GetAdjacency(3).Materialize(), (VertexSet{0, 2}));

  auto batch = store.GetAdjacencyBatch(std::vector<VertexId>{0, 1, 2, 3});
  ASSERT_EQ(batch.values.size(), 4u);
  EXPECT_EQ(*batch.values[0].Materialize(), (VertexSet{1, 3}));
  EXPECT_EQ(*batch.values[2].Materialize(), (VertexSet{3}));

  // Applying a delta with a stale epoch is a programming error upstream;
  // Canonicalize against the new snapshot drops what is now a no-op.
  const EpochDelta again =
      store.Canonicalize(std::vector<EdgeDelta>{{0, 3, true}});
  EXPECT_TRUE(again.empty());
  EXPECT_EQ(again.epoch, 2u);
}

// --- end-to-end exactness ---------------------------------------------

struct DynamicCase {
  const char* graph_spec;
  const char* pattern;
  uint64_t seed;
};

class DynamicExactnessTest : public ::testing::TestWithParam<DynamicCase> {};

TEST_P(DynamicExactnessTest, SimTransport) {
  const DynamicCase& c = GetParam();
  Graph base = std::move(GenerateFromSpec(c.graph_spec)).value();
  Graph pattern = std::move(GetPattern(c.pattern)).value();
  RunExactnessLoop(MakeSimulatedTransport(base, 4), base, pattern,
                   /*num_epochs=*/5, /*batch=*/8, c.seed);
}

TEST_P(DynamicExactnessTest, LoopbackTransport) {
  const DynamicCase& c = GetParam();
  Graph base = std::move(GenerateFromSpec(c.graph_spec)).value();
  Graph pattern = std::move(GetPattern(c.pattern)).value();
  RunExactnessLoop(MakeLoopbackTransport(base, 4), base, pattern,
                   /*num_epochs=*/5, /*batch=*/8, c.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, DynamicExactnessTest,
    ::testing::Values(DynamicCase{"er:40,100,7", "q5", 11},
                      DynamicCase{"ba:40,3,5", "q9", 13},
                      DynamicCase{"er:32,90,9", "clique4", 17}),
    [](const ::testing::TestParamInfo<DynamicCase>& info) {
      return std::string(info.param.pattern) + "_" +
             std::to_string(info.index);
    });

// Patterns whose anchored pairs are all ordered (triangle, clique4),
// none ordered (path-3, star-3: automorphisms only swap non-adjacent
// vertices) or a mix (square, diamond): the orientation skip must keep
// every epoch's multiset exact either way.
Graph SeededPassPattern(const std::string& name) {
  if (name == "path-3") {
    return std::move(Graph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}})).value();
  }
  if (name == "star-3") {
    return std::move(Graph::FromEdges(4, {{0, 1}, {0, 2}, {0, 3}})).value();
  }
  return std::move(GetPattern(name)).value();
}

TEST(SeededPassTest, OrientationSkipKeepsEveryEpochExact) {
  Graph base = std::move(GenerateFromSpec("er:36,110,5")).value();
  uint64_t seed = 31;
  for (const char* name :
       {"triangle", "square", "diamond", "path-3", "star-3", "clique4"}) {
    SCOPED_TRACE(name);
    RunExactnessLoop(MakeSimulatedTransport(base, 4), base,
                     SeededPassPattern(name), /*num_epochs=*/6,
                     /*batch=*/10, seed++);
  }
}

TEST(SeededPassTest, AnchorOrderDecidesOrientations) {
  // Triangle: symmetry breaking orders every vertex pair, so every
  // anchored edge is tried in one orientation; star-3's order covers
  // only non-adjacent leaves, so every anchored edge is tried in both.
  // After the delta, one triangle ({1,2,3}) and three 3-stars (centred
  // at 0, 1 and 3) contain a delta edge.
  Graph base = std::move(Graph::FromEdges(
                             5, {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}}))
                   .value();
  const std::vector<EdgeDelta> delta = {{1, 3, true}, {0, 4, true}};
  const EdgePatch patch(delta);
  struct Case {
    const char* name;
    Count tasks_per_edge;
    Count found;
  };
  for (const Case& c : {Case{"triangle", 3, 1}, Case{"star-3", 6, 3}}) {
    SCOPED_TRACE(c.name);
    const auto plans =
        std::move(GenerateIncrementalPlans(SeededPassPattern(c.name)))
            .value();
    VersionedAdjacencyStore store(MakeSimulatedTransport(base, 2));
    store.Apply(store.Canonicalize(delta));
    DbCache cache(&store, 1 << 20, 2);
    CachedAdjacencyProvider provider(&cache, store.num_vertices(), 0);
    CollectingConsumer sink(plans.plans[0].plan);
    auto pass = RunSeededPass(plans, &provider, delta, patch, &sink);
    ASSERT_TRUE(pass.ok()) << pass.status().ToString();
    EXPECT_EQ(pass->seed_tasks, c.tasks_per_edge * delta.size());
    EXPECT_EQ(pass->found, c.found);
    EXPECT_EQ(sink.matches().size(), c.found);
  }
}

TEST(DynamicExactnessTest, TcpTransport) {
  // Real sockets against two spawned benu_kv_server processes: every
  // epoch's delta reaches both servers and no match changes.
  Graph base = std::move(GenerateFromSpec("er:32,80,3")).value();
  Graph pattern = std::move(GetPattern("q5")).value();

  flags::KvServerSpawnOptions opts;
  opts.graph_spec = "er:32,80,3";
  opts.partitions = 4;
  opts.servers = 2;
  opts.relabel = false;  // dynamic runs use raw ids as the total order
  std::vector<flags::ServerProcess> servers;
  for (size_t i = 0; i < opts.servers; ++i) {
    opts.index = i;
    servers.push_back(flags::SpawnKvServer(BENU_KV_SERVER_BIN, opts));
  }

  std::vector<Endpoint> endpoints;
  for (const auto& s : servers) {
    endpoints.push_back({"127.0.0.1", s.port});
  }
  auto transport = ConnectTcpTransport(endpoints);
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();

  // Every epoch's Apply replicates the delta mid-stream and both servers
  // attest it; snapshots are composed client-side, so results are exact.
  RunExactnessLoop(*transport, base, pattern, /*num_epochs=*/4,
                   /*batch=*/6, 23);

  // Both servers attested epochs 1..4 during the loop; advancing them to
  // 5 directly must be acked by each.
  auto push = (*transport)->AdvanceEpoch(5);
  ASSERT_TRUE(push.ok()) << push.status().ToString();
  EXPECT_EQ(push->acked_servers, 2u);

  // A reconnecting client that matches the servers' attested state is
  // accepted; the fleet stays reachable after the delta stream.
  auto transport2 = ConnectTcpTransport(endpoints);
  ASSERT_TRUE(transport2.ok()) << transport2.status().ToString();
  EXPECT_TRUE((*transport2)->Fetch(0).ok());
  flags::KillServers(servers);
}

// --- deletion retraction edge case ------------------------------------

TEST(DynamicRetractionTest, OneDeletedEdgeRetractsManyMatches) {
  // K4 plus a pendant: deleting the hub edge {0,1} retracts every
  // triangle using it (exactly two in K4), in one epoch.
  Graph base = std::move(Graph::FromEdges(
                             5, {{0, 1}, {0, 2}, {0, 3}, {1, 2},
                                 {1, 3}, {2, 3}, {3, 4}}))
                   .value();
  Graph triangle = std::move(GetPattern("triangle")).value();
  DynamicRunnerOptions options;
  options.track_matches = true;
  auto runner = std::move(DynamicRunner::Create(
                              MakeSimulatedTransport(base, 2), triangle,
                              options))
                    .value();
  ASSERT_EQ(std::move(runner->RunBaseline()).value(), 4u);  // C(4,3)

  auto report =
      runner->ApplyBatch(std::vector<EdgeDelta>{{0, 1, false}});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->retracted, 2u);
  EXPECT_EQ(report->added, 0u);
  EXPECT_EQ(report->total, 2u);
  EXPECT_EQ(runner->TrackedMatches(),
            ReferenceMatches(triangle, 5,
                             EdgeSet{{0, 2}, {0, 3}, {1, 2}, {1, 3},
                                     {2, 3}, {3, 4}}));

  // Re-inserting restores exactly what was lost.
  report = runner->ApplyBatch(std::vector<EdgeDelta>{{1, 0, true}});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->added, 2u);
  EXPECT_EQ(report->retracted, 0u);
  EXPECT_EQ(report->total, 4u);
}

}  // namespace
}  // namespace benu
