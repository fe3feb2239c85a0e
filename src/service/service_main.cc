// benu_service: the resident enumeration service. Loads (generates) one
// data graph, builds the shared substrate (store + DbCache + execution
// pool + memory governor) and serves query frames over TCP until
// terminated. docs/service.md is the operator guide.
//
//   --graph=SPEC            data graph (graph/generators.h spec syntax)
//   --port=N                listen port (0 = ephemeral; the chosen port
//                           is printed as "SERVING port=N")
//   --partitions=K          virtual storage partitions (own store only)
//   --transport=sim|tcp     adjacency backend: in-process simulated
//                           store (default) or remote benu_kv_server's
//   --endpoints=h:p|h:p,... TCP backend endpoints, replica syntax as in
//                           benu_driver (',' per server index, '|' per
//                           replica of one index)
//   --spawn-servers=K       fork K benu_kv_server children instead of
//                           --endpoints (children die with the service)
//   --replicas=R            replicas per spawned server index
//   --compress=0|1          delta+varint adjacency on every hop
//   --threads=N             execution threads (0 = hardware)
//   --cache-mb=N            shared DbCache capacity
//   --prefetch-budget=N     per-ENU prefetch budget in keys
//   --tau=N                 task-splitting degree threshold
//   --labels=K              assign label v%K to every data vertex (0 =
//                           unlabeled engine; labeled queries rejected)
//   --max-active=N          admission: concurrent-query cap
//   --memory-budget-mb=N    admission: governor ceiling (0 = unbounded)
//   --reserve-mb=N          admission: per-query byte reservation
//   --max-plan-cost=X       admission: plan-cost ceiling (0 = none)
//   --progress-interval=N   tasks between kProgress frames for queries
//                           that asked for them
//
// SIGTERM/SIGINT shut the service down cleanly: stop admitting, cancel
// in-flight queries (their terminal frames still flush), close.

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/flags_util.h"
#include "common/logging.h"
#include "graph/generators.h"
#include "service/query_engine.h"
#include "service/service_server.h"
#include "storage/tcp_transport.h"
#include "storage/transport.h"

namespace {

using namespace benu;

std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  const std::string graph_spec =
      flags::Value(argc, argv, "--graph", "ba:200,5,21");
  const uint16_t port = flags::PortValue(argc, argv, "--port", 0);
  const size_t partitions = flags::SizeValue(argc, argv, "--partitions", 8);
  const size_t spawn_servers =
      flags::SizeValue(argc, argv, "--spawn-servers", 0);
  const std::string transport_name = flags::Value(
      argc, argv, "--transport", spawn_servers > 0 ? "tcp" : "sim");
  const std::string endpoints_spec =
      flags::Value(argc, argv, "--endpoints", "");
  const size_t replicas =
      std::max<size_t>(1, flags::SizeValue(argc, argv, "--replicas", 1));
  const bool compress = flags::BoolValue(argc, argv, "--compress", true);
  const int labels = flags::IntValue(argc, argv, "--labels", 0);

  service::ServiceConfig config;
  config.db_partitions = partitions;
  config.compress_adjacency = compress;
  config.execution_threads = flags::IntValue(argc, argv, "--threads", 0);
  config.db_cache_bytes =
      flags::SizeValue(argc, argv, "--cache-mb", 64) << 20;
  config.prefetch_budget =
      flags::SizeValue(argc, argv, "--prefetch-budget", 0);
  config.task_split_threshold = static_cast<uint32_t>(
      flags::SizeValue(argc, argv, "--tau", 64));
  config.max_active_queries =
      flags::SizeValue(argc, argv, "--max-active", 8);
  config.memory_budget_bytes =
      flags::SizeValue(argc, argv, "--memory-budget-mb", 0) << 20;
  config.per_query_reserve_bytes =
      flags::SizeValue(argc, argv, "--reserve-mb", 0) << 20;
  config.max_plan_cost =
      flags::DoubleValue(argc, argv, "--max-plan-cost", 0);
  config.progress_interval_tasks =
      flags::SizeValue(argc, argv, "--progress-interval", 16);

  auto graph_or = GenerateFromSpec(graph_spec);
  BENU_CHECK(graph_or.ok()) << "--graph=" << graph_spec << ": "
                            << graph_or.status().ToString();
  const Graph& graph = *graph_or;

  // Deterministic vertex labels (v % K on input ids) so clients and the
  // --verify-solo path of benu_service_client can reproduce them.
  std::vector<int> data_labels;
  if (labels > 0) {
    data_labels.resize(graph.NumVertices());
    for (size_t v = 0; v < data_labels.size(); ++v) {
      data_labels[v] = static_cast<int>(v % static_cast<size_t>(labels));
    }
  }

  std::vector<flags::ServerProcess>& spawned = flags::SpawnedRegistry();
  std::atexit(flags::CleanupSpawnedAtExit);
  std::shared_ptr<Transport> transport;
  if (transport_name == "tcp") {
    std::vector<ReplicaGroup> groups;
    if (spawn_servers > 0) {
      const std::string server_binary = flags::SelfDir() + "/benu_kv_server";
      for (size_t i = 0; i < spawn_servers; ++i) {
        ReplicaGroup group;
        for (size_t r = 0; r < replicas; ++r) {
          flags::KvServerSpawnOptions spawn;
          spawn.graph_spec = graph_spec;
          spawn.partitions = partitions;
          spawn.servers = spawn_servers;
          spawn.index = i;
          spawn.replica = r;
          spawn.replicas = replicas;
          spawn.compress = compress;
          spawned.push_back(flags::SpawnKvServer(server_binary, spawn));
          group.replicas.push_back({"127.0.0.1", spawned.back().port});
        }
        groups.push_back(std::move(group));
      }
    } else {
      auto parsed = ParseReplicaGroups(endpoints_spec);
      BENU_CHECK(parsed.ok()) << "--endpoints: "
                              << parsed.status().ToString();
      groups = *parsed;
    }
    TcpTransportOptions tcp_options;
    tcp_options.compress = compress;
    auto connected = ConnectTcpTransport(groups, tcp_options);
    BENU_CHECK(connected.ok()) << "connect: "
                               << connected.status().ToString();
    transport = *connected;
  } else {
    BENU_CHECK(transport_name == "sim")
        << "unknown --transport=" << transport_name << " (sim|tcp)";
  }

  auto engine = service::QueryEngine::Create(graph, config, transport,
                                             std::move(data_labels));
  BENU_CHECK(engine.ok()) << "engine: " << engine.status().ToString();

  service::ServiceTcpServer server(std::move(*engine));
  BENU_CHECK(server.Listen(port).ok()) << "listen failed";
  BENU_CHECK(server.Start().ok()) << "start failed";

  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);

  std::printf("SERVING port=%u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  while (!g_stop.load()) {
    usleep(50 * 1000);
  }
  std::fprintf(stderr, "benu_service: stop signal, shutting down\n");
  // ~ServiceTcpServer runs the documented teardown order (drain, destroy
  // engine, stop loop); spawned KV children die via atexit.
  return 0;
}
