// benu_kv_server: standalone KV-server process serving its share of a
// data graph's adjacency sets over the wire protocol (common/wire.h).
// One process per server; a cluster of S servers for P partitions serves
// partition p from server p % S. The client (benu_driver --transport=tcp,
// or ConnectTcpTransport) validates the layout via the hello handshake.
//
// Both sides construct the data graph from the same --graph spec
// (graph/generators.h GenerateFromSpec), so no graph bytes travel out of
// band; --relabel must match the driver's relabeling choice.
//
//   benu_kv_server --graph=ba:200,5,21 --partitions=8 --servers=2 \
//       --index=0 [--port=0] [--relabel=1] [--replica=0 --replicas=1] \
//       [--compress=1]
//
// --replica/--replicas identify this process among interchangeable
// replicas of the same server index (clients fail over between them);
// replicas serve identical data, so they take the same --graph/--index.
//
// Prints "LISTENING port=<port>" on stdout once accepting (the driver's
// --spawn-servers parses this), then serves until killed.

#include <unistd.h>

#include <cstdio>
#include <string>
#include <utility>

#include "common/flags_util.h"
#include "common/logging.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "storage/kv_tcp_server.h"

int main(int argc, char** argv) {
  using namespace benu;

  const std::string graph_spec =
      flags::Value(argc, argv, "--graph", "ba:200,5,21");
  const uint16_t port = flags::PortValue(argc, argv, "--port", 0);
  const size_t partitions = flags::SizeValue(argc, argv, "--partitions", 8);
  const size_t servers = flags::SizeValue(argc, argv, "--servers", 1);
  const size_t index = flags::SizeValue(argc, argv, "--index", 0);
  const size_t replica = flags::SizeValue(argc, argv, "--replica", 0);
  const size_t replicas = flags::SizeValue(argc, argv, "--replicas", 1);
  const bool relabel = flags::BoolValue(argc, argv, "--relabel", true);
  // --compress=0 serves raw frames only (no encoded-reply capability in
  // the hello); also subject to the BENU_DISABLE_COMPRESSION env switch.
  const bool compress = flags::BoolValue(argc, argv, "--compress", true);

  auto graph_or = GenerateFromSpec(graph_spec);
  BENU_CHECK(graph_or.ok()) << "--graph=" << graph_spec << ": "
                            << graph_or.status().ToString();
  Graph graph = relabel ? graph_or->RelabelByDegree()
                        : std::move(graph_or).value();

  KvTcpServer server(&graph, partitions, servers, index, replica, replicas,
                     compress);
  auto listen = server.Listen(port);
  BENU_CHECK(listen.ok()) << listen.ToString();
  auto start = server.Start();
  BENU_CHECK(start.ok()) << start.ToString();

  std::printf("LISTENING port=%u\n", server.port());
  std::fflush(stdout);

  // Serve until the driver (or the user) kills the process.
  for (;;) pause();
}
