#ifndef BENU_STORAGE_KV_TCP_SERVER_H_
#define BENU_STORAGE_KV_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "storage/kv_server.h"

namespace benu {

/// TCP front end of one KvPartitionServer: a single-threaded epoll event
/// loop that accepts connections and moves wire frames (common/wire.h)
/// between sockets and HandleFrame. Connections are non-blocking; every
/// complete request frame buffered on a connection is served before the
/// replies are flushed in one write (server-side batch coalescing), so a
/// pipelined client with a deep in-flight window costs one wakeup and
/// one send per burst instead of one thread context switch per request.
///
/// Used in-process by transport_test and bench_pipeline (real sockets,
/// one process) and as the body of the standalone `benu_kv_server`
/// binary (real multi-process runs; see benu_driver --spawn-servers).
class KvTcpServer {
 public:
  /// `graph` must outlive the server. `replica_index`/`num_replicas`
  /// identify this instance among interchangeable replicas of the same
  /// partition share (reported in the hello handshake).
  /// `support_encoding` forwards to KvPartitionServer: pre-encode the
  /// share and answer encoding-flagged requests with delta+varint
  /// replies (subject to codec::CompressionEnabled).
  KvTcpServer(const Graph* graph, size_t num_partitions, size_t num_servers,
              size_t server_index, size_t replica_index = 0,
              size_t num_replicas = 1, bool support_encoding = true);
  ~KvTcpServer();

  KvTcpServer(const KvTcpServer&) = delete;
  KvTcpServer& operator=(const KvTcpServer&) = delete;

  /// Binds and listens on `port` (0 picks an ephemeral port, readable
  /// via port() afterwards). Call before Start().
  Status Listen(uint16_t port);

  /// Spawns the event-loop thread. Listen() must have succeeded.
  Status Start();

  /// Stops the event loop, closes every connection and joins the loop
  /// thread. Idempotent; also run by the destructor.
  void Stop();

  uint16_t port() const { return port_; }
  const KvPartitionServer& partition_server() const { return server_; }

 private:
  /// Per-connection state: partial inbound frames and unflushed replies.
  struct Conn {
    std::vector<uint8_t> in;   ///< buffered inbound bytes
    size_t in_pos = 0;         ///< bytes of `in` already consumed
    std::vector<uint8_t> out;  ///< encoded replies not yet flushed
    size_t out_pos = 0;        ///< bytes of `out` already sent
    bool want_write = false;   ///< EPOLLOUT currently armed
  };

  void EventLoop();
  void AcceptReady();
  /// Reads, serves every complete buffered frame, flushes. False → the
  /// connection is dead (EOF, error, or protocol garbage) and must go.
  bool ServeReadable(int fd, Conn& conn);
  /// Flushes pending replies; arms/disarms EPOLLOUT as needed. False →
  /// the connection is dead.
  bool FlushWrites(int fd, Conn& conn);
  void CloseConn(int fd);

  KvPartitionServer server_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe that wakes the loop for Stop()
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread loop_thread_;
  std::unordered_map<int, Conn> conns_;  // owned by the loop thread
};

}  // namespace benu

#endif  // BENU_STORAGE_KV_TCP_SERVER_H_
