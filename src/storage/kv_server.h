#ifndef BENU_STORAGE_KV_SERVER_H_
#define BENU_STORAGE_KV_SERVER_H_

#include <atomic>
#include <cstddef>
#include <span>
#include <vector>

#include "common/types.h"
#include "common/wire.h"
#include "graph/adj_codec.h"
#include "graph/graph.h"

namespace benu {

/// Server side of the distributed KV store's wire protocol: holds the
/// adjacency sets of the data-graph vertices whose storage partition is
/// assigned to this server, and answers request frames (common/wire.h)
/// with reply frames. Transport-agnostic by design — the loopback
/// transport calls HandleFrame directly in-process, the TCP server
/// (kv_tcp_server.h / benu_kv_server) moves the same frames over sockets.
///
/// Partition assignment: vertex v lives in storage partition
/// v % num_partitions; this server serves every partition p with
/// p % num_servers == server_index. With num_servers == num_partitions
/// (the loopback layout) each server owns exactly one partition.
///
/// Thread-safe: the graph is immutable, HandleFrame writes only to the
/// caller's output buffer, stats are atomic — concurrent connection
/// threads of a TCP server may share one instance.
class KvPartitionServer {
 public:
  /// `graph` must outlive the server (already degree-relabeled when the
  /// enumeration side relabels — both sides must agree on the labeling;
  /// the hello reply carries the graph's folded content hash so clients
  /// can verify). `replica_index`/`num_replicas` identify this process
  /// among the interchangeable replicas serving the same partition
  /// share; they are reported in the hello reply so clients can log
  /// failover targets. With `support_encoding` (subject to
  /// codec::CompressionEnabled) the server pre-encodes its partition
  /// share once here and answers encoding-flagged requests with
  /// delta+varint replies, advertising the capability in its hello.
  /// Every server accepts kApplyDelta/kEpochAdvance frames and attests
  /// the committed epoch in its hello.
  KvPartitionServer(const Graph* graph, size_t num_partitions,
                    size_t num_servers, size_t server_index,
                    size_t replica_index = 0, size_t num_replicas = 1,
                    bool support_encoding = true);

  /// Handles one request frame, appending the reply frame(s) to `out`.
  /// Malformed frames, unknown types and out-of-scope keys produce a
  /// kError reply — the server never crashes on bad input from the wire.
  /// Every appended reply frame echoes the request frame's tag (wire
  /// `flags` field), so pipelined clients can demux replies.
  void HandleFrame(std::span<const uint8_t> frame, std::vector<uint8_t>* out);

  /// True iff vertex v's partition is assigned to this server.
  bool Serves(VertexId v) const {
    return v < graph_->NumVertices() &&
           (v % num_partitions_) % num_servers_ == server_index_;
  }

  wire::ServerStats stats() const {
    return {requests_.load(std::memory_order_relaxed),
            keys_served_.load(std::memory_order_relaxed),
            bytes_sent_.load(std::memory_order_relaxed)};
  }

  size_t num_partitions() const { return num_partitions_; }
  size_t num_servers() const { return num_servers_; }
  size_t server_index() const { return server_index_; }
  size_t replica_index() const { return replica_index_; }
  size_t num_replicas() const { return num_replicas_; }
  bool supports_encoding() const { return support_encoding_; }

  /// Last committed epoch (kEpochAdvance); 0 = pristine base graph.
  /// Servers store the base payloads immutably — the epoch is an
  /// *attestation* that this server has seen every delta up to it, which
  /// reconnect validation checks alongside the graph hash.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

 private:
  /// Appends the kGetReply frame for one served key (or kError when the
  /// key is out of scope); returns false on error. `encoded` selects the
  /// pre-encoded delta+varint reply form.
  bool AppendOneReply(VertexId v, bool encoded, std::vector<uint8_t>* out);

  const Graph* graph_;
  size_t num_partitions_;
  size_t num_servers_;
  size_t server_index_;
  size_t replica_index_;
  size_t num_replicas_;
  bool support_encoding_;
  uint32_t graph_hash_;
  /// Committed epoch: kApplyDelta validates its target is epoch()+1,
  /// kEpochAdvance commits it.
  std::atomic<uint64_t> epoch_{0};
  /// Pre-encoded partition share, indexed by vertex id (only served
  /// vertices are populated). Encoded once at construction; HandleFrame
  /// serves these bytes without re-encoding.
  std::vector<codec::EncodedSet> encoded_;
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> keys_served_{0};
  std::atomic<uint64_t> bytes_sent_{0};
};

}  // namespace benu

#endif  // BENU_STORAGE_KV_SERVER_H_
