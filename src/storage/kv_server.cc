#include "storage/kv_server.h"

#include <string>

#include "common/logging.h"

namespace benu {

KvPartitionServer::KvPartitionServer(const Graph* graph,
                                     size_t num_partitions,
                                     size_t num_servers, size_t server_index,
                                     size_t replica_index,
                                     size_t num_replicas,
                                     bool support_encoding)
    : graph_(graph),
      num_partitions_(num_partitions == 0 ? 1 : num_partitions),
      num_servers_(num_servers == 0 ? 1 : num_servers),
      server_index_(server_index),
      replica_index_(replica_index),
      num_replicas_(num_replicas == 0 ? 1 : num_replicas),
      support_encoding_(codec::CompressionEnabled(support_encoding)),
      graph_hash_(graph->FoldedContentHash()) {
  BENU_CHECK(server_index_ < num_servers_)
      << "server index " << server_index_ << " out of range (servers: "
      << num_servers_ << ")";
  BENU_CHECK(replica_index_ < num_replicas_)
      << "replica index " << replica_index_ << " out of range (replicas: "
      << num_replicas_ << ")";
  if (support_encoding_) {
    // Pre-encode this server's partition share once; request handling
    // then serves the stored streams without touching the codec.
    encoded_.resize(graph_->NumVertices());
    size_t sets = 0;
    size_t raw_bytes = 0;
    size_t encoded_bytes = 0;
    for (VertexId v = 0; v < graph_->NumVertices(); ++v) {
      if (!Serves(v)) continue;
      codec::Encode(graph_->Adjacency(v), &encoded_[v]);
      ++sets;
      raw_bytes += encoded_[v].raw_bytes();
      encoded_bytes += encoded_[v].bytes.size();
    }
    codec::NoteEncoded(sets, raw_bytes, encoded_bytes);
  }
}

bool KvPartitionServer::AppendOneReply(VertexId v, bool encoded,
                                       std::vector<uint8_t>* out) {
  if (!Serves(v)) {
    wire::AppendError(StatusCode::kOutOfRange,
                      "key " + std::to_string(v) +
                          " not served by server " +
                          std::to_string(server_index_),
                      out);
    return false;
  }
  if (encoded) {
    wire::AppendEncodedAdjacencyReply(v, encoded_[v], out);
  } else {
    wire::AppendAdjacencyReply(v, graph_->Adjacency(v), out);
  }
  keys_served_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void KvPartitionServer::HandleFrame(std::span<const uint8_t> frame,
                                    std::vector<uint8_t>* out) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const size_t out_start = out->size();
  auto decoded = wire::DecodeFrame(frame);
  if (!decoded.ok()) {
    wire::AppendError(decoded.status().code(), decoded.status().message(),
                      out);
    // A frame that failed to decode may still carry a readable tag; echo
    // it so a pipelined client can attribute the error.
    const uint16_t garbage_tag =
        frame.size() >= wire::kHeaderBytes ? wire::FrameTag(frame) : 0;
    wire::TagFrames(std::span<uint8_t>(*out).subspan(out_start), garbage_tag);
    bytes_sent_.fetch_add(out->size() - out_start,
                          std::memory_order_relaxed);
    return;
  }
  switch (decoded->header.type) {
    case wire::MessageType::kHelloRequest: {
      wire::HelloInfo info;
      info.num_vertices = static_cast<uint32_t>(graph_->NumVertices());
      info.num_partitions = static_cast<uint32_t>(num_partitions_);
      info.num_servers = static_cast<uint32_t>(num_servers_);
      info.server_index = static_cast<uint32_t>(server_index_);
      info.replica_index = static_cast<uint32_t>(replica_index_);
      info.num_replicas = static_cast<uint32_t>(num_replicas_);
      info.flags = support_encoding_ ? wire::kHelloSupportsEncoded : 0;
      info.graph_hash = graph_hash_;
      info.epoch = epoch_.load(std::memory_order_acquire);
      wire::AppendHelloReply(info, out);
      break;
    }
    case wire::MessageType::kGetRequest: {
      auto key = wire::DecodeGetRequest(*decoded);
      if (!key.ok()) {
        wire::AppendError(key.status().code(), key.status().message(), out);
        break;
      }
      // Encoded replies only when requested AND supported — a raw-only
      // server transparently answers an encoding-capable client raw.
      AppendOneReply(
          *key, support_encoding_ && wire::FrameIsEncoded(*decoded), out);
      break;
    }
    case wire::MessageType::kBatchGetRequest: {
      auto keys = wire::DecodeBatchGetRequest(*decoded);
      if (!keys.ok()) {
        wire::AppendError(keys.status().code(), keys.status().message(),
                          out);
        break;
      }
      const bool encoded =
          support_encoding_ && wire::FrameIsEncoded(*decoded);
      // Reply: one kGetReply frame per key, in request order. On the
      // first bad key the error frame replaces the remaining replies —
      // the client treats any kError in a batch as a failed batch.
      for (VertexId v : *keys) {
        if (!AppendOneReply(v, encoded, out)) break;
      }
      break;
    }
    case wire::MessageType::kStatsRequest:
      wire::AppendStatsReply(stats(), out);
      break;
    case wire::MessageType::kApplyDelta: {
      uint64_t target = 0;
      std::vector<EdgeDelta> ops;
      auto st = wire::DecodeApplyDelta(*decoded, &target, &ops);
      if (!st.ok()) {
        wire::AppendError(st.code(), st.message(), out);
        break;
      }
      // Base payloads are immutable; the server only attests that it has
      // seen every delta in order, so gaps must be rejected.
      const uint64_t current = epoch_.load(std::memory_order_acquire);
      if (target != current + 1) {
        wire::AppendError(StatusCode::kFailedPrecondition,
                          "delta targets epoch " + std::to_string(target) +
                              " but server is at " + std::to_string(current),
                          out);
        break;
      }
      wire::AppendDeltaAck(target, out);
      break;
    }
    case wire::MessageType::kEpochAdvance: {
      auto target = wire::DecodeEpochAdvance(*decoded);
      if (!target.ok()) {
        wire::AppendError(target.status().code(), target.status().message(),
                          out);
        break;
      }
      const uint64_t current = epoch_.load(std::memory_order_acquire);
      if (*target != current + 1) {
        wire::AppendError(StatusCode::kFailedPrecondition,
                          "cannot advance to epoch " + std::to_string(*target) +
                              " from " + std::to_string(current),
                          out);
        break;
      }
      epoch_.store(*target, std::memory_order_release);
      wire::AppendDeltaAck(*target, out);
      break;
    }
    default:
      wire::AppendError(
          StatusCode::kInvalidArgument,
          "unsupported request type " +
              std::to_string(static_cast<int>(decoded->header.type)),
          out);
  }
  // Echo the request's tag onto every reply frame so pipelined clients
  // can demux replies of interleaved in-flight requests. Mask off the
  // request's encoding flag — replies carry their own.
  wire::TagFrames(std::span<uint8_t>(*out).subspan(out_start),
                  decoded->header.flags & wire::kTagMask);
  bytes_sent_.fetch_add(out->size() - out_start, std::memory_order_relaxed);
}

}  // namespace benu
