#ifndef BENU_SERVICE_SERVICE_CLIENT_H_
#define BENU_SERVICE_SERVICE_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/status.h"
#include "common/types.h"
#include "common/wire.h"

namespace benu::service {

/// Blocking client for the resident enumeration service (wire protocol,
/// docs/wire-protocol.md). One TCP connection, many queries in
/// flight: each StartQuery() is stamped with a fresh 15-bit tag and a
/// background reader thread demultiplexes kQueryResult / kProgress /
/// kError frames back to the waiting caller by tag.
///
/// Thread safety: all public methods may be called from any thread.
/// Progress callbacks run on the reader thread — keep them cheap and do
/// not call back into the client from them (Await/Execute from another
/// thread is fine).
class ServiceClient {
 public:
  /// Runs on the reader thread for every kProgress frame of the query.
  using ProgressFn = std::function<void(const wire::QueryProgress&)>;
  /// Runs on the reader thread for every kMatchDelta frame of a
  /// subscription (same contract as ProgressFn: keep it cheap, no
  /// reentrant client calls).
  using MatchDeltaFn = std::function<void(const wire::MatchDelta&)>;

  /// Connects, performs the hello handshake and verifies the peer is an
  /// enumeration service (kHelloSupportsQueries capability bit); a KV
  /// server answers hello too, but without the bit the connect fails
  /// with kFailedPrecondition. `timeout_ms` bounds the connect retry
  /// loop (servers may still be binding).
  static StatusOr<std::unique_ptr<ServiceClient>> Connect(
      const std::string& host, uint16_t port, int timeout_ms = 10'000);

  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Submits the query and blocks until its terminal frame arrives.
  /// Admission rejections and execution failures surface as the error
  /// status the server sent (kResourceExhausted, kInvalidArgument, ...).
  StatusOr<wire::QueryResultInfo> Execute(const wire::QuerySpec& spec,
                                          ProgressFn progress = nullptr);

  /// Submits the query and returns its tag immediately. Every started
  /// query must be Await()ed exactly once.
  StatusOr<uint16_t> StartQuery(const wire::QuerySpec& spec,
                                ProgressFn progress = nullptr);

  /// Blocks until the query behind `tag` reaches its terminal frame and
  /// returns it (or the error the server answered with).
  StatusOr<wire::QueryResultInfo> Await(uint16_t tag);

  /// Asks the server to cancel the query behind `tag`. Fire-and-forget:
  /// the outcome arrives through Await() — either a kQueryResult with
  /// the cancelled flag, a normal result (the race was lost), or a
  /// kError if the server no longer knows the tag.
  Status SendCancel(uint16_t tag);

  // --- subscribe mode (dynamic graphs) ---------------------------------

  /// Starts a subscribe-mode query (kQuerySubscribe is OR-ed into the
  /// spec). The subscription's lifecycle on this tag:
  ///   1. AwaitBaseline(tag) returns the baseline count (or the
  ///      admission rejection);
  ///   2. `on_delta` fires on the reader thread once per committed epoch
  ///      with that epoch's exact MatchDelta;
  ///   3. SendCancel(tag) ends it, and Await(tag) returns the terminal
  ///      result (cancelled flag set, matches = last maintained total).
  /// Every subscription must be Await()ed exactly once, like any query.
  StatusOr<uint16_t> Subscribe(wire::QuerySpec spec, MatchDeltaFn on_delta,
                               ProgressFn progress = nullptr);

  /// Blocks until the subscription's baseline kQueryResult arrives and
  /// returns it without retiring the tag (deltas keep streaming). On a
  /// rejected subscription this returns the error; Await(tag) must still
  /// be called and returns the same error.
  StatusOr<wire::QueryResultInfo> AwaitBaseline(uint16_t tag);

  /// Stages one edge-delta batch toward `target_epoch` (= server epoch
  /// + 1) and blocks for the kDeltaAck. Endpoints are original data-graph
  /// ids; the service maps them through its relabeling. Returns the
  /// server's epoch after staging (unchanged until AdvanceEpoch).
  StatusOr<uint64_t> PushDelta(uint64_t target_epoch,
                               std::span<const EdgeDelta> ops);

  /// Commits the staged batches as `target_epoch`: the service runs the
  /// incremental maintenance passes, streams each subscription's
  /// kMatchDelta, and acks with the new epoch (returned).
  StatusOr<uint64_t> AdvanceEpoch(uint64_t target_epoch);

  /// The hello handshake result (vertex count, partition count, graph
  /// hash of the service's relabeled graph, capability flags).
  const wire::HelloInfo& hello() const { return hello_; }

 private:
  ServiceClient() = default;

  void ReaderLoop();
  /// Fails every pending query with `status` and marks the client dead.
  void FailAll(const Status& status);
  /// Allocates a fresh tag unused by queries and delta requests alike.
  /// Caller holds mu_; 0 on exhaustion.
  uint16_t AllocTagLocked();
  /// Sends a delta-protocol frame under `tag` and blocks for its
  /// kDeltaAck (or the kError the server answered with).
  StatusOr<uint64_t> DeltaRoundTrip(std::vector<uint8_t> frame,
                                    uint16_t tag);

  /// One in-flight query awaiting its terminal frame.
  struct Pending {
    bool done = false;
    StatusOr<wire::QueryResultInfo> result =
        Status::Internal("unresolved query");
    ProgressFn progress;
    /// Subscribe-mode extras: the baseline result resolves separately
    /// from the terminal one, and deltas invoke the callback.
    bool subscribe = false;
    bool baseline_done = false;
    StatusOr<wire::QueryResultInfo> baseline =
        Status::Internal("unresolved baseline");
    MatchDeltaFn on_delta;
  };

  /// One in-flight kApplyDelta / kEpochAdvance awaiting its kDeltaAck.
  struct PendingAck {
    bool done = false;
    StatusOr<uint64_t> epoch = Status::Internal("unresolved delta request");
  };

  int fd_ = -1;
  wire::HelloInfo hello_;
  std::thread reader_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<uint16_t, Pending> pending_;       // guarded by mu_
  std::unordered_map<uint16_t, PendingAck> pending_acks_;  // guarded by mu_
  uint16_t next_tag_ = 1;                               // guarded by mu_
  bool dead_ = false;                              // guarded by mu_
  Status death_status_ = Status::OK();             // guarded by mu_

  std::mutex write_mu_;  // serializes WriteAll across caller threads
};

}  // namespace benu::service

#endif  // BENU_SERVICE_SERVICE_CLIENT_H_
