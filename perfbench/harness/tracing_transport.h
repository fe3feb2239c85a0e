#ifndef PERFBENCH_HARNESS_TRACING_TRANSPORT_H_
#define PERFBENCH_HARNESS_TRACING_TRANSPORT_H_

#include <atomic>
#include <memory>
#include <span>

#include "common/metrics.h"
#include "storage/transport.h"
#include "trace.h"

namespace perfbench {

/// Transport decorator that records one span per Fetch / FetchBatch and
/// otherwise passes every call through unchanged. Spans join the
/// operation the benchmark marked as ambient (Tracer::SetAmbient), since
/// fetches run on the library's own threads. It also samples the
/// process-wide DbCache residency gauge at each call, keeping the peak.
class TracingTransport : public benu::Transport {
 public:
  explicit TracingTransport(std::shared_ptr<benu::Transport> inner)
      : inner_(std::move(inner)),
        resident_(benu::metrics::MetricsRegistry::Global().GetGauge(
            "db_cache.resident_bytes", "bytes")) {}

  const char* name() const override { return inner_->name(); }
  size_t num_partitions() const override { return inner_->num_partitions(); }
  size_t num_vertices() const override { return inner_->num_vertices(); }
  uint32_t graph_hash() const override { return inner_->graph_hash(); }
  bool compressed() const override { return inner_->compressed(); }

  benu::StatusOr<benu::AdjacencyPayload> Fetch(benu::VertexId v) override {
    ObserveResident();
    ScopedSpan span("transport.fetch", Tracer::Get().ambient_group(),
                    Tracer::Get().ambient_parent());
    return inner_->Fetch(v);
  }

  benu::StatusOr<BatchResult> FetchBatch(
      std::span<const benu::VertexId> keys) override {
    ObserveResident();
    ScopedSpan span("transport.fetch_batch", Tracer::Get().ambient_group(),
                    Tracer::Get().ambient_parent());
    return inner_->FetchBatch(keys);
  }

  benu::StatusOr<DeltaPushResult> PushDelta(
      uint64_t epoch, std::span<const benu::EdgeDelta> ops) override {
    return inner_->PushDelta(epoch, ops);
  }

  benu::StatusOr<DeltaPushResult> AdvanceEpoch(uint64_t epoch) override {
    return inner_->AdvanceEpoch(epoch);
  }

  /// Highest DbCache residency seen at a fetch boundary, bytes.
  double peak_resident_bytes() const {
    return static_cast<double>(peak_resident_.load());
  }

 private:
  void ObserveResident() {
    const auto now = static_cast<uint64_t>(resident_->Value());
    uint64_t seen = peak_resident_.load(std::memory_order_relaxed);
    while (now > seen && !peak_resident_.compare_exchange_weak(seen, now)) {
    }
  }

  std::shared_ptr<benu::Transport> inner_;
  benu::metrics::Gauge* resident_;
  std::atomic<uint64_t> peak_resident_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACING_TRANSPORT_H_
