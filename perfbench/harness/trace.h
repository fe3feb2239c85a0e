#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock reading in nanoseconds (steady_clock).
int64_t NowNs();

/// One timed interval at a layer boundary. `group` is shared by every
/// span of one operation (a RunBenu call, a query, an epoch); `parent` is
/// the id of the span that caused this one (0 for a root).
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t group = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Benchmark-side span recorder. Spans are kept in memory and written
/// out once at the end of a run. Disabled by default: an untraced run
/// records nothing, so end-to-end figures never pay for tracing.
class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }

  /// Group and parent for spans opened on threads the benchmark does not
  /// own (fetches issued from the library's executor or prefetch
  /// threads): set around the public call that causes them.
  void SetAmbient(uint64_t group, uint64_t parent) {
    ambient_group_.store(group, std::memory_order_relaxed);
    ambient_parent_.store(parent, std::memory_order_relaxed);
  }
  uint64_t ambient_group() const {
    return ambient_group_.load(std::memory_order_relaxed);
  }
  uint64_t ambient_parent() const {
    return ambient_parent_.load(std::memory_order_relaxed);
  }

  void Record(Span span);
  std::vector<Span> Spans() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> ambient_group_{0};
  std::atomic<uint64_t> ambient_parent_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Records one span from construction to destruction when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t group, uint64_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  bool on_;
  Span span_;
};

/// Self time per span name, seconds: each span's duration minus the part
/// of its interval covered by the union of its children.
std::map<std::string, double> SelfSeconds(const std::vector<Span>& spans);

/// Writes the spans as a JSON array to `path`; false on I/O failure.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
