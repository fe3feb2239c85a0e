#ifndef BENU_COMMON_STOPWATCH_H_
#define BENU_COMMON_STOPWATCH_H_

#include <chrono>

namespace benu {

/// Wall-clock stopwatch used by the executor and benchmarks.
class Stopwatch {
 public:
  /// Starts running immediately.
  Stopwatch();

  /// Restarts from zero.
  void Restart();

  /// Elapsed wall time in seconds since construction/Restart.
  double ElapsedSeconds() const;

  /// Elapsed wall time in microseconds.
  int64_t ElapsedMicros() const;

 private:
  std::chrono::steady_clock::time_point start_;
};

/// CPU time consumed by the calling thread, in seconds, or a negative
/// value when the platform offers no per-thread CPU clock. The cluster
/// runtime stamps tasks with it so the compute times feeding the
/// virtual-time model are immune to preemption when many OS threads share
/// few cores.
double ThreadCpuSeconds();

}  // namespace benu

#endif  // BENU_COMMON_STOPWATCH_H_
