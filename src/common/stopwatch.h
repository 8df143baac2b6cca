#ifndef XBENCH_COMMON_STOPWATCH_H_
#define XBENCH_COMMON_STOPWATCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/thread_io.h"

namespace xbench {

/// Wall-clock stopwatch used by the benchmark harness.
class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  void Restart() { start_ = std::chrono::steady_clock::now(); }

  /// Elapsed time since construction/Restart, in milliseconds.
  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Deterministic virtual clock advanced by the simulated-disk layer.
///
/// The paper measures cold-run times on a 2 GHz disk-backed machine; our
/// storage substrate is in-memory, so the I/O component of each measurement
/// is modelled explicitly: every simulated page read/write charges this
/// clock. Benchmarks report CPU wall time + virtual I/O time.
///
/// Thread safety: AdvanceMicros is an atomic add, so concurrent sessions
/// can charge one engine's clock without tearing; each charge is also
/// attributed to the calling thread (ThisThreadIo), which is how
/// per-session I/O time stays exact under concurrency while this clock
/// keeps the engine-lifetime total.
class VirtualClock {
 public:
  void AdvanceMicros(uint64_t micros) {
    micros_.fetch_add(micros, std::memory_order_relaxed);
    ThisThreadIo().io_micros += micros;
  }
  uint64_t ElapsedMicros() const {
    return micros_.load(std::memory_order_relaxed);
  }
  double ElapsedMillis() const {
    return static_cast<double>(ElapsedMicros()) / 1000.0;
  }
  void Reset() { micros_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> micros_{0};
};

}  // namespace xbench

#endif  // XBENCH_COMMON_STOPWATCH_H_
