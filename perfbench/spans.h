#ifndef XBENCH_PERFBENCH_SPANS_H_
#define XBENCH_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One wall-clock interval around a call the benchmark makes into the
/// program. Times are nanoseconds since the log was created; `parent` is
/// the index of the enclosing span (-1 at top level) and `stmt` the
/// statement the call belongs to (-1 for set-up work).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t stmt = -1;

  double Millis() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// In-memory span recorder for the traced run. The program's own
/// obs::Tracer stamps spans with the simulated disk clock, so wall-clock
/// layer times are recorded here, from outside the program, around the
/// public calls the benchmark makes. While disabled, Begin/End do nothing,
/// so the untraced run pays one branch per call.
class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span nested in the innermost open one; returns its index, or
  /// -1 while disabled.
  int Begin(std::string name, int64_t stmt);
  /// Closes span `id` (a no-op for -1). Spans close innermost first.
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as a JSON array; false when the file cannot be
  /// written.
  bool WriteJson(const std::string& path) const;

 private:
  int64_t NowNanos() const;

  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Records one span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int64_t stmt = -1)
      : log_(log), id_(log.Begin(std::move(name), stmt)) {}
  ~ScopedSpan() { log_.End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace perfbench

#endif  // XBENCH_PERFBENCH_SPANS_H_
