// In-memory span log for the traced benchmark run.
//
// Every call the benchmark makes into the library in a traced run sits
// inside a span: name, start, end, parent span and the submit it belongs
// to. Spans are appended to a vector on the main thread (the benchmark is
// single-threaded; pool workers report aggregated times instead of
// spans) and written as Chrome trace-event JSON when the run ends, so the
// recording itself costs one clock read and one push_back per boundary.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class SpanLog {
 public:
  struct Span {
    const char* name = "";
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int64_t parent = -1;  ///< index of the enclosing span, -1 at the root
    uint64_t submit = 0;  ///< 1-based submit id, 0 outside any submit
  };

  /// Opens a span under the innermost open one; returns its index.
  int64_t Begin(const char* name, uint64_t submit) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.submit = submit;
    span.start_ns = NowNs();
    spans_.push_back(span);
    open_.push_back(static_cast<int64_t>(spans_.size() - 1));
    return open_.back();
  }

  /// Closes span `id`, which must be the innermost open span; returns
  /// its duration in seconds.
  double End(int64_t id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ns = NowNs();
    open_.pop_back();
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as Chrome trace-event JSON (chrome://tracing,
  /// Perfetto). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span; a null log makes it a no-op, which is how the untraced
/// run shares the traced run's code.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t submit = 0)
      : log_(log), id_(log != nullptr ? log->Begin(name, submit) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
