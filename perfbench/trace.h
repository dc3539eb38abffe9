#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval at a layer boundary. Spans of one request share
/// `request`; `parent` is the index of the enclosing span in the recorder
/// (-1 for a request's root).
struct Span {
  uint64_t request = 0;
  int64_t parent = -1;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span store shared by the traced client threads. Spans stay
/// in memory while the benchmark runs and are written out once at the
/// end, so recording costs a vector append and never touches the disk
/// inside a timed interval. Thread-safe.
class SpanRecorder {
 public:
  /// Opens a span and returns its index; close it with End.
  int64_t Begin(uint64_t request, int64_t parent, const std::string& name);
  void End(int64_t index);

  /// Sum of self times per span name. A span's self time is its duration
  /// minus the part of its interval its children cover.
  std::map<std::string, int64_t> SelfNsByName() const;

  /// One JSON object per line: request, id, parent, name, start, end, self.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<int64_t> SelfTimesNs() const;

  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: begins on construction, ends on destruction. A null
/// recorder records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, uint64_t request, int64_t parent,
             const std::string& name)
      : recorder_(recorder),
        index_(recorder == nullptr ? -1
                                   : recorder->Begin(request, parent, name)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
