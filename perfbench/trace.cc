#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t SpanRecorder::Begin(uint64_t request, int64_t parent,
                            const std::string& name) {
  Span span;
  span.request = request;
  span.parent = parent;
  span.name = name;
  std::lock_guard<std::mutex> lock(mu_);
  // Stamp under the lock so a span never starts before its index exists.
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::End(int64_t index) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

std::vector<int64_t> SpanRecorder::SelfTimesNs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<int64_t> self(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (const auto& [start, end] : kids) {
      const int64_t lo = std::max(start, cursor);
      const int64_t hi = std::min(end, span.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

std::map<std::string, int64_t> SpanRecorder::SelfNsByName() const {
  const std::vector<int64_t> self = SelfTimesNs();
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, int64_t> totals;
  for (size_t i = 0; i < spans_.size(); ++i) totals[spans_[i].name] += self[i];
  return totals;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  const std::vector<int64_t> self = SelfTimesNs();
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"request\": %llu, \"id\": %zu, \"parent\": %lld, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"self_ns\": %lld}\n",
                 static_cast<unsigned long long>(s.request), i,
                 static_cast<long long>(s.parent), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
