#include "spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>

#include "util/stopwatch.h"

namespace rfid {
namespace e2e {
namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<uint64_t> open_spans;

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

uint64_t SpanRecorder::Begin(uint64_t* parent) {
  *parent = open_spans.empty() ? 0 : open_spans.back();
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  open_spans.push_back(id);
  return id;
}

void SpanRecorder::End(Span span) {
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::map<std::string, double> SpanRecorder::TotalSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> totals;
  for (const Span& s : spans_) {
    totals[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return totals;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path);
  if (!os) return false;
  uint64_t origin = UINT64_MAX;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                  "\"parent\": %llu",
                  s.name, s.tid,
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent));
    os << buf << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  return os.good();
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  span_.name = name;
  span_.tid = ThreadIndex();
  span_.id = recorder_->Begin(&span_.parent);
  span_.start_ns = MonotonicNanos();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  span_.end_ns = MonotonicNanos();
  recorder_->End(std::move(span_));
}

}  // namespace e2e
}  // namespace rfid
