// Span recording for the traced benchmark run.
//
// The benchmark wraps each call it makes into the program's public API
// (Ingest, Pump, Checkpoint, ProcessEpoch, Dispatch, ...) in a span: name,
// start, end, span id and the id of the enclosing span on the same thread.
// Spans stay in memory and are written once, at exit, in Chrome trace
// format (open the file in https://ui.perfetto.dev or chrome://tracing).
//
// A null recorder makes every span a no-op, which is how the untraced run
// measures the program without the harness's bookkeeping.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace rfid {
namespace e2e {

struct Span {
  const char* name = "";  ///< Static string.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root span.
  uint32_t tid = 0;
};

class SpanRecorder {
 public:
  /// Id for a span opening now on the calling thread; pushes it as the
  /// parent of spans opened before the matching End().
  uint64_t Begin(uint64_t* parent);
  void End(Span span);

  /// Summed duration of the spans of each name, in seconds.
  std::map<std::string, double> TotalSeconds() const;
  /// Writes the Chrome trace; returns false on IO failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<uint64_t> next_id_{1};
};

/// RAII span; a no-op when `recorder` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  Span span_;
};

}  // namespace e2e
}  // namespace rfid
