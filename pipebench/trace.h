#ifndef WICLEAN_PIPEBENCH_TRACE_H_
#define WICLEAN_PIPEBENCH_TRACE_H_

// Spans recorded by the pipeline benchmark around its own calls into the
// WiClean libraries. Spans live in memory and are written out once, as
// Chrome trace-event JSON, when the run ends. When tracing is off every
// operation here is a no-op that reads no clock, so the untraced run that
// produces the end-to-end numbers pays nothing for the instrumentation.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pipebench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // a string literal
  int64_t id = 0;
  int64_t parent = 0;   // 0 = root
  uint64_t session = 0;  // serving session (tenant) id; 0 outside serving
  uint32_t thread = 0;   // small per-thread index, for the trace viewer
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-layer self time: span durations summed by name, minus the part of
/// each span's interval that its children cover (children may run on other
/// threads; their intervals are merged before subtracting).
struct SelfTime {
  std::string name;
  uint64_t spans = 0;
  double total_s = 0;
  double self_s = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Records a span whose interval was measured by the caller, for work
  /// that does not nest on one thread (an interleaved serving session).
  void RecordInterval(const char* name, int64_t start_ns, int64_t end_ns,
                      int64_t parent, uint64_t session);

  /// Writes every recorded span as Chrome trace-event JSON ("X" events, in
  /// microseconds, parent and session in args). Returns false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

  std::vector<SelfTime> SelfTimes() const;
  size_t num_spans() const;
  size_t dropped_spans() const;

  /// Spans kept in memory at most; later ones are counted, not stored, so a
  /// long traced run stays small. Per-layer metrics do not depend on spans.
  static constexpr size_t kMaxSpans = 150000;

 private:
  friend class ScopedSpan;
  int64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(Span span);

  const bool enabled_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  size_t dropped_ = 0;       // guarded by mu_
};

/// RAII span. The parent defaults to the span open on the same thread;
/// pass `parent` explicitly for work a library runs on its own threads (for
/// example ActionSink::Append on an ingest worker).
class ScopedSpan {
 public:
  static constexpr int64_t kThreadParent = -1;

  ScopedSpan(Tracer* tracer, const char* name, uint64_t session = 0,
             int64_t parent = kThreadParent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;  // null when tracing is off
  Span span_;
  int64_t saved_current_ = 0;
};

}  // namespace pipebench

#endif  // WICLEAN_PIPEBENCH_TRACE_H_
