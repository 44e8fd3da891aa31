#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <unordered_map>
#include <utility>

namespace pipebench {
namespace {

thread_local int64_t current_span = 0;
std::atomic<uint32_t> next_thread_index{0};

uint32_t ThreadIndex() {
  thread_local uint32_t index = next_thread_index.fetch_add(1);
  return index;
}

}  // namespace

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

void Tracer::RecordInterval(const char* name, int64_t start_ns,
                            int64_t end_ns, int64_t parent,
                            uint64_t session) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.id = NextId();
  span.parent = parent;
  span.session = session;
  span.thread = ThreadIndex();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  Record(span);
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

size_t Tracer::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) origin = std::min(origin, s.start_ns);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread << ",\"name\":\""
        << s.name << '"';
    char times[96];
    std::snprintf(times, sizeof(times), ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << times << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"session\":" << s.session << "}}";
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

std::vector<SelfTime> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<int64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, SelfTime> by_name;
  for (const Span& s : spans_) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t run_begin = 0;
      int64_t run_end = -1;
      for (auto [b, e] : iv) {
        b = std::max(b, s.start_ns);
        e = std::min(e, s.end_ns);
        if (e <= b) continue;
        if (b > run_end) {
          if (run_end > run_begin) covered += run_end - run_begin;
          run_begin = b;
          run_end = e;
        } else {
          run_end = std::max(run_end, e);
        }
      }
      if (run_end > run_begin) covered += run_end - run_begin;
    }
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    ++t.spans;
    t.total_s += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    t.self_s += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e9;
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t session,
                       int64_t parent)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->NextId();
  span_.parent = parent == kThreadParent ? current_span : parent;
  span_.session = session;
  span_.thread = ThreadIndex();
  saved_current_ = current_span;
  current_span = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  current_span = saved_current_;
  tracer_->Record(span_);
}

}  // namespace pipebench
