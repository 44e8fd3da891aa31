#ifndef WICLEAN_PIPEBENCH_HARNESS_H_
#define WICLEAN_PIPEBENCH_HARNESS_H_

// Shared plumbing of the pipeline benchmark: run options, the metric
// catalog and recorder, timed wrappers of the library's PageSource and
// ActionSink interfaces, and the oracle helpers the workloads share.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/partial.h"
#include "dump/action_sink.h"
#include "dump/ingest.h"
#include "dump/page_source.h"
#include "graph/entity_registry.h"
#include "revision/revision_store.h"
#include "trace.h"

namespace pipebench {

using wiclean::Result;
using wiclean::Status;

/// Deliberate input damage, so the benchmark's own tests can show that the
/// oracle gates fire.
enum class Inject {
  kNone,
  kCorruptWcal,  // flip one payload byte of the WCAL bytes before replay
  kDropEvent,    // skip one Feed of one serving session
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  // seconds-long sizes for the benchmark's own tests
  Inject inject = Inject::kNone;
  std::string trace_out;  // Chrome trace JSON path (traced runs only)
};

/// One metric the benchmark reports: end-to-end (untraced runs) or
/// per-layer (traced runs). The catalog is the same for every workload.
struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};
const std::vector<MetricDef>& MetricCatalog();

/// Collects samples per metric; the reported value is the median of a
/// metric's samples (one sample per pass, session or set-up, as each
/// workload documents). Also counts attempted and failed operations.
class Recorder {
 public:
  void Add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  /// Adds to the pending sample of `name`; Flush turns every pending sum
  /// into one sample (call it at the end of each pass).
  void Sum(const std::string& name, double value) { pending_[name] += value; }
  void Flush();
  bool Has(const std::string& name) const { return samples_.count(name) > 0; }
  double Median(const std::string& name) const;
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Appends another recorder's samples and attempts (pending sums must
  /// have been flushed).
  void Merge(const Recorder& other);
  uint64_t attempted() const { return attempted_; }

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> pending_;
  uint64_t attempted_ = 0;
};

/// Median of a sample vector (0 when empty), interpolating between the two
/// middle samples of an even count.
double MedianOf(std::vector<double> values);

/// Wall-clock stopwatch in seconds.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  Clock::time_point start_;
};

/// CPU-time stopwatch in seconds, over the calling thread or over every
/// thread of the process. CPU time leaves out time spent blocked or waiting
/// for a core, and, on a guest kernel with steal-time accounting
/// (CONFIG_PARAVIRT_TIME_ACCOUNTING), time the hypervisor gave to other
/// guests. That is what keeps the end-to-end times steady on a shared host.
class CpuStopwatch {
 public:
  enum class Scope { kThread, kProcess };
  explicit CpuStopwatch(Scope scope);
  double Seconds() const;

 private:
  int clock_;  // a clockid_t
  double start_;
};

/// Latency histogram with log-spaced buckets 1% apart (1 ns to ~100 s), so
/// percentiles of millions of events cost constant memory.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(int64_t ns);
  /// The q-quantile in nanoseconds, to the histogram's 1% resolution.
  double QuantileNs(double q) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// A failed oracle gate.
Status GateFailure(const std::string& what);

/// Wraps a PageSource: in traced runs, every Next call becomes a span and
/// its duration is summed into read_ns(); untraced, it only forwards.
class TimedPageSource : public wiclean::PageSource {
 public:
  TimedPageSource(wiclean::PageSource* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  [[nodiscard]] Result<bool> Next(wiclean::DumpPage* page) override;
  [[nodiscard]] Result<bool> Recover(wiclean::ResyncInfo* region) override {
    return inner_->Recover(region);
  }
  int64_t read_ns() const { return read_ns_; }

 private:
  wiclean::PageSource* inner_;
  Tracer* tracer_;
  int64_t read_ns_ = 0;
};

/// Wraps an ActionSink the same way. The pipeline calls Append from its
/// worker threads (one at a time), so the span parent is fixed at
/// construction: the span of the layer call that drives the sink.
class TimedSink : public wiclean::ActionSink {
 public:
  TimedSink(wiclean::ActionSink* inner, Tracer* tracer, const char* span_name,
            int64_t parent)
      : inner_(inner), tracer_(tracer), name_(span_name), parent_(parent) {}
  [[nodiscard]] Status Append(wiclean::PageActions&& batch) override;
  int64_t append_ns() const { return append_ns_.load(); }

 private:
  wiclean::ActionSink* inner_;
  Tracer* tracer_;
  const char* name_;
  int64_t parent_;
  std::atomic<int64_t> append_ns_{0};
};

/// XML dump -> RunIngestPipeline (`threads` parse workers) into a tee of a
/// RevisionStore and an ActionLogWriter, then ActionLogWriter::Finish.
/// Records the dump.*, log.append_s, log.finish_s and revision.append_s
/// metrics as pending sums.
struct IngestOutput {
  wiclean::RevisionStore store;
  std::string wcal;
  wiclean::IngestStats stats;
};
Status IngestXml(const std::string& xml, const wiclean::EntityRegistry& registry,
                 size_t threads, Tracer* tracer, Recorder* rec,
                 IngestOutput* out);

/// WCAL bytes -> ReplayActionLog (`threads` decode workers) into *store.
/// Records log.replay_s and revision.append_s as pending sums.
Status ReplayWcal(const std::string& wcal, size_t threads, Tracer* tracer,
                  Recorder* rec, wiclean::RevisionStore* store);

/// Flips one byte in the middle of a WCAL block payload.
void CorruptWcal(std::string* wcal);

/// Order-normalized fingerprint of one detection report (pattern-level
/// counts plus the sorted partial-realization signatures).
std::string ReportFingerprint(const wiclean::PartialUpdateReport& report);

/// Fnv1a64 over a sequence of strings, as a fixed-width hex digest.
std::string DigestHex(const std::vector<std::string>& parts);

/// The corpus as one time-ordered event stream, entity-log order breaking
/// ties; each event carries its pre-sort rank as the feed sequence number.
std::vector<std::pair<wiclean::Action, uint64_t>> CanonicalFeed(
    const wiclean::EntityRegistry& registry,
    const wiclean::RevisionStore& store);

/// Workload entry points. Each records its metrics into *rec and returns a
/// non-OK status when a layer call fails or an oracle gate does not hold.
Status RunMineSoccer(const RunOptions& opts, Tracer* tracer, Recorder* rec);
Status RunIngestMixed(const RunOptions& opts, Tracer* tracer, Recorder* rec);
Status RunServeChurn(const RunOptions& opts, Tracer* tracer, Recorder* rec);

}  // namespace pipebench

#endif  // WICLEAN_PIPEBENCH_HARNESS_H_
