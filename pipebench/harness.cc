#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/hash.h"
#include "dump/pipeline.h"
#include "log/action_log_reader.h"
#include "log/action_log_writer.h"
#include "log/replay.h"

namespace pipebench {

const std::vector<MetricDef>& MetricCatalog() {
  static const std::vector<MetricDef> catalog = {
      // End to end: what a user of the pipeline pays. Both times are CPU
      // seconds (see CpuStopwatch); the wall time of a job is the per-layer
      // pipeline.wall_s.
      {"setup_s", "s", true},
      {"peak_rss_mb", "MB", true},
      {"pipeline_cpu_s", "s", true},
      {"pipeline.wall_s", "s", false},
      // core: window/pattern mining and batch partial-edit detection.
      {"core.search_s", "s", false},
      {"core.detect_s", "s", false},
      {"core.rounds", "count", false},
      {"core.candidates", "count", false},
      {"core.frequent", "count", false},
      {"core.entities_read", "count", false},
      {"core.actions_read", "count", false},
      {"core.patterns", "count", false},
      {"core.relatives", "count", false},
      {"core.partials", "count", false},
      {"core.hit_ratio", "ratio", false},
      {"eval.precision", "ratio", false},
      {"eval.recall", "ratio", false},
      // dump / log / revision: XML parse-diff, WCAL write and replay.
      {"dump.ingest_s", "s", false},
      {"dump.read_s", "s", false},
      {"dump.pages", "count", false},
      {"dump.revisions", "count", false},
      {"dump.actions", "count", false},
      {"dump.xml_mb_per_s", "MB/s", false},
      {"log.append_s", "s", false},
      {"log.finish_s", "s", false},
      {"log.replay_s", "s", false},
      {"log.bytes_per_action", "bytes", false},
      {"revision.append_s", "s", false},
      // serve: WCPS snapshots and the online detector service.
      {"serve.encode_s", "s", false},
      {"serve.decode_s", "s", false},
      {"serve.snapshot_bytes", "bytes", false},
      {"serve.eps", "1/s", false},
      {"serve.ack_p50_us", "us", false},
      {"serve.ack_p99_us", "us", false},
      {"serve.drain_p50_ms", "ms", false},
      {"serve.feed_us_p50", "us", false},
      {"serve.feed_us_p99", "us", false},
      {"serve.shard_util", "ratio", false},
      {"serve.match_ratio", "ratio", false},
      {"serve.slot_hits_per_event", "ratio", false},
      {"serve.shed_ratio", "ratio", false},
      {"serve.open_ms", "ms", false},
      {"serve.close_ms", "ms", false},
      {"serve.publish_ms", "ms", false},
      {"serve.finalize_s", "s", false},
      {"serve.late_events", "count", false},
      {"serve.epochs_freed", "count", false},
      {"gen.lag_p99_ms", "ms", false},
      // report: JSON detection report.
      {"report.write_s", "s", false},
      {"report.bytes", "bytes", false},
  };
  return catalog;
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

void Recorder::Flush() {
  for (const auto& [name, value] : pending_) samples_[name].push_back(value);
  pending_.clear();
}

void Recorder::Merge(const Recorder& other) {
  for (const auto& [name, values] : other.samples_) {
    std::vector<double>& mine = samples_[name];
    mine.insert(mine.end(), values.begin(), values.end());
  }
  attempted_ += other.attempted_;
}

namespace {
double CpuNow(int clock) {
  struct timespec ts {};
  clock_gettime(static_cast<clockid_t>(clock), &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}
}  // namespace

CpuStopwatch::CpuStopwatch(Scope scope)
    : clock_(scope == Scope::kThread ? CLOCK_THREAD_CPUTIME_ID
                                     : CLOCK_PROCESS_CPUTIME_ID),
      start_(CpuNow(clock_)) {}

double CpuStopwatch::Seconds() const { return CpuNow(clock_) - start_; }

double Recorder::Median(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0 : MedianOf(it->second);
}

namespace {
const double kBucketLog = std::log(1.01);
constexpr size_t kBuckets = 2600;  // 1.01^2600 ns is over 100 s
}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

void LatencyHistogram::Add(int64_t ns) {
  size_t i = 0;
  if (ns > 1) {
    i = std::min(kBuckets - 1, static_cast<size_t>(std::ceil(
                                   std::log(static_cast<double>(ns)) /
                                   kBucketLog)));
  }
  ++buckets_[i];
  ++count_;
}

double LatencyHistogram::QuantileNs(double q) const {
  if (count_ == 0) return 0;
  const uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= std::max<uint64_t>(rank, 1)) {
      return std::exp((static_cast<double>(i) - 0.5) * kBucketLog);
    }
  }
  return std::exp(static_cast<double>(kBuckets) * kBucketLog);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Status GateFailure(const std::string& what) {
  return Status::Internal("oracle gate failed: " + what);
}

Result<bool> TimedPageSource::Next(wiclean::DumpPage* page) {
  if (!tracer_->enabled()) return inner_->Next(page);
  ScopedSpan span(tracer_, "dump.PageSource::Next");
  const int64_t start = NowNs();
  Result<bool> more = inner_->Next(page);
  read_ns_ += NowNs() - start;
  return more;
}

Status TimedSink::Append(wiclean::PageActions&& batch) {
  if (!tracer_->enabled()) return inner_->Append(std::move(batch));
  ScopedSpan span(tracer_, name_, 0, parent_);
  const int64_t start = NowNs();
  Status status = inner_->Append(std::move(batch));
  append_ns_.fetch_add(NowNs() - start);
  return status;
}

Status IngestXml(const std::string& xml,
                 const wiclean::EntityRegistry& registry, size_t threads,
                 Tracer* tracer, Recorder* rec, IngestOutput* out) {
  ScopedSpan span(tracer, "dump.RunIngestPipeline");
  std::istringstream in(xml);
  wiclean::XmlPageSource xml_source(&in);
  TimedPageSource source(&xml_source, tracer);
  std::ostringstream log_bytes;
  wiclean::ActionLogWriter writer(&log_bytes);
  if (!writer.status().ok()) return writer.status();
  wiclean::RevisionStoreSink store_sink(&out->store);
  TimedSink timed_store(&store_sink, tracer, "revision.Append", span.id());
  TimedSink timed_log(&writer, tracer, "log.ActionLogWriter::Append",
                      span.id());
  wiclean::TeeActionSink tee(&timed_store, &timed_log);
  wiclean::IngestOptions options;
  options.num_threads = threads;

  Stopwatch ingest_clock;
  rec->Attempt();
  Result<wiclean::IngestStats> stats =
      wiclean::RunIngestPipeline(&source, registry, &tee, options);
  if (!stats.ok()) return stats.status();
  const double ingest_s = ingest_clock.Seconds();
  {
    ScopedSpan finish(tracer, "log.ActionLogWriter::Finish");
    Stopwatch finish_clock;
    rec->Attempt();
    Status status = writer.Finish();
    if (!status.ok()) return status;
    rec->Sum("log.finish_s", finish_clock.Seconds());
  }
  out->stats = *stats;
  out->wcal = log_bytes.str();

  rec->Sum("dump.ingest_s", ingest_s);
  rec->Sum("dump.read_s", static_cast<double>(source.read_ns()) / 1e9);
  rec->Sum("log.append_s", static_cast<double>(timed_log.append_ns()) / 1e9);
  rec->Sum("revision.append_s",
           static_cast<double>(timed_store.append_ns()) / 1e9);
  rec->Sum("dump.pages", static_cast<double>(stats->pages));
  rec->Sum("dump.revisions", static_cast<double>(stats->revisions));
  rec->Sum("dump.actions", static_cast<double>(stats->actions));
  rec->Sum("dump.xml_mb_per_s",
           static_cast<double>(xml.size()) / 1e6 / std::max(ingest_s, 1e-9));
  rec->Sum("log.bytes_per_action",
           static_cast<double>(out->wcal.size()) /
               static_cast<double>(std::max<size_t>(stats->actions, 1)));
  return Status::OK();
}

Status ReplayWcal(const std::string& wcal, size_t threads, Tracer* tracer,
                  Recorder* rec, wiclean::RevisionStore* store) {
  ScopedSpan span(tracer, "log.ReplayActionLog");
  Stopwatch clock;
  rec->Attempt();
  Result<wiclean::ActionLogReader> reader =
      wiclean::ActionLogReader::FromBytes(wcal);
  if (!reader.ok()) return reader.status();
  wiclean::RevisionStoreSink store_sink(store);
  TimedSink timed_store(&store_sink, tracer, "revision.Append", span.id());
  wiclean::ReplayOptions options;
  options.num_threads = threads;
  Result<wiclean::IngestStats> stats =
      wiclean::ReplayActionLog(*reader, &timed_store, options);
  if (!stats.ok()) return stats.status();
  rec->Sum("log.replay_s", clock.Seconds());
  rec->Sum("revision.append_s",
           static_cast<double>(timed_store.append_ns()) / 1e9);
  return Status::OK();
}

void CorruptWcal(std::string* wcal) {
  if (wcal->empty()) return;
  (*wcal)[wcal->size() / 2] ^= 0x5a;
}

std::string ReportFingerprint(const wiclean::PartialUpdateReport& report) {
  std::vector<std::string> sigs;
  sigs.reserve(report.partials.size());
  for (const wiclean::PartialRealization& pr : report.partials) {
    sigs.push_back(pr.Signature());
  }
  std::sort(sigs.begin(), sigs.end());
  std::string out = "full=" + std::to_string(report.full_count);
  for (const std::string& s : sigs) {
    out += '|';
    out += s;
  }
  return out;
}

std::string DigestHex(const std::vector<std::string>& parts) {
  uint64_t h = wiclean::Fnv1a64("pipebench");
  for (const std::string& p : parts) {
    h = wiclean::HashCombine(h, wiclean::Fnv1a64(p));
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::vector<std::pair<wiclean::Action, uint64_t>> CanonicalFeed(
    const wiclean::EntityRegistry& registry,
    const wiclean::RevisionStore& store) {
  std::vector<std::pair<wiclean::Action, uint64_t>> events;
  for (wiclean::EntityId e = 0;
       e < static_cast<wiclean::EntityId>(registry.size()); ++e) {
    for (const wiclean::Action& a : store.LogOf(e)) {
      events.emplace_back(a, static_cast<uint64_t>(events.size()));
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.time < b.first.time;
                   });
  return events;
}

}  // namespace pipebench
