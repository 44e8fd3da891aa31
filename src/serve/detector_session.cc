#include "serve/detector_session.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/timer.h"

namespace wiclean {

DetectorSession::DetectorSession(const EntityRegistry* registry,
                                 DetectorSessionOptions options)
    : registry_(registry), options_(options) {
  if (options_.num_threads == 0) options_.num_threads = 1;
}

DetectorSession::~DetectorSession() {
  if (started_ && !drained_) Cancel();
}

Status DetectorSession::Start(
    std::shared_ptr<const PatternSnapshot> snapshot) {
  if (started_) return Status::FailedPrecondition("session already started");
  if (snapshot == nullptr) return Status::InvalidArgument("null snapshot");
  // Load every shard before marking the session started: a LoadPatterns
  // error leaves no workers, so there is nothing to Cancel.
  for (size_t s = 0; s < options_.num_threads; ++s) {
    auto shard = std::make_unique<Shard>(options_.queue_capacity);
    OnlineDetectorOptions detector_options = options_.detector;
    detector_options.shard_index = s;
    detector_options.num_shards = options_.num_threads;
    shard->detector =
        std::make_unique<OnlineDetector>(registry_, detector_options);
    Status loaded = shard->detector->LoadPatterns(snapshot);
    if (!loaded.ok()) {
      shards_.clear();
      return loaded;
    }
    shards_.push_back(std::move(shard));
  }
  started_ = true;
  pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard* raw = shards_[s].get();
    pool_->Submit([this, s, raw] { WorkerLoop(s, raw); });
  }
  return Status::OK();
}

Status DetectorSession::Start(const PatternSnapshot& snapshot) {
  return Start(std::make_shared<const PatternSnapshot>(snapshot));
}

void DetectorSession::WorkerLoop(size_t shard_index, Shard* shard) {
  const ShardFaultPlan& fault = options_.fault;
  FeedItem item;
  Timer busy;
  double busy_seconds = 0;
  for (;;) {
    if (shard_index == fault.stall_shard &&
        shard->consumed.load(std::memory_order_relaxed) >=
            fault.stall_after) {
      // Injected wedge: park *before* the next Pop so the backlog visibly
      // piles up while the consumed heartbeat freezes — the signature the
      // service watchdog keys on. Only a Cancel releases the worker.
      while (!shard->queue.cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      break;
    }
    if (!shard->queue.Pop(&item)) break;
    busy.Restart();
    Status status;
    if (shard_index == fault.poison_shard &&
        shard->consumed.load(std::memory_order_relaxed) >=
            fault.poison_after) {
      status = Status::Internal(
          "injected fault: shard " + std::to_string(shard_index) +
          " poisoned after " + std::to_string(fault.poison_after) +
          " event(s)");
    } else {
      status = shard->detector->Observe(item.action, item.sequence,
                                        &shard->alerts);
    }
    busy_seconds += busy.ElapsedSeconds();
    shard->consumed.fetch_add(1, std::memory_order_release);
    if (!status.ok()) {
      shard->status = status;
      Abort(std::move(status));
      break;
    }
  }
  shard->busy_seconds = busy_seconds;
}

void DetectorSession::Abort(Status status) {
  {
    MutexLock lock(&mu_);
    if (abort_cause_.ok()) abort_cause_ = std::move(status);
  }
  aborting_.store(true, std::memory_order_release);
  // Cancel every queue, not just the failing shard's: the producer may be
  // blocked on any of them, and the session's merged output is already lost.
  for (auto& shard : shards_) shard->queue.Cancel();
}

void DetectorSession::Cancel() {
  if (!started_) return;
  aborting_.store(true, std::memory_order_release);
  for (auto& shard : shards_) shard->queue.Cancel();
  pool_->Wait();
}

Status DetectorSession::cause() const {
  MutexLock lock(&mu_);
  return abort_cause_;
}

uint64_t DetectorSession::shard_consumed(size_t i) const {
  return shards_[i]->consumed.load(std::memory_order_acquire);
}

size_t DetectorSession::shard_backlog(size_t i) const {
  return shards_[i]->queue.size();
}

FeedStatus DetectorSession::TryFeed(const Action& action, uint64_t sequence) {
  Timer timer;
  FeedStatus result = FeedStatus::kAborted;
  if (started_ && !drained_ && !aborting()) {
    const int64_t deadline_ms = options_.feed_deadline_ms;
    size_t first = 0;
    bool admitted = true;
    if (deadline_ms > 0) {
      // Admission gate: the deadline applies at shard 0 only. Equal
      // capacities + identical broadcast order mean shard 0 staying full for
      // the whole window is exactly "quota exhausted"; once admitted, the
      // remaining shards take blocking pushes so acceptance stays
      // all-or-nothing and shard streams never diverge.
      if (!shards_[0]->queue.TryPushFor(
              FeedItem{action, sequence},
              std::chrono::milliseconds(deadline_ms))) {
        admitted = false;
        result = aborting() || shards_[0]->queue.cancelled()
                     ? FeedStatus::kAborted
                     : FeedStatus::kOverloaded;
      }
      first = 1;
    }
    if (admitted) {
      result = FeedStatus::kOk;
      for (size_t s = first; s < shards_.size(); ++s) {
        if (!shards_[s]->queue.Push(FeedItem{action, sequence})) {
          result = FeedStatus::kAborted;
          break;
        }
      }
    }
  }
  if (result == FeedStatus::kOk) {
    ++events_fed_;
  } else if (result == FeedStatus::kOverloaded) {
    ++events_shed_;
  }
  feed_seconds_ += timer.ElapsedSeconds();
  return result;
}

Result<SessionReport> DetectorSession::Drain() {
  if (!started_) return Status::FailedPrecondition("session not started");
  if (drained_) return Status::FailedPrecondition("session already drained");
  drained_ = true;
  for (auto& shard : shards_) shard->queue.Close();
  pool_->Wait();

  if (aborting()) {
    MutexLock lock(&mu_);
    if (!abort_cause_.ok()) return abort_cause_;
    return Status::Internal("session cancelled");
  }

  SessionReport report;
  report.events_fed = events_fed_;
  report.events_shed = events_shed_;
  report.feed_seconds = feed_seconds_;
  for (auto& shard : shards_) {
    WICLEAN_RETURN_IF_ERROR(shard->status);
    WICLEAN_RETURN_IF_ERROR(shard->detector->FinishStream(&shard->alerts));
    const OnlineDetectorStats& s = shard->detector->stats();
    report.stats.events_observed += s.events_observed;
    report.stats.events_matched += s.events_matched;
    report.stats.slot_hits += s.slot_hits;
    report.stats.late_events += s.late_events;
    report.stats.patterns_finalized += s.patterns_finalized;
    report.stats.alerts_with_partials += s.alerts_with_partials;
    report.stats.finalize_seconds += s.finalize_seconds;
    report.shard_busy_seconds.push_back(shard->busy_seconds);
    report.alerts.insert(report.alerts.end(),
                         std::make_move_iterator(shard->alerts.begin()),
                         std::make_move_iterator(shard->alerts.end()));
    shard->alerts.clear();
  }
  std::sort(report.alerts.begin(), report.alerts.end(),
            [](const OnlineAlert& a, const OnlineAlert& b) {
              return a.pattern_id < b.pattern_id;
            });
  return report;
}

}  // namespace wiclean
