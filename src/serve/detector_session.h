#ifndef WICLEAN_SERVE_DETECTOR_SESSION_H_
#define WICLEAN_SERVE_DETECTOR_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/annotations.h"
#include "common/bounded_queue.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "serve/online_detector.h"

namespace wiclean {

/// Deterministic serving fault plan — the fault-injection hooks the serving
/// tests and the torture bench use to exercise failure paths without relying
/// on timing luck. kNoShard (the default) disables a fault. Counts are in
/// events *consumed by that shard*, so a plan replays identically at any
/// queue capacity or thread-schedule.
struct ShardFaultPlan {
  static constexpr size_t kNoShard = static_cast<size_t>(-1);

  /// Shard whose detector "panics": its Observe is replaced by an injected
  /// Internal error once the shard has consumed `poison_after` events.
  size_t poison_shard = kNoShard;
  uint64_t poison_after = 0;

  /// Shard whose worker wedges: after consuming `stall_after` events it
  /// parks *before* the next Pop (backlog visibly piles up, the consumed
  /// counter freezes) until the session is cancelled. Models a stuck
  /// consumer the watchdog must detect — the shard never errors on its own.
  size_t stall_shard = kNoShard;
  uint64_t stall_after = 0;
};

/// Outcome of one admission-controlled feed attempt.
enum class FeedStatus {
  /// Accepted by every shard.
  kOk,
  /// The per-session queue quota stayed exhausted for the whole feed
  /// deadline; the event was delivered to NO shard. Retryable.
  kOverloaded,
  /// The session is dying (a shard failed or the session was cancelled);
  /// the event was dropped. Terminal — cause() has the reason.
  kAborted,
};

struct DetectorSessionOptions {
  /// Number of pattern shards, each with its own worker thread and
  /// OnlineDetector. Every shard sees the whole stream (pattern-parallel,
  /// not data-parallel), so the alert set is identical at any thread count.
  size_t num_threads = 1;
  /// Per-shard feed queue capacity; a producer racing ahead of slow shards
  /// blocks in TryFeed once a queue fills (backpressure, not unbounded
  /// memory).
  size_t queue_capacity = 256;
  /// Admission deadline for TryFeed, in milliseconds: how long a feed may
  /// wait on a full quota before giving up with kOverloaded. <= 0 means
  /// block indefinitely (the one-shot batch-replay behavior).
  int64_t feed_deadline_ms = 0;
  /// Deterministic fault injection; defaults to no faults.
  ShardFaultPlan fault;
  /// Per-shard detector options; shard_index/num_shards are assigned by the
  /// session.
  OnlineDetectorOptions detector;
};

/// End-of-run summary: merged alerts plus per-stage counters and timings.
struct SessionReport {
  /// Alerts of all shards, ordered by pattern id (deterministic across
  /// thread counts).
  std::vector<OnlineAlert> alerts;
  /// Shard stats summed. events_observed counts every (event, shard) pair —
  /// it is events_fed * num_threads when nothing was dropped.
  OnlineDetectorStats stats;
  uint64_t events_fed = 0;
  /// Feeds rejected with kOverloaded (delivered nowhere, not counted in
  /// events_fed).
  uint64_t events_shed = 0;
  /// Producer-side wall time spent inside Feed (includes backpressure).
  double feed_seconds = 0;
  /// Per-shard wall time spent observing events (excludes queue waits).
  std::vector<double> shard_busy_seconds;
};

/// Runs OnlineDetector shards over a ThreadPool, one BoundedQueue per shard,
/// broadcasting every fed event to all shards. Graceful drain: Drain()
/// closes the queues, lets every worker consume its backlog, finalizes the
/// remaining patterns, and merges per-shard alerts deterministically.
///
/// Usage: Start(snapshot) → TryFeed(action, sequence)* → Drain(). A session
/// that turned kAborted is instead Cancel()ed and its cause() inspected —
/// that is the quarantine path DetectorService drives.
///
/// Admission control: when feed_deadline_ms > 0, TryFeed applies the
/// deadline at shard 0 only — the *admission gate*. All shards have equal
/// capacity and receive events in identical order from the single producer,
/// so shard 0's queue being full for the whole deadline means the session's
/// quota is genuinely exhausted; once shard 0 admits, the remaining shards
/// are fed with plain blocking pushes, keeping acceptance all-or-nothing
/// (kOverloaded ⇒ the event reached no shard, so shard streams never
/// diverge). A stalled shard other than 0 is a liveness fault, not an
/// admission question — the service watchdog handles it via the consumed/
/// backlog heartbeats below.
///
/// Threading: one producer thread calls TryFeed/Drain; workers run on the
/// internal pool; Cancel and the heartbeat accessors are safe from any
/// thread (that is what the service watchdog calls them on).
class DetectorSession {
 public:
  /// `registry` must outlive the session.
  DetectorSession(const EntityRegistry* registry,
                  DetectorSessionOptions options);
  ~DetectorSession();

  DetectorSession(const DetectorSession&) = delete;
  DetectorSession& operator=(const DetectorSession&) = delete;

  /// Spawns the shard workers over a shared immutable snapshot (typically an
  /// epoch pinned in a SnapshotRegistry — the session borrows, never copies).
  [[nodiscard]] Status Start(std::shared_ptr<const PatternSnapshot> snapshot);

  /// Copying convenience: clones `snapshot`, which may be destroyed after
  /// Start returns.
  [[nodiscard]] Status Start(const PatternSnapshot& snapshot);

  /// Admission-controlled broadcast of one event with its canonical
  /// sequence rank (feed order for in-order streams; e.g. revision ids for
  /// out-of-order ones). Applies options_.feed_deadline_ms: with a deadline
  /// <= 0 it blocks until every shard accepts, and fails only with kAborted.
  FeedStatus TryFeed(const Action& action, uint64_t sequence);

  /// Closes the stream, drains every shard, finalizes remaining patterns,
  /// and returns the merged report. Call exactly once, after Start. Fails
  /// with the abort cause if a shard failed.
  [[nodiscard]] Result<SessionReport> Drain();

  /// Aborts the session: cancels every shard queue (discarding backlogs,
  /// waking any parked or blocked worker) and joins the workers. Idempotent;
  /// safe from any thread. After Cancel, TryFeed returns kAborted and Drain
  /// reports cause() (or Cancelled-as-Internal if no shard had failed).
  void Cancel();

  /// True once a shard has failed or Cancel was called. Cheap (one atomic
  /// load); feeders may poll it between events.
  bool aborting() const { return aborting_.load(std::memory_order_acquire); }

  /// First shard failure recorded (OK when aborting() is false or the abort
  /// came from Cancel alone).
  Status cause() const WC_EXCLUDES(mu_);

  /// Liveness heartbeats for the service watchdog: the number of events
  /// shard `i` has consumed so far, and its current queue backlog. A shard
  /// whose backlog stays > 0 while consumed stands still across two scans is
  /// stuck.
  uint64_t shard_consumed(size_t i) const;
  size_t shard_backlog(size_t i) const;
  size_t num_shards() const { return shards_.size(); }

 private:
  struct FeedItem {
    Action action;
    uint64_t sequence = 0;
  };

  /// Everything one shard owns; workers touch only their own Shard (plus
  /// the atomic heartbeat) until Drain/Cancel has joined them.
  struct Shard {
    explicit Shard(size_t queue_capacity) : queue(queue_capacity) {}
    BoundedQueue<FeedItem> queue;
    std::unique_ptr<OnlineDetector> detector;
    std::vector<OnlineAlert> alerts;
    Status status = Status::OK();
    double busy_seconds = 0;
    /// Heartbeat: events consumed, published after each Pop. Read lock-free
    /// by the watchdog while the worker runs.
    std::atomic<uint64_t> consumed{0};
  };

  void WorkerLoop(size_t shard_index, Shard* shard);
  /// Records a shard failure (first error wins) and cancels every queue.
  void Abort(Status status) WC_EXCLUDES(mu_);

  const EntityRegistry* registry_;
  DetectorSessionOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ThreadPool> pool_;
  uint64_t events_fed_ = 0;   // producer thread only
  uint64_t events_shed_ = 0;  // producer thread only
  double feed_seconds_ = 0;   // producer thread only
  bool started_ = false;
  bool drained_ = false;

  mutable Mutex mu_;
  /// First shard failure; set once, under mu_, before aborting_ flips.
  Status abort_cause_ WC_GUARDED_BY(mu_) = Status::OK();
  std::atomic<bool> aborting_{false};
  std::atomic<bool> cancelled_{false};
};

}  // namespace wiclean

#endif  // WICLEAN_SERVE_DETECTOR_SESSION_H_
