#ifndef WICLEAN_SERVE_DETECTOR_SERVICE_H_
#define WICLEAN_SERVE_DETECTOR_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/result.h"
#include "serve/detector_session.h"
#include "serve/snapshot_registry.h"

namespace wiclean {

/// Opaque handle of one serving session. Ids are never reused.
using TenantId = uint64_t;

/// Outcome of one Feed into the service.
enum class FeedResult {
  kOk,
  /// The tenant's queue quota stayed exhausted for the feed deadline; the
  /// event reached no shard. Retryable; other tenants are unaffected.
  kOverloaded,
  /// The tenant is quarantined (now or previously); the event was dropped.
  /// cause() has the structured reason. Terminal for this tenant.
  kQuarantined,
  /// No such tenant (never opened, or already closed).
  kUnknownTenant,
};

/// Structured reason a tenant was quarantined — kept queryable until the
/// tenant is closed, so operators can distinguish a detector failure from a
/// wedged consumer.
struct QuarantineCause {
  enum class Kind {
    /// A shard's detector returned an error (or panicked via fault
    /// injection); `status` carries it.
    kShardFailure,
    /// The watchdog saw the shard's backlog stay non-empty across two scans
    /// with a frozen consumed heartbeat.
    kStuckShard,
  };
  Kind kind = Kind::kShardFailure;
  size_t shard = 0;
  Status status = Status::OK();
  /// Events the tenant had successfully fed when quarantined.
  uint64_t events_fed = 0;

  std::string ToString() const;
};

struct DetectorServiceOptions {
  /// Admission cap: OpenSession fails with ResourceExhausted beyond this.
  size_t max_tenants = 64;
  /// Shards (worker threads) per tenant session.
  size_t shards_per_tenant = 1;
  /// Per-shard queue capacity of each tenant — the tenant's queue quota.
  size_t tenant_queue_capacity = 256;
  /// How long one Feed may wait on an exhausted quota before kOverloaded.
  /// <= 0 blocks indefinitely (no load shedding).
  int64_t feed_deadline_ms = 50;
  /// Detector options shared by every session (allowed_skew, join options).
  OnlineDetectorOptions detector;
};

/// What CloseSession returns for a healthy tenant.
struct TenantReport {
  TenantId tenant = 0;
  /// The snapshot epoch the session was pinned to for its whole lifetime.
  EpochId epoch = 0;
  SessionReport session;
};

/// Service-lifetime counters (monotonic).
struct DetectorServiceStats {
  uint64_t sessions_opened = 0;
  uint64_t sessions_rejected = 0;
  uint64_t sessions_closed = 0;
  uint64_t events_accepted = 0;
  uint64_t events_shed = 0;
  uint64_t tenants_quarantined = 0;
  uint64_t watchdog_scans = 0;
};

/// Long-running multi-tenant serving front-end over DetectorSession:
///
///   - **Epoch hot-swap.** PublishSnapshot installs a new pattern snapshot
///     in the SnapshotRegistry without touching live traffic: sessions pin
///     the current epoch at OpenSession and keep it until closed, so a
///     reload never changes what an in-flight session detects, and a
///     corrupt snapshot file simply fails PublishSnapshotFile while the old
///     epoch keeps serving.
///   - **Admission control.** max_tenants bounds concurrent sessions;
///     each tenant's per-shard queue quota plus the feed deadline turns
///     overload into an explicit, deterministic kOverloaded instead of
///     unbounded queueing — and one slow tenant cannot displace others,
///     because quotas are per-tenant by construction.
///   - **Failure containment.** A shard failure aborts only its own
///     tenant's session; the service quarantines the tenant with a
///     structured cause and every other tenant's stream is untouched.
///     RunWatchdogScan (called on the operator's cadence) additionally
///     quarantines tenants whose shards are wedged: backlog non-empty
///     across two consecutive scans while the shard's consumed heartbeat
///     stands still.
///
/// Thread-safety: everything is callable from any thread. The tenant table
/// is guarded by mu_; each tenant carries two mutexes with distinct jobs.
/// `feed_mu` serializes the tenant's producers (one logical stream per
/// tenant — DetectorSession requires a single producer) and is the only
/// lock held across a possibly-blocking queue push; `mu` guards the
/// tenant's state (session pointer, quarantine flag, heartbeat baselines)
/// and is only ever held briefly. The split is load-bearing: a producer
/// parked on a full queue (feed_deadline_ms <= 0, stuck shard) holds only
/// feed_mu, so RunWatchdogScan can still read the heartbeats, quarantine
/// the tenant, and — via Cancel — wake that very producer; with the state
/// lock held across the push instead, the watchdog could never reach the
/// exact condition it exists to detect. Feeds of different tenants never
/// contend with each other (only with the table lookup).
class DetectorService {
 public:
  /// `registry` (entities + taxonomy) must outlive the service.
  DetectorService(const EntityRegistry* registry,
                  DetectorServiceOptions options);
  ~DetectorService();

  DetectorService(const DetectorService&) = delete;
  DetectorService& operator=(const DetectorService&) = delete;

  /// Installs `snapshot` as the new current epoch; returns its id. Sessions
  /// already open keep their pinned epoch.
  EpochId PublishSnapshot(PatternSnapshot snapshot);

  /// Loads + validates a WCPS file, then publishes it. A half-written or
  /// corrupt file fails here and the previous epoch keeps serving.
  [[nodiscard]] Result<EpochId> PublishSnapshotFile(const std::string& path);

  /// Admits a new tenant pinned to the current epoch. Fails with
  /// ResourceExhausted at max_tenants and FailedPrecondition before the
  /// first publish. The fault-plan overload is the test harness's hook.
  [[nodiscard]] Result<TenantId> OpenSession() WC_EXCLUDES(mu_);
  [[nodiscard]] Result<TenantId> OpenSession(const ShardFaultPlan& fault)
      WC_EXCLUDES(mu_);

  /// Feeds one event into the tenant's stream; its canonical sequence is
  /// the number of events the tenant accepted before it (feed order).
  /// kAborted from the session quarantines the tenant here.
  FeedResult Feed(TenantId tenant, const Action& action) WC_EXCLUDES(mu_);

  /// Feed with an explicit canonical sequence rank — for streams whose
  /// canonical order (e.g. pre-sort entity-log rank) is not the feed order.
  FeedResult Feed(TenantId tenant, const Action& action, uint64_t sequence)
      WC_EXCLUDES(mu_);

  /// Drains a healthy tenant and returns its merged report; releases the
  /// epoch pin (possibly retiring the epoch). For a quarantined tenant,
  /// returns the failure Status instead — query cause() first for the
  /// structured reason. Either way the tenant is gone afterwards.
  [[nodiscard]] Result<TenantReport> CloseSession(TenantId tenant)
      WC_EXCLUDES(mu_);

  /// One watchdog pass over all tenants; returns how many were newly
  /// quarantined for stuck shards. The caller owns the cadence — each scan
  /// compares against the previous one, so "stuck" means "no progress for
  /// one full scan interval with work queued".
  size_t RunWatchdogScan() WC_EXCLUDES(mu_);

  /// Structured quarantine cause; NotFound for unknown tenants,
  /// FailedPrecondition for healthy ones.
  [[nodiscard]] Result<QuarantineCause> cause(TenantId tenant) const
      WC_EXCLUDES(mu_);

  size_t num_tenants() const WC_EXCLUDES(mu_);
  SnapshotRegistryStats registry_stats() const { return epochs_.stats(); }
  DetectorServiceStats stats() const;

 private:
  struct Tenant {
    TenantId id = 0;
    /// Serializes this tenant's producers and pins the session's lifetime:
    /// Feed holds it (WITHOUT mu) across the possibly-blocking TryFeed, and
    /// CloseSession acquires it before destroying the session, so a raw
    /// session pointer read under mu stays valid for as long as feed_mu is
    /// held. Never acquired while holding mu.
    Mutex feed_mu WC_ACQUIRED_BEFORE(mu);
    /// Guards this tenant's state. Held only briefly — never across a
    /// blocking queue push — so quarantine, close, and the watchdog's
    /// heartbeat reads always make progress. Distinct tenants never contend.
    Mutex mu;
    std::unique_ptr<DetectorSession> session WC_GUARDED_BY(mu);
    SnapshotRef pin WC_GUARDED_BY(mu);
    EpochId epoch = 0;  // immutable after open
    bool quarantined WC_GUARDED_BY(mu) = false;
    QuarantineCause cause WC_GUARDED_BY(mu);
    uint64_t events_fed WC_GUARDED_BY(mu) = 0;
    /// Watchdog state: last scan's per-shard heartbeat snapshot.
    bool scanned_once WC_GUARDED_BY(mu) = false;
    std::vector<uint64_t> last_consumed WC_GUARDED_BY(mu);
    std::vector<bool> last_backlogged WC_GUARDED_BY(mu);
  };

  std::shared_ptr<Tenant> FindTenant(TenantId id) const WC_EXCLUDES(mu_);
  /// Both Feeds; an empty `sequence` stands for the tenant's accepted-event
  /// count, read under mu while feed_mu is held, so concurrent producers
  /// get distinct ranks.
  FeedResult FeedInternal(TenantId tenant, const Action& action,
                          std::optional<uint64_t> sequence) WC_EXCLUDES(mu_);
  /// Marks the tenant quarantined and cancels its session. First caller
  /// wins; callers must have checked `!t->quarantined`.
  void Quarantine(Tenant* t, QuarantineCause cause) WC_REQUIRES(t->mu);

  const EntityRegistry* registry_;
  DetectorServiceOptions options_;
  SnapshotRegistry epochs_;

  mutable Mutex mu_;
  std::map<TenantId, std::shared_ptr<Tenant>> tenants_ WC_GUARDED_BY(mu_);
  TenantId next_tenant_ WC_GUARDED_BY(mu_) = 0;

  std::atomic<uint64_t> sessions_opened_{0};
  std::atomic<uint64_t> sessions_rejected_{0};
  std::atomic<uint64_t> sessions_closed_{0};
  std::atomic<uint64_t> events_accepted_{0};
  std::atomic<uint64_t> events_shed_{0};
  std::atomic<uint64_t> tenants_quarantined_{0};
  std::atomic<uint64_t> watchdog_scans_{0};
};

}  // namespace wiclean

#endif  // WICLEAN_SERVE_DETECTOR_SERVICE_H_
