#include "serve/detector_service.h"

#include <utility>

#include "serve/pattern_store.h"

namespace wiclean {

std::string QuarantineCause::ToString() const {
  std::string out = kind == Kind::kShardFailure ? "shard-failure" :
                                                  "stuck-shard";
  out += " on shard " + std::to_string(shard) + " after " +
         std::to_string(events_fed) + " event(s)";
  if (!status.ok()) out += ": " + status.ToString();
  return out;
}

DetectorService::DetectorService(const EntityRegistry* registry,
                                 DetectorServiceOptions options)
    : registry_(registry), options_(options) {
  if (options_.max_tenants == 0) options_.max_tenants = 1;
  if (options_.shards_per_tenant == 0) options_.shards_per_tenant = 1;
}

DetectorService::~DetectorService() {
  // Abort every live session so worker threads join before the registry and
  // epoch table are torn down. Pins release as the tenants are destroyed.
  MutexLock lock(&mu_);
  for (auto& [id, tenant] : tenants_) {
    MutexLock tenant_lock(&tenant->mu);
    if (tenant->session != nullptr) tenant->session->Cancel();
  }
}

EpochId DetectorService::PublishSnapshot(PatternSnapshot snapshot) {
  return epochs_.Publish(std::move(snapshot));
}

Result<EpochId> DetectorService::PublishSnapshotFile(
    const std::string& path) {
  // Decode failures (truncation, bit flips, a half-written temp file) stop
  // here: the current epoch keeps serving untouched.
  WICLEAN_ASSIGN_OR_RETURN(
      PatternSnapshot snapshot,
      LoadSnapshotFile(path, registry_->taxonomy()));
  return epochs_.Publish(std::move(snapshot));
}

Result<TenantId> DetectorService::OpenSession() {
  return OpenSession(ShardFaultPlan{});
}

Result<TenantId> DetectorService::OpenSession(const ShardFaultPlan& fault) {
  {
    // Fast-fail before paying for LoadPatterns; re-checked at insert.
    MutexLock lock(&mu_);
    if (tenants_.size() >= options_.max_tenants) {
      sessions_rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "tenant limit reached (" + std::to_string(options_.max_tenants) +
          ")");
    }
  }
  WICLEAN_ASSIGN_OR_RETURN(SnapshotRef pin, epochs_.Acquire());

  auto tenant = std::make_shared<Tenant>();
  tenant->epoch = pin.epoch();

  DetectorSessionOptions session_options;
  session_options.num_threads = options_.shards_per_tenant;
  session_options.queue_capacity = options_.tenant_queue_capacity;
  session_options.feed_deadline_ms = options_.feed_deadline_ms;
  session_options.fault = fault;
  session_options.detector = options_.detector;

  auto session = std::make_unique<DetectorSession>(registry_,
                                                   session_options);
  // Build and Start outside mu_: per-shard LoadPatterns over a large
  // snapshot (plus thread-pool spawn) must not stall every other tenant's
  // Feed behind the table lock. On an early return the session destructor
  // cancels the workers and the pin destructor releases the epoch.
  WICLEAN_RETURN_IF_ERROR(session->Start(pin.shared()));
  {
    MutexLock tenant_lock(&tenant->mu);
    tenant->session = std::move(session);
    tenant->pin = std::move(pin);
  }
  {
    MutexLock lock(&mu_);
    if (tenants_.size() < options_.max_tenants) {
      tenant->id = ++next_tenant_;
      tenants_.emplace(tenant->id, tenant);
      sessions_opened_.fetch_add(1, std::memory_order_relaxed);
      return tenant->id;
    }
    sessions_rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  // Lost the re-check: a concurrent open took the last slot while this one
  // was loading. Tear down outside mu_ (Cancel joins worker threads).
  {
    MutexLock tenant_lock(&tenant->mu);
    tenant->session->Cancel();
    tenant->session.reset();
    tenant->pin.Release();
  }
  return Status::ResourceExhausted(
      "tenant limit reached (" + std::to_string(options_.max_tenants) + ")");
}

std::shared_ptr<DetectorService::Tenant> DetectorService::FindTenant(
    TenantId id) const {
  MutexLock lock(&mu_);
  auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : it->second;
}

void DetectorService::Quarantine(Tenant* t, QuarantineCause cause) {
  t->quarantined = true;
  cause.events_fed = t->events_fed;
  t->cause = std::move(cause);
  // Cancel discards backlogs and joins the tenant's workers (a parked
  // stalled worker exits on seeing the cancel). Other tenants' sessions and
  // queues are untouched — containment is per-tenant by construction.
  t->session->Cancel();
  tenants_quarantined_.fetch_add(1, std::memory_order_relaxed);
}

FeedResult DetectorService::Feed(TenantId tenant, const Action& action) {
  return FeedInternal(tenant, action, std::nullopt);
}

FeedResult DetectorService::Feed(TenantId tenant, const Action& action,
                                 uint64_t sequence) {
  return FeedInternal(tenant, action, sequence);
}

FeedResult DetectorService::FeedInternal(TenantId tenant,
                                         const Action& action,
                                         std::optional<uint64_t> sequence) {
  std::shared_ptr<Tenant> t = FindTenant(tenant);
  if (t == nullptr) return FeedResult::kUnknownTenant;
  // feed_mu (held across the whole attempt) serializes this tenant's
  // producers and keeps `session` alive: CloseSession acquires it before
  // destroying the session. t->mu is NOT held across TryFeed — a producer
  // parked on a full queue must not wedge the watchdog or a concurrent
  // close.
  MutexLock feed_lock(&t->feed_mu);
  DetectorSession* session = nullptr;
  {
    MutexLock lock(&t->mu);
    if (t->quarantined) return FeedResult::kQuarantined;
    // CloseSession can unlink and drain the tenant between FindTenant and
    // here; the tenant is then gone, not quarantined.
    if (t->session == nullptr) return FeedResult::kUnknownTenant;
    session = t->session.get();
    if (!sequence.has_value()) sequence = t->events_fed;
  }
  const FeedStatus status = session->TryFeed(action, *sequence);
  MutexLock lock(&t->mu);
  switch (status) {
    case FeedStatus::kOk:
      ++t->events_fed;
      events_accepted_.fetch_add(1, std::memory_order_relaxed);
      return FeedResult::kOk;
    case FeedStatus::kOverloaded:
      events_shed_.fetch_add(1, std::memory_order_relaxed);
      return FeedResult::kOverloaded;
    case FeedStatus::kAborted:
      break;
  }
  // The watchdog may have quarantined (and cancelled) the session while this
  // feed was blocked in it; its structured cause wins.
  if (t->quarantined) return FeedResult::kQuarantined;
  QuarantineCause cause;
  cause.kind = QuarantineCause::Kind::kShardFailure;
  cause.status = session->cause();
  Quarantine(t.get(), std::move(cause));
  return FeedResult::kQuarantined;
}

Result<TenantReport> DetectorService::CloseSession(TenantId tenant) {
  std::shared_ptr<Tenant> t;
  {
    // Unlink first so no new Feed can find the tenant mid-close.
    MutexLock table_lock(&mu_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
      return Status::NotFound("unknown tenant " + std::to_string(tenant));
    }
    t = std::move(it->second);
    tenants_.erase(it);
  }
  // feed_mu first: waits out any producer still inside the session (a
  // FindTenant from before the unlink), so the drain below never runs
  // concurrently with a feed and the session dies with no one inside it.
  MutexLock feed_lock(&t->feed_mu);
  MutexLock tenant_lock(&t->mu);
  sessions_closed_.fetch_add(1, std::memory_order_relaxed);
  if (t->quarantined) {
    Status status = t->cause.status.ok()
                        ? Status::Internal("tenant quarantined: " +
                                           t->cause.ToString())
                        : t->cause.status;
    t->session.reset();
    t->pin.Release();
    return status;
  }
  Result<SessionReport> drained = t->session->Drain();
  t->session.reset();
  t->pin.Release();  // may retire the epoch right now
  if (!drained.ok()) return drained.status();
  TenantReport report;
  report.tenant = t->id;
  report.epoch = t->epoch;
  report.session = std::move(drained).value();
  return report;
}

size_t DetectorService::RunWatchdogScan() {
  watchdog_scans_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::shared_ptr<Tenant>> snapshot;
  {
    MutexLock table_lock(&mu_);
    snapshot.reserve(tenants_.size());
    for (auto& [id, tenant] : tenants_) snapshot.push_back(tenant);
  }
  size_t newly_quarantined = 0;
  for (auto& t : snapshot) {
    MutexLock tenant_lock(&t->mu);
    if (t->quarantined || t->session == nullptr) continue;
    const size_t shards = t->session->num_shards();
    t->last_consumed.resize(shards, 0);
    t->last_backlogged.resize(shards, false);
    size_t stuck_shard = ShardFaultPlan::kNoShard;
    for (size_t i = 0; i < shards; ++i) {
      const uint64_t consumed = t->session->shard_consumed(i);
      const bool backlogged = t->session->shard_backlog(i) > 0;
      // Stuck = work queued across two consecutive scans with a frozen
      // consumed heartbeat. The first scan only baselines.
      if (t->scanned_once && backlogged && t->last_backlogged[i] &&
          consumed == t->last_consumed[i] &&
          stuck_shard == ShardFaultPlan::kNoShard) {
        stuck_shard = i;
      }
      t->last_consumed[i] = consumed;
      t->last_backlogged[i] = backlogged;
    }
    t->scanned_once = true;
    if (stuck_shard != ShardFaultPlan::kNoShard) {
      QuarantineCause cause;
      cause.kind = QuarantineCause::Kind::kStuckShard;
      cause.shard = stuck_shard;
      cause.status = Status::Internal(
          "shard " + std::to_string(stuck_shard) +
          " made no progress across two watchdog scans with a non-empty "
          "backlog");
      Quarantine(t.get(), std::move(cause));
      ++newly_quarantined;
    }
  }
  return newly_quarantined;
}

Result<QuarantineCause> DetectorService::cause(TenantId tenant) const {
  std::shared_ptr<Tenant> t = FindTenant(tenant);
  if (t == nullptr) {
    return Status::NotFound("unknown tenant " + std::to_string(tenant));
  }
  MutexLock lock(&t->mu);
  if (!t->quarantined) {
    return Status::FailedPrecondition(
        "tenant " + std::to_string(tenant) + " is not quarantined");
  }
  return t->cause;
}

size_t DetectorService::num_tenants() const {
  MutexLock lock(&mu_);
  return tenants_.size();
}

DetectorServiceStats DetectorService::stats() const {
  DetectorServiceStats stats;
  stats.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  stats.sessions_rejected =
      sessions_rejected_.load(std::memory_order_relaxed);
  stats.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  stats.events_accepted = events_accepted_.load(std::memory_order_relaxed);
  stats.events_shed = events_shed_.load(std::memory_order_relaxed);
  stats.tenants_quarantined =
      tenants_quarantined_.load(std::memory_order_relaxed);
  stats.watchdog_scans = watchdog_scans_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace wiclean
