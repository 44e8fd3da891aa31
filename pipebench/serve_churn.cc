// Workload serve_churn: the online detector service under session churn and
// snapshot hot-swaps.
//
// Set-up: synthesize a four-domain corpus (3 years). Snapshot epoch A holds
// the generator's expert patterns, one entry per (expert, year) window, so
// no mining runs and mining changes predict no change here; epoch B is its
// even-indexed subset. A batch PartialUpdateDetector run over A gives the
// expected alert set of every pattern. The corpus becomes one canonical,
// time-ordered event stream.
//
// Two tenant slots, one shard each, driven by one generator thread (the
// calling thread). Each slot loops: OpenSession (pins the current epoch) ->
// Feed the whole stream -> CloseSession. Slot 1 starts half a stream after
// slot 0, so closes and opens of one slot land in the middle of the other's
// feed. PublishSnapshot alternates B and A every third of a stream.
//
//  Phase 1, open loop: events are due at a fixed offered rate (kOfferedRate,
//  about half the closed-loop capacity measured on the baseline commit),
//  split evenly between the slots. A Feed shed by the service's deadline is
//  retried; every event is timed from its due time.
//  Phase 2, closed loop: a second service with blocking feeds; the generator
//  feeds as fast as the service accepts.
//
// Set-up and the closed loop are timed in CPU seconds of the whole process
// (generator and shard threads); the closed-loop sessions also in wall
// seconds.
//
// Gates: every closed session's alert set equals the batch detector's on
// the session's pinned epoch, every event of the stream was accepted, no
// tenant was quarantined, and every retired epoch was freed.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/partial.h"
#include "harness.h"
#include "serve/detector_service.h"
#include "serve/pattern_store.h"
#include "synth/synthesizer.h"

namespace pipebench {

using namespace wiclean;

namespace {

constexpr int kSetups = 15;
constexpr int kLift = 1;
constexpr size_t kSlots = 2;
// Events per second offered in phase 1, across both slots.
constexpr double kOfferedRate = 200000;

struct Prepared {
  SynthWorld world;
  PatternSnapshot epoch_a;
  PatternSnapshot epoch_b;
  std::vector<std::string> expected_a;  // batch fingerprints, per pattern
  std::vector<std::string> expected_b;
  std::vector<std::pair<Action, uint64_t>> feed;
};

Status Setup(const RunOptions& opts, Tracer* tracer, Recorder* rec,
             Prepared* out) {
  ScopedSpan span(tracer, "setup");
  SynthOptions synth;
  synth.seed_entities = opts.tiny ? 20 : 150;
  synth.years = 3;
  synth.rng_seed = opts.seed;
  synth.cinema = true;
  synth.politics = true;
  synth.software = true;
  Result<SynthWorld> world = [&] {
    ScopedSpan s(tracer, "synth.Synthesize");
    return Synthesize(synth);
  }();
  if (!world.ok()) return world.status();

  PatternSnapshot& a = out->epoch_a;
  a.provenance.corpus_id = "synth:four-domains:experts";
  a.provenance.tool = "pipebench";
  a.provenance.max_abstraction_lift = kLift;
  for (int year = 0; year < synth.years; ++year) {
    for (const ExpertPattern& e : world->ground_truth.expert_patterns) {
      if (e.pattern.num_actions() < 2) continue;
      TimeWindow window = e.windowed ? world->WindowOf(e.window_index, year)
                                     : world->YearWindow(year);
      a.patterns.push_back({e.pattern, window, 0, 0, 0});
    }
  }
  out->epoch_b.provenance = a.provenance;
  out->epoch_b.provenance.corpus_id += ":even-subset";
  for (size_t i = 0; i < a.patterns.size(); i += 2) {
    out->epoch_b.patterns.push_back(a.patterns[i]);
  }

  PartialDetectorOptions detector_options;
  detector_options.max_abstraction_lift = kLift;
  PartialUpdateDetector batch(world->registry.get(), &world->store,
                              detector_options);
  {
    ScopedSpan s(tracer, "core.detect");
    Stopwatch clock;
    size_t partials = 0;
    for (const StoredPattern& sp : a.patterns) {
      ScopedSpan call(tracer, "core.PartialUpdateDetector::Detect");
      rec->Attempt();
      Result<PartialUpdateReport> report = batch.Detect(sp.pattern, sp.window);
      if (!report.ok()) return report.status();
      out->expected_a.push_back(ReportFingerprint(*report));
      partials += report->partials.size();
    }
    rec->Sum("core.detect_s", clock.Seconds());
    rec->Sum("core.partials", static_cast<double>(partials));
  }
  for (size_t i = 0; i < out->expected_a.size(); i += 2) {
    out->expected_b.push_back(out->expected_a[i]);
  }
  out->feed = CanonicalFeed(*world->registry, world->store);
  out->world = std::move(world).value();
  return Status::OK();
}

/// One tenant slot's current session.
struct Slot {
  TenantId tenant = 0;
  bool open = false;
  bool done = false;     // no further sessions in this phase
  size_t next = 0;       // next event of the stream to feed
  int64_t next_due = 0;  // open loop: due time of event `next`
  int64_t session_start = 0;
  int64_t last_accept = 0;
};

/// What one phase measured. Each session is verified against the batch
/// detector as it closes, and only its counters are kept.
struct PhaseResult {
  std::vector<OnlineDetectorStats> session_stats;
  std::vector<double> shard_util;  // shard busy time / session wall time
  std::vector<double> session_s;   // open -> close returned
  std::vector<double> drain_ms;    // last accepted feed -> close returned
  std::vector<double> open_ms;
  std::vector<double> close_ms;
  std::vector<double> publish_ms;
  LatencyHistogram ack;   // due -> accepted (open loop)
  LatencyHistogram feed;  // the accepted Feed call
  LatencyHistogram lag;   // due -> Feed called (open loop)
  uint64_t events = 0;
  uint64_t sheds = 0;
  double wall_s = 0;
  double cpu_s = 0;  // process CPU time of the phase, gate checks excluded
  double verify_s = 0;  // generator time spent on the alert-set gate
  double verify_cpu_s = 0;
};

/// The gate on one closed session: every event of the stream accepted, and
/// the alert set equal to the batch detector's on the pinned epoch.
Status VerifySession(const TenantReport& report,
                     const std::vector<std::string>* want,
                     size_t stream_events) {
  if (want == nullptr) return GateFailure("a session pinned an unknown epoch");
  if (report.session.events_fed != stream_events) {
    return GateFailure("session " + std::to_string(report.tenant) +
                       " accepted " +
                       std::to_string(report.session.events_fed) + " of " +
                       std::to_string(stream_events) + " events");
  }
  bool match = report.session.alerts.size() == want->size();
  for (size_t i = 0; match && i < want->size(); ++i) {
    match = report.session.alerts[i].pattern_id == i &&
            ReportFingerprint(report.session.alerts[i].report) == (*want)[i];
  }
  if (!match) {
    return GateFailure("session " + std::to_string(report.tenant) +
                       " alert set != batch detector on epoch " +
                       std::to_string(report.epoch));
  }
  return Status::OK();
}

class PhaseRunner {
 public:
  PhaseRunner(const Prepared& prep, Tracer* tracer, Recorder* rec, bool open_loop,
         bool drop_one)
      : prep_(prep),
        tracer_(tracer),
        rec_(rec),
        open_loop_(open_loop),
        drop_one_(drop_one),
        service_(prep.world.registry.get(), ServiceOptions(open_loop)) {}

  Status Run(double seconds, PhaseResult* out);
  SnapshotRegistryStats registry_stats() const {
    return service_.registry_stats();
  }

 private:
  static DetectorServiceOptions ServiceOptions(bool open_loop) {
    DetectorServiceOptions o;
    o.max_tenants = kSlots;
    o.shards_per_tenant = 1;
    o.tenant_queue_capacity = 256;
    // Phase 1 sheds a feed stuck for 50ms; phase 2 blocks.
    o.feed_deadline_ms = open_loop ? 50 : 0;
    o.detector.detector.max_abstraction_lift = kLift;
    return o;
  }

  void Publish(bool use_b, PhaseResult* out);
  Status Open(Slot* slot, PhaseResult* out);
  Status Close(Slot* slot, PhaseResult* out);

  const Prepared& prep_;
  Tracer* tracer_;
  Recorder* rec_;
  const bool open_loop_;
  bool drop_one_;
  DetectorService service_;
  std::map<EpochId, const std::vector<std::string>*> expected_;
  int64_t phase_span_ = 0;
};

void PhaseRunner::Publish(bool use_b, PhaseResult* out) {
  PatternSnapshot copy = use_b ? prep_.epoch_b : prep_.epoch_a;
  ScopedSpan span(tracer_, "serve.PublishSnapshot", 0, phase_span_);
  Stopwatch clock;
  EpochId epoch = service_.PublishSnapshot(std::move(copy));
  out->publish_ms.push_back(clock.Seconds() * 1e3);
  rec_->Attempt();
  expected_[epoch] = use_b ? &prep_.expected_b : &prep_.expected_a;
}

Status PhaseRunner::Open(Slot* slot, PhaseResult* out) {
  const int64_t start = NowNs();
  Result<TenantId> tenant = [&] {
    ScopedSpan span(tracer_, "serve.OpenSession", 0, phase_span_);
    return service_.OpenSession();
  }();
  rec_->Attempt();
  if (!tenant.ok()) return tenant.status();
  out->open_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
  slot->tenant = *tenant;
  slot->open = true;
  slot->next = 0;
  slot->session_start = start;
  return Status::OK();
}

Status PhaseRunner::Close(Slot* slot, PhaseResult* out) {
  const int64_t start = NowNs();
  Result<TenantReport> report = [&] {
    ScopedSpan span(tracer_, "serve.CloseSession", slot->tenant, phase_span_);
    return service_.CloseSession(slot->tenant);
  }();
  rec_->Attempt();
  const int64_t end = NowNs();
  if (!report.ok()) return report.status();
  tracer_->RecordInterval("serve.session", slot->session_start, end,
                          phase_span_, slot->tenant);
  out->close_ms.push_back(static_cast<double>(end - start) / 1e6);
  out->drain_ms.push_back(static_cast<double>(end - slot->last_accept) / 1e6);
  const double session_s =
      static_cast<double>(end - slot->session_start) / 1e9;
  double busy = 0;
  for (double b : report->session.shard_busy_seconds) busy += b;
  out->session_s.push_back(session_s);
  out->shard_util.push_back(busy / session_s);
  out->session_stats.push_back(report->session.stats);
  slot->open = false;
  Stopwatch verify_clock;
  CpuStopwatch verify_cpu(CpuStopwatch::Scope::kThread);
  auto it = expected_.find(report->epoch);
  Status verified = VerifySession(
      *report, it == expected_.end() ? nullptr : it->second, prep_.feed.size());
  out->verify_s += verify_clock.Seconds();
  out->verify_cpu_s += verify_cpu.Seconds();
  return verified;
}

Status PhaseRunner::Run(double seconds, PhaseResult* out) {
  ScopedSpan phase(tracer_, open_loop_ ? "serve.phase_open_loop"
                                       : "serve.phase_closed_loop");
  phase_span_ = phase.id();
  const CpuStopwatch cpu(CpuStopwatch::Scope::kProcess);
  const std::vector<std::pair<Action, uint64_t>>& feed = prep_.feed;
  const size_t n = feed.size();
  const size_t publish_every = std::max<size_t>(n / 3, 1);
  const int64_t interval_ns =
      static_cast<int64_t>(1e9 * static_cast<double>(kSlots) / kOfferedRate);

  Publish(/*use_b=*/false, out);
  bool next_publish_b = true;
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e9);
  std::vector<Slot> slots(kSlots);
  // Slot s starts s/kSlots of a stream late: in the open loop by schedule,
  // in the closed loop once slot 0 has fed that far.
  for (size_t s = 0; s < kSlots; ++s) {
    slots[s].next_due = t0 + static_cast<int64_t>(s * n / kSlots) * interval_ns;
  }
  Status status = Open(&slots[0], out);
  if (!status.ok()) return status;

  uint64_t delivered = 0;
  size_t turn = 0;
  for (;;) {
    // Choose the slot to serve next: earliest due (open loop) or round
    // robin over the open slots (closed loop).
    Slot* slot = nullptr;
    if (open_loop_) {
      for (Slot& s : slots) {
        if (!s.done && (slot == nullptr || s.next_due < slot->next_due)) {
          slot = &s;
        }
      }
    } else {
      for (size_t k = 0; k < kSlots && slot == nullptr; ++k) {
        Slot& s = slots[(turn + k) % kSlots];
        if (s.open) slot = &s;
      }
      ++turn;
    }
    if (slot == nullptr) break;

    if (!slot->open) {
      // Only the open loop gets here: a slot whose first session is due.
      while (NowNs() < slot->next_due) {
      }
      status = Open(slot, out);
      if (!status.ok()) return status;
    }
    const auto& [action, sequence] = feed[slot->next];
    const bool drop = drop_one_ && slot->next == n / 2;
    if (drop) {
      drop_one_ = false;  // the deliberately lost event
    } else {
      if (open_loop_) {
        while (NowNs() < slot->next_due) {
        }
      }
      const int64_t call = NowNs();
      FeedResult r = service_.Feed(slot->tenant, action, sequence);
      int64_t attempt = call;
      while (r == FeedResult::kOverloaded) {
        ++out->sheds;
        attempt = NowNs();
        r = service_.Feed(slot->tenant, action, sequence);
      }
      const int64_t accepted = NowNs();
      if (r != FeedResult::kOk) {
        return GateFailure("a feed was not accepted (tenant quarantined or "
                           "unknown)");
      }
      ++out->events;
      slot->last_accept = accepted;
      out->feed.Add(accepted - attempt);
      if (open_loop_) {
        out->ack.Add(accepted - slot->next_due);
        out->lag.Add(call - slot->next_due);
      }
    }
    ++slot->next;
    slot->next_due += interval_ns;
    if (++delivered % publish_every == 0) {
      Publish(next_publish_b, out);
      next_publish_b = !next_publish_b;
    }
    if (!open_loop_) {
      // Stagger: the next closed-loop slot opens once slot 0 is that far in.
      for (size_t s = 1; s < kSlots; ++s) {
        if (!slots[s].open && !slots[s].done && slots[s].session_start == 0 &&
            &slots[0] == slot && slots[0].next == s * n / kSlots) {
          status = Open(&slots[s], out);
          if (!status.ok()) return status;
        }
      }
    }
    if (slot->next == n) {
      status = Close(slot, out);
      if (!status.ok()) return status;
      if (NowNs() >= deadline) {
        slot->done = true;
      } else if (!open_loop_) {
        status = Open(slot, out);
        if (!status.ok()) return status;
      } else {
        slot->next = 0;  // reopens when its next event is due
      }
    }
  }
  out->wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  out->cpu_s = cpu.Seconds() - out->verify_cpu_s;
  return Status::OK();
}

Status CheckEpochs(const SnapshotRegistryStats& epochs, Recorder* rec) {
  if (epochs.outstanding_pins != 0 || epochs.live_epochs != 1 ||
      epochs.snapshots_freed != epochs.epochs_retired ||
      epochs.epochs_retired + 1 != epochs.epochs_published) {
    return GateFailure(
        "epoch accounting: published=" +
        std::to_string(epochs.epochs_published) +
        " retired=" + std::to_string(epochs.epochs_retired) +
        " freed=" + std::to_string(epochs.snapshots_freed) +
        " live=" + std::to_string(epochs.live_epochs) +
        " pins=" + std::to_string(epochs.outstanding_pins));
  }
  rec->Sum("serve.epochs_freed", static_cast<double>(epochs.snapshots_freed));
  return Status::OK();
}

}  // namespace

Status RunServeChurn(const RunOptions& opts, Tracer* tracer, Recorder* rec) {
  Prepared prep;
  for (int i = 0; i < kSetups; ++i) {
    Prepared fresh;
    CpuStopwatch cpu(CpuStopwatch::Scope::kProcess);
    Status status = Setup(opts, tracer, rec, &fresh);
    if (!status.ok()) return status;
    rec->Sum("setup_s", cpu.Seconds());
    rec->Flush();
    prep = std::move(fresh);
  }
  const size_t n = prep.feed.size();
  std::fprintf(stderr,
               "serve_churn seed=%llu: %zu events per stream, epoch A %zu "
               "patterns, epoch B %zu, offered rate %.0f events/s\n",
               static_cast<unsigned long long>(opts.seed), n,
               prep.epoch_a.patterns.size(), prep.epoch_b.patterns.size(),
               kOfferedRate);

  // Phase 1: open loop at the fixed offered rate.
  PhaseResult open;
  {
    PhaseRunner runner(prep, tracer, rec, /*open_loop=*/true,
                  /*drop_one=*/false);
    Status status = runner.Run(opts.seconds / 2, &open);
    if (!status.ok()) return status;
    status = CheckEpochs(runner.registry_stats(), rec);
    if (!status.ok()) return status;
  }
  // Phase 2: closed loop, blocking feeds.
  PhaseResult closed;
  {
    PhaseRunner runner(prep, tracer, rec, /*open_loop=*/false,
                  /*drop_one=*/opts.inject == Inject::kDropEvent);
    Status status = runner.Run(opts.seconds / 2, &closed);
    if (!status.ok()) return status;
    status = CheckEpochs(runner.registry_stats(), rec);
    if (!status.ok()) return status;
  }
  rec->Attempt(open.events + closed.events);

  // The cost of one closed-loop session: the phase's CPU time over the
  // sessions it ran (every session feeds the whole stream; the phase ends
  // when the last one closes). Its wall time: one sample per session.
  rec->Add("pipeline_cpu_s",
           closed.cpu_s / static_cast<double>(closed.session_s.size()));
  for (double s : closed.session_s) rec->Add("pipeline.wall_s", s);
  rec->Add("serve.eps", static_cast<double>(closed.events) / closed.wall_s);
  rec->Add("serve.ack_p50_us", open.ack.QuantileNs(0.50) / 1e3);
  rec->Add("serve.ack_p99_us", open.ack.QuantileNs(0.99) / 1e3);
  rec->Add("gen.lag_p99_ms", open.lag.QuantileNs(0.99) / 1e6);
  rec->Add("serve.feed_us_p50", open.feed.QuantileNs(0.50) / 1e3);
  rec->Add("serve.feed_us_p99", open.feed.QuantileNs(0.99) / 1e3);
  rec->Add("serve.drain_p50_ms", MedianOf(open.drain_ms));
  rec->Add("serve.shed_ratio", static_cast<double>(open.sheds) /
                                   static_cast<double>(open.events));
  for (const PhaseResult* phase : {&open, &closed}) {
    for (double v : phase->open_ms) rec->Add("serve.open_ms", v);
    for (double v : phase->close_ms) rec->Add("serve.close_ms", v);
    for (double v : phase->publish_ms) rec->Add("serve.publish_ms", v);
  }
  uint64_t observed = 0;
  uint64_t matched = 0;
  uint64_t slot_hits = 0;
  uint64_t late = 0;
  for (const PhaseResult* phase : {&open, &closed}) {
    for (const OnlineDetectorStats& st : phase->session_stats) {
      observed += st.events_observed;
      matched += st.events_matched;
      slot_hits += st.slot_hits;
      late += st.late_events;
      rec->Add("serve.finalize_s", st.finalize_seconds);
    }
  }
  for (double u : closed.shard_util) rec->Add("serve.shard_util", u);
  rec->Add("serve.match_ratio", static_cast<double>(matched) /
                                    static_cast<double>(std::max<uint64_t>(
                                        observed, 1)));
  rec->Add("serve.slot_hits_per_event",
           static_cast<double>(slot_hits) /
               static_cast<double>(std::max<uint64_t>(observed, 1)));
  rec->Add("serve.late_events", static_cast<double>(late));
  rec->Flush();
  std::fprintf(stderr,
               "serve_churn seed=%llu: %zu + %zu sessions batch-identical, "
               "%llu + %llu events, %llu shed, %.3f + %.3f s verifying\n",
               static_cast<unsigned long long>(opts.seed),
               open.session_s.size(), closed.session_s.size(),
               static_cast<unsigned long long>(open.events),
               static_cast<unsigned long long>(closed.events),
               static_cast<unsigned long long>(open.sheds), open.verify_s,
               closed.verify_s);
  return Status::OK();
}

}  // namespace pipebench
