// Serving-layer benchmark: replay the three-domain corpus through the
// incremental online detector and compare against the batch sweep.
//
// Measures, into BENCH_serve.json:
//   - batch sweep wall time (PartialUpdateDetector over every snapshot
//     pattern, the offline baseline),
//   - online replay at 1 and 4 feed threads: actions/sec and per-alert
//     finalize latency (mean/max),
//   - dispatch cost per event: inverted PatternIndex lookup vs scanning
//     every pattern action (the index must win on this corpus),
// and self-verifies that the online alert set is identical to the batch
// report set (order-normalized) — exits non-zero on any mismatch.
//
// Usage: online_detect [seed_entities] [output.json]
//   seed_entities  per-domain seed count (default 300)
//   output.json    result file (default: BENCH_serve.json in the CWD)

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/json.h"
#include "common/timer.h"
#include "core/partial.h"
#include "core/window_search.h"
#include "serve/detector_session.h"
#include "serve/pattern_index.h"
#include "serve/pattern_store.h"

using namespace wiclean;
using namespace wiclean::bench;

namespace {

/// Order-normalized fingerprint of one pattern's detection result, used to
/// compare the batch report with the online alert for the same pattern.
std::string ReportFingerprint(const PartialUpdateReport& report) {
  std::vector<std::string> sigs;
  sigs.reserve(report.partials.size());
  for (const PartialRealization& pr : report.partials) {
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

/// The canonical feed the CLI replays: every entity log concatenated in
/// entity-id order, sequence stamped pre-sort, then stably sorted by time —
/// so (time, sequence) reproduces the batch store's tie order.
std::vector<std::pair<Action, uint64_t>> BuildCanonicalFeed(
    const EntityRegistry& registry, const RevisionStore& store) {
  std::vector<std::pair<Action, uint64_t>> events;
  for (EntityId e = 0; e < static_cast<EntityId>(registry.size()); ++e) {
    for (const Action& a : store.LogOf(e)) {
      events.emplace_back(a, static_cast<uint64_t>(events.size()));
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.time < b.first.time;
                   });
  return events;
}

struct OnlineRun {
  size_t threads = 0;
  double wall_seconds = 0;
  double actions_per_second = 0;
  double alert_latency_mean = 0;
  double alert_latency_max = 0;
  uint64_t alerts = 0;
  uint64_t slot_hits = 0;
  bool matches_batch = false;
};

struct DispatchResult {
  double index_seconds = 0;
  double scan_all_seconds = 0;
  uint64_t index_hits = 0;
  uint64_t scan_all_hits = 0;
};

/// Times pure dispatch: for every feed event, find the pattern actions it
/// can realize — once through the inverted index, once by scanning every
/// action of every pattern (what a detector without the index would do).
DispatchResult MeasureDispatch(
    const std::vector<std::pair<Action, uint64_t>>& feed,
    const PatternSnapshot& snapshot, const EntityRegistry& registry,
    const TypeTaxonomy& taxonomy, int lift) {
  DispatchResult result;

  PatternIndex index(&taxonomy, lift);
  for (size_t i = 0; i < snapshot.patterns.size(); ++i) {
    Status status = index.AddPattern(static_cast<uint32_t>(i),
                                     snapshot.patterns[i].pattern);
    if (!status.ok()) {
      std::fprintf(stderr, "index build failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  }

  auto within_lift = [&](TypeId concrete, TypeId general) {
    return taxonomy.IsA(concrete, general) &&
           taxonomy.Depth(concrete) - taxonomy.Depth(general) <= lift;
  };

  Timer timer;
  std::vector<PatternSlot> slots;
  for (const auto& [action, sequence] : feed) {
    (void)sequence;
    TypeId subject_type = registry.TypeOf(action.subject);
    TypeId object_type = registry.TypeOf(action.object);
    if (subject_type == kInvalidTypeId || object_type == kInvalidTypeId) {
      continue;
    }
    index.Lookup(subject_type, action.relation, object_type, &slots);
    result.index_hits += slots.size();
  }
  result.index_seconds = timer.ElapsedSeconds();

  timer.Restart();
  for (const auto& [action, sequence] : feed) {
    (void)sequence;
    TypeId subject_type = registry.TypeOf(action.subject);
    TypeId object_type = registry.TypeOf(action.object);
    if (subject_type == kInvalidTypeId || object_type == kInvalidTypeId) {
      continue;
    }
    for (const StoredPattern& sp : snapshot.patterns) {
      for (const AbstractAction& a : sp.pattern.actions()) {
        if (a.relation != action.relation) continue;
        if (!within_lift(subject_type, sp.pattern.var_type(a.source_var))) {
          continue;
        }
        if (!within_lift(object_type, sp.pattern.var_type(a.target_var))) {
          continue;
        }
        ++result.scan_all_hits;
      }
    }
  }
  result.scan_all_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  SynthOptions synth;
  synth.seed_entities = SizeArg(argc, argv, 300);
  synth.years = 2;
  synth.rng_seed = 2021;
  synth.cinema = true;
  synth.politics = true;
  const char* out_path = argc > 2 ? argv[2] : "BENCH_serve.json";

  Result<SynthWorld> world_or = Synthesize(synth);
  if (!world_or.ok()) {
    std::fprintf(stderr, "%s\n", world_or.status().ToString().c_str());
    return 1;
  }
  SynthWorld world = std::move(world_or).value();
  std::printf("three-domain corpus: %zu seeds/domain, %zu entities, %zu "
              "revision actions\n",
              synth.seed_entities, world.registry->size(),
              world.store.num_actions());

  // Mine each domain and pack everything into one snapshot, round-tripped
  // through the binary store so the replay consumes exactly what `wiclean
  // serve` would.
  constexpr int kLift = 1;
  PatternSnapshot snapshot;
  snapshot.provenance.corpus_id =
      "synth:3domain:seeds=" + std::to_string(synth.seed_entities) +
      ":rng=" + std::to_string(synth.rng_seed);
  snapshot.provenance.tool = "bench/online_detect";
  snapshot.provenance.frequency_threshold = 0.8;
  snapshot.provenance.max_abstraction_lift = kLift;
  snapshot.provenance.max_pattern_actions = 6;
  snapshot.provenance.mine_relative = true;

  const TypeId seed_types[] = {world.types.soccer_player,
                               world.types.film_actor, world.types.senator};
  Timer timer;
  for (TypeId seed_type : seed_types) {
    WindowSearchOptions options;
    options.initial_threshold = snapshot.provenance.frequency_threshold;
    options.miner.max_abstraction_lift = kLift;
    options.miner.max_pattern_actions =
        snapshot.provenance.max_pattern_actions;
    options.mine_relative = snapshot.provenance.mine_relative;
    WindowSearch search(world.registry.get(), &world.store, options);
    Result<WindowSearchResult> result =
        search.Run(seed_type, 0, kSecondsPerYear);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    for (const DiscoveredPattern& dp : result->patterns) {
      // Single-action patterns cannot have partial realizations; the CLI
      // skips them in both batch and online paths, so the bench does too.
      if (dp.mined.pattern.num_actions() < 2) continue;
      snapshot.patterns.push_back({dp.mined.pattern, dp.mined.window,
                                   dp.mined.frequency, dp.mined.support,
                                   dp.threshold});
    }
  }
  double mine_seconds = timer.ElapsedSeconds();

  std::string bytes;
  if (Status s = EncodeSnapshot(snapshot, *world.taxonomy, &bytes); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  Result<PatternSnapshot> decoded = DecodeSnapshot(bytes, *world.taxonomy);
  if (!decoded.ok()) {
    std::fprintf(stderr, "%s\n", decoded.status().ToString().c_str());
    return 1;
  }
  snapshot = std::move(decoded).value();
  std::printf("mined %zu pattern(s) in %.1fs; snapshot %zu bytes\n",
              snapshot.patterns.size(), mine_seconds, bytes.size());
  if (snapshot.patterns.empty()) {
    std::fprintf(stderr, "no patterns mined — corpus too small\n");
    return 1;
  }

  // Batch baseline: the offline detector over every snapshot pattern.
  PartialDetectorOptions detector_options;
  detector_options.max_abstraction_lift = kLift;
  PartialUpdateDetector batch(world.registry.get(), &world.store,
                              detector_options);
  std::vector<std::string> batch_fingerprints(snapshot.patterns.size());
  uint64_t batch_signals = 0;
  timer.Restart();
  for (size_t i = 0; i < snapshot.patterns.size(); ++i) {
    const StoredPattern& sp = snapshot.patterns[i];
    Result<PartialUpdateReport> report = batch.Detect(sp.pattern, sp.window);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    batch_signals += report->partials.size();
    batch_fingerprints[i] = ReportFingerprint(*report);
  }
  double batch_seconds = timer.ElapsedSeconds();
  std::printf("batch sweep: %zu pattern(s), %llu signal(s), %.3fs\n",
              snapshot.patterns.size(),
              static_cast<unsigned long long>(batch_signals), batch_seconds);

  // Online replays.
  std::vector<std::pair<Action, uint64_t>> feed =
      BuildCanonicalFeed(*world.registry, world.store);
  std::vector<OnlineRun> runs;
  bool all_match = true;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    DetectorSessionOptions options;
    options.num_threads = threads;
    options.detector.detector = detector_options;
    DetectorSession session(world.registry.get(), options);
    if (Status s = session.Start(snapshot); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    Timer wall;
    for (const auto& [action, sequence] : feed) {
      if (session.TryFeed(action, sequence) != FeedStatus::kOk) break;
    }
    Result<SessionReport> report = session.Drain();
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }

    OnlineRun run;
    run.threads = threads;
    run.wall_seconds = wall.ElapsedSeconds();
    run.actions_per_second =
        run.wall_seconds > 0 ? feed.size() / run.wall_seconds : 0;
    run.alerts = report->alerts.size();
    run.slot_hits = report->stats.slot_hits;
    double latency_sum = 0;
    for (const OnlineAlert& alert : report->alerts) {
      latency_sum += alert.finalize_seconds;
      run.alert_latency_max =
          std::max(run.alert_latency_max, alert.finalize_seconds);
    }
    run.alert_latency_mean =
        report->alerts.empty() ? 0 : latency_sum / report->alerts.size();

    run.matches_batch = report->alerts.size() == snapshot.patterns.size();
    for (const OnlineAlert& alert : report->alerts) {
      if (alert.pattern_id >= batch_fingerprints.size() ||
          ReportFingerprint(alert.report) !=
              batch_fingerprints[alert.pattern_id]) {
        run.matches_batch = false;
        std::fprintf(stderr,
                     "MISMATCH at %zu thread(s): pattern %u diverges from "
                     "batch\n",
                     threads, alert.pattern_id);
      }
    }
    all_match = all_match && run.matches_batch;
    std::printf(
        "online x%zu: %.3fs (%.0f actions/s), %llu alert(s), finalize "
        "mean %.2fms max %.2fms, batch-identical: %s\n",
        threads, run.wall_seconds, run.actions_per_second,
        static_cast<unsigned long long>(run.alerts),
        1e3 * run.alert_latency_mean, 1e3 * run.alert_latency_max,
        run.matches_batch ? "yes" : "NO");
    runs.push_back(run);
  }

  DispatchResult dispatch = MeasureDispatch(feed, snapshot, *world.registry,
                                            *world.taxonomy, kLift);
  double dispatch_speedup = dispatch.index_seconds > 0
                                ? dispatch.scan_all_seconds /
                                      dispatch.index_seconds
                                : 0;
  std::printf(
      "dispatch over %zu events: index %.3fs vs scan-all %.3fs (%.1fx), "
      "hits %llu/%llu\n",
      feed.size(), dispatch.index_seconds, dispatch.scan_all_seconds,
      dispatch_speedup, static_cast<unsigned long long>(dispatch.index_hits),
      static_cast<unsigned long long>(dispatch.scan_all_hits));
  if (dispatch.index_hits != dispatch.scan_all_hits) {
    std::fprintf(stderr,
                 "MISMATCH: index dispatch and scan-all dispatch disagree\n");
    all_match = false;
  }

  std::ofstream file(out_path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  JsonWriter w(&file, /*pretty=*/true);
  w.BeginObject();
  w.Key("bench");
  w.String("online_detect");
  w.Key("seed_entities");
  w.Int(static_cast<int64_t>(synth.seed_entities));
  w.Key("feed_events");
  w.Int(static_cast<int64_t>(feed.size()));
  w.Key("patterns");
  w.Int(static_cast<int64_t>(snapshot.patterns.size()));
  w.Key("snapshot_bytes");
  w.Int(static_cast<int64_t>(bytes.size()));
  w.Key("batch_sweep_seconds");
  w.Number(batch_seconds);
  w.Key("batch_signals");
  w.Int(static_cast<int64_t>(batch_signals));
  w.Key("online_runs");
  w.BeginArray();
  for (const OnlineRun& run : runs) {
    w.BeginObject();
    w.Key("feed_threads");
    w.Int(static_cast<int64_t>(run.threads));
    w.Key("wall_seconds");
    w.Number(run.wall_seconds);
    w.Key("actions_per_second");
    w.Number(run.actions_per_second);
    w.Key("alerts");
    w.Int(static_cast<int64_t>(run.alerts));
    w.Key("slot_hits");
    w.Int(static_cast<int64_t>(run.slot_hits));
    w.Key("alert_latency_mean_seconds");
    w.Number(run.alert_latency_mean);
    w.Key("alert_latency_max_seconds");
    w.Number(run.alert_latency_max);
    w.Key("matches_batch");
    w.Bool(run.matches_batch);
    w.EndObject();
  }
  w.EndArray();
  w.Key("dispatch");
  w.BeginObject();
  w.Key("index_seconds");
  w.Number(dispatch.index_seconds);
  w.Key("scan_all_seconds");
  w.Number(dispatch.scan_all_seconds);
  w.Key("index_speedup");
  w.Number(dispatch_speedup);
  w.Key("slot_hits");
  w.Int(static_cast<int64_t>(dispatch.index_hits));
  w.EndObject();
  w.EndObject();
  file << "\n";

  if (!all_match) {
    std::fprintf(stderr, "FAILED: online/batch divergence\n");
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return 0;
}
