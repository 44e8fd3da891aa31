// Workload mine_soccer: batch mining jobs. A run keeps kJobs jobs busy, one
// per core. Each job repeatedly takes the next world index k, and mines the
// soccer world synthesized with rng seed 1000 * seed + k (500 seeds x 3
// years, ~20k actions) on one thread, until the run's time is up:
//   set-up: synthesize the world, render it as an XML dump, and ingest the
//     dump into in-memory WCAL bytes (teeing a RevisionStore whose
//     StoreDigest the replay must reproduce);
//   one timed pass: WCAL replay -> WindowSearch::Run with relatives ->
//     WCPS snapshot encode/decode -> PartialUpdateDetector::Detect for every
//     pattern of two or more actions -> JSON detection report.
// The run reports the mean pass time over its worlds (about 20 at 30 s), in
// CPU seconds of the job's thread and in wall seconds. Every library call of
// a world runs on its job's thread (one parse, replay and mining thread), so
// the thread's CPU time is all the work of the world.
//
// Why many single-threaded worlds and not one 2000-seed world mined on four
// threads: mining cost differs far more between worlds than between repeats
// of one world (most of it is the last refinement round, whose cost swings
// several-fold with the data). Averaging over many worlds per run is what
// makes the run-to-run spread small enough to bound.
//
// Gates, every world: replay digest == ingest digest; WCPS encode -> decode
// -> encode is byte-identical; pattern precision and recall against the
// soccer expert list are no lower than the recorded floor for the world.
// The mined-pattern, snapshot and alert digests go to standard error.

#include <atomic>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/partial.h"
#include "core/window_search.h"
#include "eval/quality.h"
#include "harness.h"
#include "quality_floor.h"
#include "report/report.h"
#include "serve/pattern_store.h"
#include "synth/dump_render.h"
#include "synth/synthesizer.h"

namespace pipebench {
namespace {

using namespace wiclean;

constexpr int kYears = 3;
constexpr int kLift = 1;
constexpr size_t kJobs = 4;
constexpr size_t kWorldSeeds = 500;

struct Prepared {
  SynthWorld world;
  std::string wcal;
  uint64_t ingest_digest = 0;
};

Status Setup(const RunOptions& opts, uint64_t world_seed, Tracer* tracer,
             Recorder* rec, Prepared* out) {
  ScopedSpan span(tracer, "setup");
  SynthOptions synth;
  synth.seed_entities = opts.tiny ? 60 : kWorldSeeds;
  synth.years = opts.tiny ? 2 : kYears;
  synth.rng_seed = world_seed;
  Result<SynthWorld> world = [&] {
    ScopedSpan s(tracer, "synth.Synthesize");
    return Synthesize(synth);
  }();
  if (!world.ok()) return world.status();
  std::string xml;
  {
    ScopedSpan s(tracer, "synth.WriteDump");
    std::ostringstream dump;
    Status status = WriteDump(*world, 0, synth.years * kSecondsPerYear, &dump);
    if (!status.ok()) return status;
    xml = dump.str();
  }
  IngestOutput ingest;
  Status status = IngestXml(xml, *world->registry, 1, tracer, rec, &ingest);
  if (!status.ok()) return status;
  out->world = std::move(world).value();
  out->wcal = std::move(ingest.wcal);
  out->ingest_digest = StoreDigest(
      ingest.store, static_cast<EntityId>(out->world.registry->size()));
  return Status::OK();
}

struct PassDigests {
  std::string mined;
  std::string snapshot;
  std::string alerts;
};

Status Pass(const Prepared& prep, Tracer* tracer,
            Recorder* rec, std::vector<DiscoveredPattern>* mined_out,
            PassDigests* digests, double* wall_s, double* cpu_s) {
  const SynthWorld& world = prep.world;
  const TypeTaxonomy& taxonomy = *world.taxonomy;
  ScopedSpan pass(tracer, "pipeline.pass");
  Stopwatch pipeline_clock;
  CpuStopwatch pipeline_cpu(CpuStopwatch::Scope::kThread);

  RevisionStore store;
  Status status = ReplayWcal(prep.wcal, 1, tracer, rec, &store);
  if (!status.ok()) return status;

  WindowSearchOptions search_options;
  search_options.miner.max_abstraction_lift = kLift;
  search_options.miner.max_pattern_actions = 6;
  search_options.mine_relative = true;
  WindowSearch search(world.registry.get(), &store, search_options);
  Result<WindowSearchResult> result = [&] {
    ScopedSpan s(tracer, "core.WindowSearch::Run");
    Stopwatch clock;
    rec->Attempt();
    Result<WindowSearchResult> r = search.Run(
        world.types.soccer_player, 0, world.options.years * kSecondsPerYear);
    rec->Sum("core.search_s", clock.Seconds());
    return r;
  }();
  if (!result.ok()) return result.status();

  PatternSnapshot snapshot;
  snapshot.provenance.corpus_id =
      "synth:soccer:seed=" + std::to_string(world.options.rng_seed);
  snapshot.provenance.tool = "pipebench";
  snapshot.provenance.frequency_threshold = search_options.initial_threshold;
  snapshot.provenance.max_abstraction_lift = kLift;
  snapshot.provenance.max_pattern_actions = 6;
  snapshot.provenance.mine_relative = true;
  for (const DiscoveredPattern& dp : result->patterns) {
    snapshot.patterns.push_back({dp.mined.pattern, dp.mined.window,
                                 dp.mined.frequency, dp.mined.support,
                                 dp.threshold});
  }
  std::string wcps;
  {
    ScopedSpan s(tracer, "serve.EncodeSnapshot");
    Stopwatch clock;
    rec->Attempt();
    status = EncodeSnapshot(snapshot, taxonomy, &wcps);
    if (!status.ok()) return status;
    rec->Sum("serve.encode_s", clock.Seconds());
  }
  Result<PatternSnapshot> decoded = [&] {
    ScopedSpan s(tracer, "serve.DecodeSnapshot");
    Stopwatch clock;
    rec->Attempt();
    Result<PatternSnapshot> r = DecodeSnapshot(wcps, taxonomy);
    rec->Sum("serve.decode_s", clock.Seconds());
    return r;
  }();
  if (!decoded.ok()) return decoded.status();

  PartialDetectorOptions detector_options;
  detector_options.max_abstraction_lift = kLift;
  PartialUpdateDetector detector(world.registry.get(), &store,
                                 detector_options);
  std::vector<PartialUpdateReport> reports;
  {
    ScopedSpan s(tracer, "core.detect");
    Stopwatch clock;
    for (const StoredPattern& sp : decoded->patterns) {
      if (sp.pattern.num_actions() < 2) continue;
      ScopedSpan call(tracer, "core.PartialUpdateDetector::Detect");
      rec->Attempt();
      Result<PartialUpdateReport> report = detector.Detect(sp.pattern,
                                                           sp.window);
      if (!report.ok()) return report.status();
      reports.push_back(std::move(report).value());
    }
    rec->Sum("core.detect_s", clock.Seconds());
  }

  std::string report_json;
  {
    ScopedSpan s(tracer, "report.WriteDetectionReportsJson");
    Stopwatch clock;
    ReportProvenance provenance;
    provenance.snapshot_format_version = kSnapshotFormatVersion;
    provenance.corpus_id = decoded->provenance.corpus_id;
    provenance.tool = decoded->provenance.tool;
    provenance.frequency_threshold = decoded->provenance.frequency_threshold;
    provenance.max_abstraction_lift = decoded->provenance.max_abstraction_lift;
    provenance.max_pattern_actions = decoded->provenance.max_pattern_actions;
    provenance.mine_relative = decoded->provenance.mine_relative;
    std::ostringstream out;
    rec->Attempt();
    status = WriteDetectionReportsJson(reports, taxonomy, *world.registry,
                                       &out, &provenance);
    if (!status.ok()) return status;
    report_json = out.str();
    rec->Sum("report.write_s", clock.Seconds());
  }
  *wall_s = pipeline_clock.Seconds();
  *cpu_s = pipeline_cpu.Seconds();

  // Oracle checks and counters, outside the timed pass.
  if (StoreDigest(store, static_cast<EntityId>(world.registry->size())) !=
      prep.ingest_digest) {
    return GateFailure("WCAL replay StoreDigest != XML ingest StoreDigest");
  }
  std::string reencoded;
  status = EncodeSnapshot(*decoded, taxonomy, &reencoded);
  if (!status.ok()) return status;
  if (reencoded != wcps) {
    return GateFailure("WCPS encode -> decode -> encode is not byte-identical");
  }
  std::vector<std::string> mined_keys;
  size_t relatives = 0;
  for (const DiscoveredPattern& dp : result->patterns) {
    mined_keys.push_back(dp.mined.pattern.CanonicalKey() + "@" +
                         std::to_string(dp.mined.window.begin) + "-" +
                         std::to_string(dp.mined.window.end));
    relatives += dp.relatives.size();
    for (const RelativePattern& rp : dp.relatives) {
      mined_keys.push_back("rel:" + rp.pattern.CanonicalKey());
    }
  }
  std::vector<std::string> alert_prints;
  size_t partials = 0;
  for (const PartialUpdateReport& r : reports) {
    alert_prints.push_back(ReportFingerprint(r));
    partials += r.partials.size();
  }
  digests->mined = DigestHex(mined_keys);
  digests->snapshot = DigestHex({wcps});
  digests->alerts = DigestHex(alert_prints);

  const MineWindowStats& st = result->total_stats;
  rec->Sum("core.rounds", static_cast<double>(result->rounds.size()));
  rec->Sum("core.candidates", static_cast<double>(st.candidates_considered));
  rec->Sum("core.frequent", static_cast<double>(st.frequent_patterns));
  rec->Sum("core.entities_read", static_cast<double>(st.entities_ingested));
  rec->Sum("core.actions_read", static_cast<double>(st.actions_ingested));
  rec->Sum("core.patterns", static_cast<double>(result->patterns.size()));
  rec->Sum("core.relatives", static_cast<double>(relatives));
  rec->Sum("core.partials", static_cast<double>(partials));
  rec->Sum("core.hit_ratio",
           static_cast<double>(st.frequent_patterns) /
               static_cast<double>(
                   std::max<size_t>(st.candidates_considered, 1)));
  rec->Sum("serve.snapshot_bytes", static_cast<double>(wcps.size()));
  rec->Sum("report.bytes", static_cast<double>(report_json.size()));
  *mined_out = std::move(result->patterns);
  return Status::OK();
}

/// One mining job: world after world until the run's time is up (at least
/// one world), or until another job failed.
Status MineJob(const RunOptions& opts, const Stopwatch& run_clock,
               std::atomic<uint64_t>* next_world, std::atomic<bool>* failed,
               Tracer* tracer, Recorder* rec, std::vector<double>* pass_wall_s,
               std::vector<double>* pass_cpu_s) {
  for (bool first = true;
       !failed->load() && (first || run_clock.Seconds() < opts.seconds);
       first = false) {
    const uint64_t k = next_world->fetch_add(1);
    const uint64_t world_seed = opts.seed * 1000 + k;
    Prepared prep;
    CpuStopwatch setup_cpu(CpuStopwatch::Scope::kThread);
    Status status = Setup(opts, world_seed, tracer, rec, &prep);
    if (!status.ok()) return status;
    rec->Sum("setup_s", setup_cpu.Seconds());
    if (k == 0 && opts.inject == Inject::kCorruptWcal) CorruptWcal(&prep.wcal);

    std::vector<DiscoveredPattern> mined;
    PassDigests digests;
    double seconds = 0;
    double cpu_seconds = 0;
    status = Pass(prep, tracer, rec, &mined, &digests, &seconds, &cpu_seconds);
    if (!status.ok()) return status;
    pass_wall_s->push_back(seconds);
    pass_cpu_s->push_back(cpu_seconds);

    std::vector<ExpertPattern> experts;
    for (const ExpertPattern& e : prep.world.ground_truth.expert_patterns) {
      if (e.domain == "soccer") experts.push_back(e);
    }
    PatternQualityReport quality =
        EvaluatePatternQuality(mined, experts, *prep.world.taxonomy);
    const QualityFloor floor = FloorFor(opts.tiny, world_seed);
    std::fprintf(stderr,
                 "mine_soccer world %llu: pass %.3fs (%.3fs CPU), digests "
                 "mined=%s snapshot=%s alerts=%s, precision=%.6f recall=%.6f "
                 "(floor %.6f / %.6f)\n",
                 static_cast<unsigned long long>(world_seed), seconds,
                 cpu_seconds, digests.mined.c_str(), digests.snapshot.c_str(),
                 digests.alerts.c_str(), quality.precision, quality.recall,
                 floor.precision, floor.recall);
    if (quality.precision + kQualityFloorSlack < floor.precision ||
        quality.recall + kQualityFloorSlack < floor.recall) {
      return GateFailure("pattern precision/recall below the recorded floor");
    }
    rec->Sum("eval.precision", quality.precision);
    rec->Sum("eval.recall", quality.recall);
    rec->Flush();
  }
  return Status::OK();
}

}  // namespace

Status RunMineSoccer(const RunOptions& opts, Tracer* tracer, Recorder* rec) {
  struct Job {
    Recorder rec;
    std::vector<double> pass_wall_s;
    std::vector<double> pass_cpu_s;
    Status status;
  };
  std::vector<Job> jobs(kJobs);
  std::atomic<uint64_t> next_world{0};
  std::atomic<bool> failed{false};
  const Stopwatch run_clock;
  std::vector<std::thread> threads;
  for (Job& job : jobs) {
    threads.emplace_back([&opts, &run_clock, &next_world, &failed, tracer,
                          &job] {
      job.status = MineJob(opts, run_clock, &next_world, &failed, tracer,
                           &job.rec, &job.pass_wall_s, &job.pass_cpu_s);
      if (!job.status.ok()) failed.store(true);
    });
  }
  for (std::thread& t : threads) t.join();

  double total_wall = 0;
  double total_cpu = 0;
  size_t worlds = 0;
  for (const Job& job : jobs) {
    if (!job.status.ok()) return job.status;
    rec->Merge(job.rec);
    for (double s : job.pass_wall_s) total_wall += s;
    for (double s : job.pass_cpu_s) total_cpu += s;
    worlds += job.pass_wall_s.size();
  }
  rec->Add("pipeline.wall_s", total_wall / static_cast<double>(worlds));
  rec->Add("pipeline_cpu_s", total_cpu / static_cast<double>(worlds));
  return Status::OK();
}

}  // namespace pipebench
