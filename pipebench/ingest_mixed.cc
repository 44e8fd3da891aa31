// Workload ingest_mixed: the batch ingest job over all four synth domains
// (soccer, cinema, politics, software), 3 years of history. No mining runs.
//
// Set-up: synthesize the world and render it as one XML dump.
//
// One timed pass, the write side then the read side of the same log:
// XML -> RunIngestPipeline (4 parse workers) into a tee of an
// ActionLogWriter and a RevisionStore -> ActionLogWriter::Finish ->
// ReplayActionLog of the fresh WCAL bytes into a new RevisionStore.
//
// Set-up and the pass are timed in CPU seconds of the whole process (all
// parse and replay workers; nothing else runs meanwhile) and the pass also in
// wall seconds.
//
// Gate, every pass: the StoreDigest of the XML ingest equals that of the
// WCAL replay, and equals the first pass's.

#include <cstdio>
#include <sstream>
#include <string>

#include "harness.h"
#include "synth/dump_render.h"
#include "synth/synthesizer.h"

namespace pipebench {

using namespace wiclean;

namespace {

constexpr int kSetups = 3;
constexpr size_t kThreads = 4;  // parse and replay workers, one per core

struct Prepared {
  SynthWorld world;
  std::string xml;
};

Status Setup(const RunOptions& opts, Tracer* tracer, Prepared* out) {
  ScopedSpan span(tracer, "setup");
  SynthOptions synth;
  synth.seed_entities = opts.tiny ? 20 : 1000;
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
  ScopedSpan s(tracer, "synth.WriteDump");
  std::ostringstream dump;
  Status status = WriteDump(*world, 0, synth.years * kSecondsPerYear, &dump);
  if (!status.ok()) return status;
  out->world = std::move(world).value();
  out->xml = dump.str();
  return Status::OK();
}

}  // namespace

Status RunIngestMixed(const RunOptions& opts, Tracer* tracer, Recorder* rec) {
  Prepared prep;
  for (int i = 0; i < kSetups; ++i) {
    Prepared fresh;
    CpuStopwatch cpu(CpuStopwatch::Scope::kProcess);
    Status status = Setup(opts, tracer, &fresh);
    if (!status.ok()) return status;
    rec->Add("setup_s", cpu.Seconds());
    prep = std::move(fresh);
  }
  const EntityId num_entities =
      static_cast<EntityId>(prep.world.registry->size());

  Stopwatch run_clock;
  uint64_t first_digest = 0;
  for (int pass = 0; pass == 0 || run_clock.Seconds() < opts.seconds;
       ++pass) {
    uint64_t ingest_digest = 0;
    uint64_t replay_digest = 0;
    {
      ScopedSpan span(tracer, "pipeline.pass");
      Stopwatch pipeline_clock;
      CpuStopwatch pipeline_cpu(CpuStopwatch::Scope::kProcess);
      IngestOutput ingest;
      Status status =
          IngestXml(prep.xml, *prep.world.registry, kThreads, tracer, rec,
                    &ingest);
      if (!status.ok()) return status;
      if (pass == 0 && opts.inject == Inject::kCorruptWcal) {
        CorruptWcal(&ingest.wcal);
      }
      RevisionStore replayed;
      status = ReplayWcal(ingest.wcal, kThreads, tracer, rec, &replayed);
      if (!status.ok()) return status;
      rec->Sum("pipeline.wall_s", pipeline_clock.Seconds());
      rec->Sum("pipeline_cpu_s", pipeline_cpu.Seconds());
      ingest_digest = StoreDigest(ingest.store, num_entities);
      replay_digest = StoreDigest(replayed, num_entities);
    }
    if (ingest_digest != replay_digest) {
      return GateFailure("WCAL replay StoreDigest != XML ingest StoreDigest");
    }
    if (pass == 0) {
      first_digest = ingest_digest;
      std::fprintf(stderr, "ingest_mixed seed=%llu store digest=%016llx\n",
                   static_cast<unsigned long long>(opts.seed),
                   static_cast<unsigned long long>(ingest_digest));
    } else if (ingest_digest != first_digest) {
      return GateFailure("ingest StoreDigest differs across passes");
    }
    rec->Flush();
  }
  return Status::OK();
}

}  // namespace pipebench
