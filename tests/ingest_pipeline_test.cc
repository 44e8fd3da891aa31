// Tests for the staged ingestion pipeline (dump/pipeline.h): determinism
// across worker counts, the in-memory PageSource, custom sinks, error
// propagation through the parallel path, and the OrderedMerger it ends in.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dump/ingest.h"
#include "dump/ordered_merger.h"
#include "dump/page_source.h"
#include "dump/pipeline.h"
#include "revision/revision_store.h"
#include "synth/dump_render.h"
#include "synth/synthesizer.h"

namespace wiclean {
namespace {

/// Byte-exact serialization of a store's full contents: every entity's log
/// in log order. Two stores fingerprint equal iff they hold the same actions
/// in the same per-entity order (including tie-break order of equal
/// timestamps, which depends on global insertion order).
std::string Fingerprint(const RevisionStore& store, size_t num_entities) {
  std::string out;
  for (size_t i = 0; i < num_entities; ++i) {
    const std::vector<Action>& log = store.LogOf(static_cast<EntityId>(i));
    if (log.empty()) continue;
    out += "e" + std::to_string(i) + ":";
    for (const Action& a : log) {
      out += (a.op == EditOp::kAdd ? "+" : "-");
      out += std::to_string(a.subject) + "," + a.relation + "," +
             std::to_string(a.object) + "@" + std::to_string(a.time) + ";";
    }
    out += "\n";
  }
  return out;
}

/// A synth world with plenty of churn (reverts / vandalism noise are on by
/// default in the synthesizer), rendered to a MediaWiki-style dump.
struct Corpus {
  SynthWorld world;
  std::string dump_xml;
};

Corpus MakeCorpus(size_t seeds, uint64_t rng_seed) {
  SynthOptions options;
  options.seed_entities = seeds;
  options.years = 1;
  options.rng_seed = rng_seed;
  Result<SynthWorld> world = Synthesize(options);
  EXPECT_TRUE(world.ok());
  std::ostringstream out;
  EXPECT_TRUE(WriteDump(*world, 0, kSecondsPerYear, &out).ok());
  return Corpus{std::move(world).value(), out.str()};
}

TEST(IngestPipelineTest, ParallelIngestIsByteIdenticalToSequential) {
  Corpus corpus = MakeCorpus(40, 11);
  const size_t n = corpus.world.registry->size();

  std::string baseline;
  IngestStats baseline_stats;
  for (size_t threads : {1u, 4u, 8u}) {
    IngestOptions options;
    options.num_threads = threads;
    options.queue_capacity = 8;  // small queue: force backpressure
    RevisionStore store;
    std::istringstream in(corpus.dump_xml);
    Result<IngestStats> stats =
        IngestDump(&in, *corpus.world.registry, &store, options);
    ASSERT_TRUE(stats.ok()) << "threads=" << threads;
    if (threads == 1) {
      baseline = Fingerprint(store, n);
      baseline_stats = *stats;
      EXPECT_GT(stats->actions, 0u);
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(Fingerprint(store, n), baseline) << "threads=" << threads;
      // Counters are merged in page order, so they are deterministic too.
      EXPECT_EQ(stats->pages, baseline_stats.pages);
      EXPECT_EQ(stats->revisions, baseline_stats.revisions);
      EXPECT_EQ(stats->actions, baseline_stats.actions);
      EXPECT_EQ(stats->unknown_pages, baseline_stats.unknown_pages);
      EXPECT_EQ(stats->unresolved_links, baseline_stats.unresolved_links);
    }
  }
}

TEST(IngestPipelineTest, VectorPageSourceMatchesXmlPath) {
  Corpus corpus = MakeCorpus(20, 23);
  const size_t n = corpus.world.registry->size();

  // The synth round-trip path: render the world straight to in-memory pages
  // (no XML detour) ...
  Result<std::vector<DumpPage>> rendered =
      RenderDumpPages(corpus.world, 0, kSecondsPerYear);
  ASSERT_TRUE(rendered.ok());
  std::vector<DumpPage> pages = std::move(rendered).value();
  ASSERT_FALSE(pages.empty());

  // ... then ingest the same corpus through both sources, parallel.
  IngestOptions options;
  options.num_threads = 4;

  RevisionStore from_xml;
  {
    std::istringstream in(corpus.dump_xml);
    XmlPageSource source(&in);
    RevisionStoreSink sink(&from_xml);
    ASSERT_TRUE(RunIngestPipeline(&source, *corpus.world.registry, &sink,
                                  options)
                    .ok());
  }
  RevisionStore from_memory;
  {
    VectorPageSource source(std::move(pages));
    RevisionStoreSink sink(&from_memory);
    ASSERT_TRUE(RunIngestPipeline(&source, *corpus.world.registry, &sink,
                                  options)
                    .ok());
  }
  EXPECT_EQ(Fingerprint(from_xml, n), Fingerprint(from_memory, n));
}

/// A sink that records the sequence numbers it saw, to pin down the ordering
/// guarantee, and can inject a failure.
class RecordingSink : public ActionSink {
 public:
  explicit RecordingSink(int fail_at = -1) : fail_at_(fail_at) {}

  Status Append(PageActions&& batch) override {
    sequences_.push_back(batch.sequence);
    if (fail_at_ >= 0 &&
        batch.sequence == static_cast<uint64_t>(fail_at_)) {
      return Status::Internal("sink failure injected");
    }
    return Status::OK();
  }

  const std::vector<uint64_t>& sequences() const { return sequences_; }

 private:
  int fail_at_;
  std::vector<uint64_t> sequences_;
};

TEST(IngestPipelineTest, SinkSeesStrictlyIncreasingSequences) {
  Corpus corpus = MakeCorpus(25, 7);
  std::istringstream in(corpus.dump_xml);
  XmlPageSource source(&in);
  RecordingSink sink;
  IngestOptions options;
  options.num_threads = 8;
  options.queue_capacity = 4;
  ASSERT_TRUE(
      RunIngestPipeline(&source, *corpus.world.registry, &sink, options).ok());
  ASSERT_FALSE(sink.sequences().empty());
  for (size_t i = 0; i < sink.sequences().size(); ++i) {
    EXPECT_EQ(sink.sequences()[i], i);  // 0, 1, 2, ... with no gaps
  }
}

TEST(IngestPipelineTest, SinkErrorAbortsParallelRunCleanly) {
  Corpus corpus = MakeCorpus(25, 7);
  std::istringstream in(corpus.dump_xml);
  XmlPageSource source(&in);
  RecordingSink sink(/*fail_at=*/3);
  IngestOptions options;
  options.num_threads = 4;
  options.queue_capacity = 2;
  Result<IngestStats> result =
      RunIngestPipeline(&source, *corpus.world.registry, &sink, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  // Ordered merge means nothing past the failing batch reached the sink.
  EXPECT_EQ(sink.sequences().size(), 4u);
}

TEST(IngestPipelineTest, StrictUnknownPageFailsInParallelToo) {
  DumpPage page;
  page.title = "Nobody Registered This";
  std::vector<DumpPage> pages(10, page);
  for (size_t i = 0; i < pages.size(); ++i) pages[i].page_id = i;

  SynthOptions synth_options;
  synth_options.seed_entities = 5;
  Result<SynthWorld> world = Synthesize(synth_options);
  ASSERT_TRUE(world.ok());

  VectorPageSource source(std::move(pages));
  RevisionStore store;
  RevisionStoreSink sink(&store);
  IngestOptions options;
  options.strict_pages = true;
  options.num_threads = 4;
  Result<IngestStats> result =
      RunIngestPipeline(&source, *world->registry, &sink, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.num_actions(), 0u);
}

TEST(IngestPipelineTest, StageTimingsArePopulated) {
  Corpus corpus = MakeCorpus(30, 3);
  for (size_t threads : {1u, 4u}) {
    IngestOptions options;
    options.num_threads = threads;
    RevisionStore store;
    std::istringstream in(corpus.dump_xml);
    Result<IngestStats> stats =
        IngestDump(&in, *corpus.world.registry, &store, options);
    ASSERT_TRUE(stats.ok());
    EXPECT_GE(stats->read_seconds, 0.0);
    EXPECT_GT(stats->parse_seconds, 0.0);  // diffing dominates; never zero
    EXPECT_GE(stats->merge_seconds, 0.0);
    // ToString carries the stage split for CLI / bench reporting.
    EXPECT_NE(stats->ToString().find("parse="), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// OrderedMerger, driven directly: thread counts cannot force an arrival
// order, so out-of-order, skipped, and failing batches are submitted by hand.

void CountBatch(const PageActions& batch, IngestStats* stats) {
  stats->quarantined += batch.quarantine.size();
  if (batch.skipped) {
    ++stats->pages_skipped;
    return;
  }
  ++stats->pages;
  stats->actions += batch.actions.size();
}

/// Position p carries p actions; positions 1 and 3 are skip batches, each
/// with one quarantine record naming its position.
PageActions MergerBatch(uint64_t position) {
  PageActions batch;
  batch.sequence = position;
  if (position == 1 || position == 3) {
    batch.skipped = true;
    QuarantineRecord record;
    record.sequence = position;
    batch.quarantine.push_back(record);
  } else {
    batch.actions.resize(position);
  }
  return batch;
}

TEST(OrderedMergerTest, MergesInPositionOrderAndKeepsTheFirstError) {
  const uint64_t kArrival[] = {2, 0, 3, 1, 6, 4, 5};

  RecordingSink sink;
  MemoryQuarantineSink quarantine;
  OrderedMerger merger(&sink, &quarantine, CountBatch);
  for (uint64_t p : kArrival) EXPECT_TRUE(merger.Submit(p, MergerBatch(p)));
  double merge_seconds = -1.0;
  Result<IngestStats> stats = merger.Finish(&merge_seconds);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(sink.sequences(), (std::vector<uint64_t>{0, 2, 4, 5, 6}));
  ASSERT_EQ(quarantine.records().size(), 2u);
  EXPECT_EQ(quarantine.records()[0].sequence, 1u);
  EXPECT_EQ(quarantine.records()[1].sequence, 3u);
  EXPECT_EQ(stats->pages, 5u);
  EXPECT_EQ(stats->pages_skipped, 2u);
  EXPECT_EQ(stats->quarantined, 2u);
  EXPECT_EQ(stats->actions, 0u + 2 + 4 + 5 + 6);
  EXPECT_GE(merge_seconds, 0.0);

  // The sink fails on position 5 while 6 waits in the reorder buffer: 6 is
  // never appended, and neither a later Fail nor a later Submit replaces
  // the sink's error.
  RecordingSink failing_sink(/*fail_at=*/5);
  MemoryQuarantineSink failing_quarantine;
  OrderedMerger failing(&failing_sink, &failing_quarantine, CountBatch);
  for (uint64_t p : {2, 0, 3, 1, 6, 4}) {
    EXPECT_TRUE(failing.Submit(p, MergerBatch(p)));
  }
  EXPECT_FALSE(failing.Submit(5, MergerBatch(5)));
  failing.Fail(Status::Corruption("reported after the sink failed"));
  EXPECT_FALSE(failing.Submit(7, MergerBatch(7)));
  Result<IngestStats> failed = failing.Finish(&merge_seconds);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_EQ(failing_sink.sequences(), (std::vector<uint64_t>{0, 2, 4, 5}));
  EXPECT_EQ(failing_quarantine.records().size(), 2u);
}

}  // namespace
}  // namespace wiclean
