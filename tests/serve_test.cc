// Serving-layer tests: WCPS snapshot round-trip and corruption handling,
// inverted pattern-index dispatch, and the differential suite proving the
// incremental online detector replays to exactly the batch detector's alert
// set — across three synthetic domains, 1 and 4 feed threads, and in-order
// vs bounded-skew out-of-order delivery.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "core/partial.h"
#include "core/window_search.h"
#include "report/report.h"
#include "serve/detector_service.h"
#include "serve/detector_session.h"
#include "serve/online_detector.h"
#include "serve/pattern_index.h"
#include "serve/pattern_store.h"
#include "synth/synthesizer.h"

namespace wiclean {
namespace {

// ---------------------------------------------------------------------------
// Pattern store.

/// Small fixed taxonomy + a two-action join pattern with one bound variable —
/// exercises every field the WCPS format persists.
class PatternStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    thing_ = *tax_.AddRoot("thing");
    person_ = *tax_.AddType("person", thing_);
    player_ = *tax_.AddType("player", person_);
    club_ = *tax_.AddType("club", thing_);
  }

  PatternSnapshot MakeSnapshot() const {
    PatternSnapshot snapshot;
    snapshot.provenance.corpus_id = "unit-test corpus";
    snapshot.provenance.tool = "serve_test";
    snapshot.provenance.created_unix = 1700000000;
    snapshot.provenance.frequency_threshold = 0.75;
    snapshot.provenance.max_abstraction_lift = 1;
    snapshot.provenance.max_pattern_actions = 6;
    snapshot.provenance.mine_relative = false;

    Pattern p;
    int pl = p.AddVar(player_);
    int c = p.AddVar(club_);
    EXPECT_TRUE(p.AddAction(EditOp::kAdd, pl, "current_club", c).ok());
    EXPECT_TRUE(p.AddAction(EditOp::kAdd, c, "squad", pl).ok());
    EXPECT_TRUE(p.SetSourceVar(pl).ok());
    EXPECT_TRUE(p.BindVar(c, 42).ok());
    snapshot.patterns.push_back(
        StoredPattern{p, TimeWindow{100, 2000}, 0.875, 14, 0.8});

    Pattern q;
    int a = q.AddVar(person_);
    int b = q.AddVar(person_);
    EXPECT_TRUE(q.AddAction(EditOp::kRemove, a, "spouse", b).ok());
    EXPECT_TRUE(q.AddAction(EditOp::kRemove, b, "spouse", a).ok());
    EXPECT_TRUE(q.SetSourceVar(a).ok());
    snapshot.patterns.push_back(
        StoredPattern{q, TimeWindow{0, 500}, 1.0, 3, 0.7});
    return snapshot;
  }

  TypeTaxonomy tax_;
  TypeId thing_, person_, player_, club_;
};

TEST_F(PatternStoreTest, RoundTripIsByteIdentical) {
  PatternSnapshot snapshot = MakeSnapshot();
  std::string bytes;
  ASSERT_TRUE(EncodeSnapshot(snapshot, tax_, &bytes).ok());

  Result<PatternSnapshot> decoded = DecodeSnapshot(bytes, tax_);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->provenance, snapshot.provenance);
  ASSERT_EQ(decoded->patterns.size(), snapshot.patterns.size());
  for (size_t i = 0; i < snapshot.patterns.size(); ++i) {
    const StoredPattern& in = snapshot.patterns[i];
    const StoredPattern& out = decoded->patterns[i];
    EXPECT_EQ(out.pattern.ToString(tax_), in.pattern.ToString(tax_));
    EXPECT_EQ(out.pattern.var_binding(1), in.pattern.var_binding(1));
    EXPECT_EQ(out.window.begin, in.window.begin);
    EXPECT_EQ(out.window.end, in.window.end);
    EXPECT_EQ(out.frequency, in.frequency);
    EXPECT_EQ(out.support, in.support);
    EXPECT_EQ(out.threshold, in.threshold);
  }

  std::string bytes2;
  ASSERT_TRUE(EncodeSnapshot(*decoded, tax_, &bytes2).ok());
  EXPECT_EQ(bytes2, bytes);
}

TEST_F(PatternStoreTest, EncodedBytesArePinned) {
  // Golden digest of the WCPS bytes for the fixed snapshot above, recorded
  // when the format was last changed on purpose. Round-trip identity cannot
  // catch an encoder and decoder that drift together; this can.
  std::string bytes;
  ASSERT_TRUE(EncodeSnapshot(MakeSnapshot(), tax_, &bytes).ok());
  EXPECT_EQ(bytes.size(), 410u);
  EXPECT_EQ(Fnv1a64(bytes), 0x9a114a9cea13be81ULL);
}

TEST_F(PatternStoreTest, EveryTruncationFails) {
  std::string bytes;
  ASSERT_TRUE(EncodeSnapshot(MakeSnapshot(), tax_, &bytes).ok());
  for (size_t len = 0; len < bytes.size(); ++len) {
    Result<PatternSnapshot> r =
        DecodeSnapshot(std::string_view(bytes.data(), len), tax_);
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes decoded";
  }
}

TEST_F(PatternStoreTest, EverySingleBitFlipFails) {
  std::string bytes;
  ASSERT_TRUE(EncodeSnapshot(MakeSnapshot(), tax_, &bytes).ok());
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      Result<PatternSnapshot> r = DecodeSnapshot(corrupt, tax_);
      EXPECT_FALSE(r.ok()) << "flip of byte " << i << " bit " << bit
                           << " decoded";
    }
  }
}

TEST_F(PatternStoreTest, TrailingGarbageFails) {
  std::string bytes;
  ASSERT_TRUE(EncodeSnapshot(MakeSnapshot(), tax_, &bytes).ok());
  bytes += '\0';
  EXPECT_FALSE(DecodeSnapshot(bytes, tax_).ok());
}

TEST_F(PatternStoreTest, UnknownTypeNameFails) {
  std::string bytes;
  ASSERT_TRUE(EncodeSnapshot(MakeSnapshot(), tax_, &bytes).ok());
  TypeTaxonomy other;
  ASSERT_TRUE(other.AddRoot("thing").ok());  // lacks player/club/person
  Result<PatternSnapshot> r = DecodeSnapshot(bytes, other);
  EXPECT_FALSE(r.ok());
}

TEST_F(PatternStoreTest, EncodeRejectsInvalidType) {
  PatternSnapshot snapshot = MakeSnapshot();
  TypeTaxonomy tiny;
  ASSERT_TRUE(tiny.AddRoot("thing").ok());
  std::string bytes;
  EXPECT_FALSE(EncodeSnapshot(snapshot, tiny, &bytes).ok());
}

TEST(Crc32Test, MatchesKnownVector) {
  // The IEEE CRC-32 check value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(PatternStoreFileTest, SaveLoadRoundTrip) {
  TypeTaxonomy tax;
  TypeId thing = *tax.AddRoot("thing");
  TypeId player = *tax.AddType("player", thing);

  PatternSnapshot snapshot;
  snapshot.provenance.corpus_id = "file-test";
  snapshot.provenance.tool = "serve_test";
  Pattern p;
  int a = p.AddVar(player);
  int b = p.AddVar(player);
  ASSERT_TRUE(p.AddAction(EditOp::kAdd, a, "teammate", b).ok());
  ASSERT_TRUE(p.SetSourceVar(a).ok());
  snapshot.patterns.push_back(StoredPattern{p, TimeWindow{0, 100}, 1, 1, 1});

  std::string path = ::testing::TempDir() + "/serve_test_snapshot.wcps";
  ASSERT_TRUE(SaveSnapshotFile(snapshot, tax, path).ok());
  Result<PatternSnapshot> loaded = LoadSnapshotFile(path, tax);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->provenance, snapshot.provenance);
  EXPECT_EQ(loaded->patterns.size(), 1u);

  EXPECT_FALSE(LoadSnapshotFile(path + ".missing", tax).ok());
}

// ---------------------------------------------------------------------------
// Pattern index.

class PatternIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    thing_ = *tax_.AddRoot("thing");
    person_ = *tax_.AddType("person", thing_);
    player_ = *tax_.AddType("player", person_);
    keeper_ = *tax_.AddType("goalkeeper", player_);
    club_ = *tax_.AddType("club", thing_);
  }

  Pattern JoinPattern(TypeId src_type, TypeId dst_type) const {
    Pattern p;
    int a = p.AddVar(src_type);
    int b = p.AddVar(dst_type);
    EXPECT_TRUE(p.AddAction(EditOp::kAdd, a, "current_club", b).ok());
    EXPECT_TRUE(p.AddAction(EditOp::kRemove, b, "squad", a).ok());
    EXPECT_TRUE(p.SetSourceVar(a).ok());
    return p;
  }

  TypeTaxonomy tax_;
  TypeId thing_, person_, player_, keeper_, club_;
};

TEST_F(PatternIndexTest, ExactAndLiftedLookup) {
  PatternIndex index(&tax_, /*max_abstraction_lift=*/1);
  ASSERT_TRUE(index.AddPattern(7, JoinPattern(person_, club_)).ok());
  EXPECT_EQ(index.num_slots(), 2u);

  // Exact type: matches.
  std::vector<PatternSlot> slots =
      index.Lookup(person_, "current_club", club_);
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0], (PatternSlot{7, 0}));

  // One level below the pattern var type: within lift 1.
  EXPECT_EQ(index.Lookup(player_, "current_club", club_).size(), 1u);
  // Two levels below: beyond lift 1 — the batch ActionIndex would not have
  // routed this edit either.
  EXPECT_TRUE(index.Lookup(keeper_, "current_club", club_).empty());
  // More general than the pattern var: never matches.
  EXPECT_TRUE(index.Lookup(thing_, "current_club", club_).empty());
  // Unknown relation.
  EXPECT_TRUE(index.Lookup(person_, "manages", club_).empty());
  // Invalid types are rejected, not UB.
  EXPECT_TRUE(index.Lookup(kInvalidTypeId, "current_club", club_).empty());
}

TEST_F(PatternIndexTest, LookupIsOpAgnostic) {
  // The "squad" action is a *remove*; an incoming add on the same signature
  // must still route to it so inverse edits cancel during reduction.
  PatternIndex index(&tax_, 1);
  ASSERT_TRUE(index.AddPattern(0, JoinPattern(player_, club_)).ok());
  std::vector<PatternSlot> slots = index.Lookup(club_, "squad", player_);
  ASSERT_EQ(slots.size(), 1u);
  EXPECT_EQ(slots[0], (PatternSlot{0, 1}));
}

TEST_F(PatternIndexTest, DeterministicRegistrationOrder) {
  PatternIndex index(&tax_, 0);
  ASSERT_TRUE(index.AddPattern(1, JoinPattern(player_, club_)).ok());
  ASSERT_TRUE(index.AddPattern(2, JoinPattern(player_, club_)).ok());
  std::vector<PatternSlot> slots =
      index.Lookup(player_, "current_club", club_);
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(slots[0].pattern_id, 1u);
  EXPECT_EQ(slots[1].pattern_id, 2u);
}

// ---------------------------------------------------------------------------
// Differential suite: online replay == batch detector.

/// Order-normalized fingerprint of one pattern's detection result.
std::string Fingerprint(const PartialUpdateReport& report) {
  std::vector<std::string> sigs;
  for (const PartialRealization& pr : report.partials) {
    sigs.push_back(pr.Signature());
  }
  std::sort(sigs.begin(), sigs.end());
  std::string out = "full=" + std::to_string(report.full_count);
  for (const std::string& s : sigs) out += "|" + s;
  return out;
}

class DifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SynthOptions synth;
    synth.seed_entities = 60;
    synth.years = 2;
    synth.rng_seed = 2021;
    synth.cinema = true;
    synth.politics = true;
    Result<SynthWorld> world = Synthesize(synth);
    ASSERT_TRUE(world.ok()) << world.status().ToString();
    world_ = new SynthWorld(std::move(world).value());

    snapshot_ = new PatternSnapshot();
    snapshot_->provenance.corpus_id = "differential-test";
    snapshot_->provenance.tool = "serve_test";
    const TypeId seeds[] = {world_->types.soccer_player,
                            world_->types.film_actor, world_->types.senator};
    for (TypeId seed : seeds) {
      WindowSearchOptions options;
      options.initial_threshold = 0.8;
      options.miner.max_abstraction_lift = 1;
      options.miner.max_pattern_actions = 6;
      options.mine_relative = true;
      WindowSearch search(world_->registry.get(), &world_->store, options);
      Result<WindowSearchResult> result =
          search.Run(seed, 0, kSecondsPerYear);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      for (const DiscoveredPattern& dp : result->patterns) {
        if (dp.mined.pattern.num_actions() < 2) continue;
        snapshot_->patterns.push_back({dp.mined.pattern, dp.mined.window,
                                       dp.mined.frequency, dp.mined.support,
                                       dp.threshold});
      }
    }
    ASSERT_FALSE(snapshot_->patterns.empty()) << "corpus mined no patterns";

    // Batch baseline fingerprints, one per snapshot pattern.
    PartialDetectorOptions detector_options;
    detector_options.max_abstraction_lift = 1;
    PartialUpdateDetector batch(world_->registry.get(), &world_->store,
                                detector_options);
    batch_fingerprints_ = new std::vector<std::string>();
    for (const StoredPattern& sp : snapshot_->patterns) {
      Result<PartialUpdateReport> report = batch.Detect(sp.pattern, sp.window);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      batch_fingerprints_->push_back(Fingerprint(*report));
    }
  }

  static void TearDownTestSuite() {
    delete batch_fingerprints_;
    batch_fingerprints_ = nullptr;
    delete snapshot_;
    snapshot_ = nullptr;
    delete world_;
    world_ = nullptr;
  }

  /// Canonical feed: entity logs concatenated in id order, sequence stamped
  /// pre-sort, stably sorted by time (= the batch store's tie order).
  static std::vector<std::pair<Action, uint64_t>> CanonicalFeed() {
    std::vector<std::pair<Action, uint64_t>> events;
    const EntityRegistry& registry = *world_->registry;
    for (EntityId e = 0; e < static_cast<EntityId>(registry.size()); ++e) {
      for (const Action& a : world_->store.LogOf(e)) {
        events.emplace_back(a, static_cast<uint64_t>(events.size()));
      }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const auto& a, const auto& b) {
                       return a.first.time < b.first.time;
                     });
    return events;
  }

  /// Runs the session over `feed` and asserts the merged alert set equals
  /// the batch baseline pattern-by-pattern.
  void ExpectBatchIdentical(
      const std::vector<std::pair<Action, uint64_t>>& feed,
      size_t num_threads, Timestamp allowed_skew) {
    DetectorSessionOptions options;
    options.num_threads = num_threads;
    options.detector.allowed_skew = allowed_skew;
    options.detector.detector.max_abstraction_lift = 1;
    DetectorSession session(world_->registry.get(), options);
    ASSERT_TRUE(session.Start(*snapshot_).ok());
    for (const auto& [action, sequence] : feed) {
      ASSERT_EQ(session.TryFeed(action, sequence), FeedStatus::kOk);
    }
    Result<SessionReport> report = session.Drain();
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    EXPECT_EQ(report->events_fed, feed.size());
    EXPECT_EQ(report->stats.events_observed, feed.size() * num_threads);
    EXPECT_EQ(report->stats.late_events, 0u);
    ASSERT_EQ(report->alerts.size(), snapshot_->patterns.size());
    for (size_t i = 0; i < report->alerts.size(); ++i) {
      const OnlineAlert& alert = report->alerts[i];
      ASSERT_EQ(alert.pattern_id, i) << "alerts not sorted by pattern id";
      EXPECT_EQ(Fingerprint(alert.report), (*batch_fingerprints_)[i])
          << "pattern " << i << " diverges at " << num_threads
          << " thread(s), skew " << allowed_skew;
      EXPECT_EQ(alert.suggestions.size(), alert.report.partials.size());
    }
  }

  static SynthWorld* world_;
  static PatternSnapshot* snapshot_;
  static std::vector<std::string>* batch_fingerprints_;
};

SynthWorld* DifferentialTest::world_ = nullptr;
PatternSnapshot* DifferentialTest::snapshot_ = nullptr;
std::vector<std::string>* DifferentialTest::batch_fingerprints_ = nullptr;

TEST_F(DifferentialTest, InOrderSingleThread) {
  ExpectBatchIdentical(CanonicalFeed(), 1, /*allowed_skew=*/0);
}

TEST_F(DifferentialTest, InOrderFourThreads) {
  ExpectBatchIdentical(CanonicalFeed(), 4, /*allowed_skew=*/0);
}

TEST_F(DifferentialTest, OutOfOrderSingleThread) {
  std::vector<std::pair<Action, uint64_t>> feed = CanonicalFeed();
  // Bounded disorder: each event's *delivery* rank is jittered by up to
  // kSkew seconds while its canonical sequence number is kept, so a
  // detector with allowed_skew >= kSkew must still buffer every event.
  constexpr Timestamp kSkew = 3 * kSecondsPerDay;
  std::mt19937 rng(7);
  std::uniform_int_distribution<Timestamp> jitter(0, kSkew);
  std::vector<std::pair<Timestamp, size_t>> order;
  order.reserve(feed.size());
  for (size_t i = 0; i < feed.size(); ++i) {
    order.emplace_back(feed[i].first.time + jitter(rng), i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<std::pair<Action, uint64_t>> shuffled;
  shuffled.reserve(feed.size());
  for (const auto& [ignored, i] : order) shuffled.push_back(feed[i]);

  ExpectBatchIdentical(shuffled, 1, kSkew);
}

TEST_F(DifferentialTest, OutOfOrderFourThreads) {
  std::vector<std::pair<Action, uint64_t>> feed = CanonicalFeed();
  constexpr Timestamp kSkew = 3 * kSecondsPerDay;
  std::mt19937 rng(13);
  std::uniform_int_distribution<Timestamp> jitter(0, kSkew);
  std::vector<std::pair<Timestamp, size_t>> order;
  order.reserve(feed.size());
  for (size_t i = 0; i < feed.size(); ++i) {
    order.emplace_back(feed[i].first.time + jitter(rng), i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<std::pair<Action, uint64_t>> shuffled;
  shuffled.reserve(feed.size());
  for (const auto& [ignored, i] : order) shuffled.push_back(feed[i]);

  ExpectBatchIdentical(shuffled, 4, kSkew);
}

TEST_F(DifferentialTest, ProvenanceSurvivesStoreAndStampsReports) {
  // Round-trip the mined snapshot through the binary store, then check the
  // JSON detection report carries the provenance block — the path `wiclean
  // serve --json` takes.
  std::string bytes;
  ASSERT_TRUE(
      EncodeSnapshot(*snapshot_, world_->registry->taxonomy(), &bytes).ok());
  Result<PatternSnapshot> decoded =
      DecodeSnapshot(bytes, world_->registry->taxonomy());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->provenance, snapshot_->provenance);

  ReportProvenance provenance;
  provenance.snapshot_format_version = kSnapshotFormatVersion;
  provenance.corpus_id = decoded->provenance.corpus_id;
  provenance.tool = decoded->provenance.tool;
  provenance.created_unix = decoded->provenance.created_unix;
  provenance.frequency_threshold = decoded->provenance.frequency_threshold;
  provenance.max_abstraction_lift = decoded->provenance.max_abstraction_lift;
  provenance.max_pattern_actions = decoded->provenance.max_pattern_actions;
  provenance.mine_relative = decoded->provenance.mine_relative;

  std::ostringstream json;
  ASSERT_TRUE(WriteDetectionReportsJson({}, world_->registry->taxonomy(),
                                        *world_->registry, &json, &provenance)
                  .ok());
  EXPECT_NE(json.str().find("\"provenance\""), std::string::npos);
  EXPECT_NE(json.str().find("\"differential-test\""), std::string::npos);
  EXPECT_NE(json.str().find("\"snapshot_format_version\": 1"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Online detector edge cases.

class OnlineDetectorEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    thing_ = *tax_.AddRoot("thing");
    player_ = *tax_.AddType("player", thing_);
    club_ = *tax_.AddType("club", thing_);
    registry_ = std::make_unique<EntityRegistry>(&tax_);
    p0_ = *registry_->Register("P0", player_);
    c0_ = *registry_->Register("C0", club_);

    Pattern p;
    int a = p.AddVar(player_);
    int b = p.AddVar(club_);
    EXPECT_TRUE(p.AddAction(EditOp::kAdd, a, "current_club", b).ok());
    EXPECT_TRUE(p.AddAction(EditOp::kAdd, b, "squad", a).ok());
    EXPECT_TRUE(p.SetSourceVar(a).ok());
    snapshot_.patterns.push_back(
        StoredPattern{p, TimeWindow{0, 100}, 1, 1, 1});
  }

  Action MakeAction(EntityId subject, const std::string& relation,
                    EntityId object, Timestamp time) const {
    Action a;
    a.subject = subject;
    a.relation = relation;
    a.object = object;
    a.time = time;
    return a;
  }

  TypeTaxonomy tax_;
  TypeId thing_, player_, club_;
  std::unique_ptr<EntityRegistry> registry_;
  EntityId p0_, c0_;
  PatternSnapshot snapshot_;
};

TEST_F(OnlineDetectorEdgeTest, LateEventIsCountedAndDropped) {
  OnlineDetector detector(registry_.get(), OnlineDetectorOptions{});
  ASSERT_TRUE(detector.LoadPatterns(snapshot_).ok());
  std::vector<OnlineAlert> alerts;
  // The watermark jumps past the window end: the pattern finalizes with one
  // routed edit (a partial realization).
  ASSERT_TRUE(
      detector.Observe(MakeAction(p0_, "current_club", c0_, 10), 0, &alerts)
          .ok());
  ASSERT_TRUE(
      detector.Observe(MakeAction(p0_, "noise", c0_, 200), 1, &alerts).ok());
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].report.partials.size(), 1u);
  EXPECT_EQ(detector.stats().late_events, 0u);

  // An in-window event arriving after finalization (disorder beyond the
  // promised skew) is dropped and counted, not crashed on.
  ASSERT_TRUE(
      detector.Observe(MakeAction(c0_, "squad", p0_, 20), 2, &alerts).ok());
  EXPECT_EQ(detector.stats().late_events, 1u);
  EXPECT_EQ(alerts.size(), 1u);
}

TEST_F(OnlineDetectorEdgeTest, CancellingEditsLeaveNoRealization) {
  OnlineDetector detector(registry_.get(), OnlineDetectorOptions{});
  ASSERT_TRUE(detector.LoadPatterns(snapshot_).ok());
  std::vector<OnlineAlert> alerts;
  Action add = MakeAction(p0_, "current_club", c0_, 10);
  Action remove = add;
  remove.op = EditOp::kRemove;
  remove.time = 20;
  ASSERT_TRUE(detector.Observe(add, 0, &alerts).ok());
  ASSERT_TRUE(detector.Observe(remove, 1, &alerts).ok());
  ASSERT_TRUE(detector.FinishStream(&alerts).ok());
  ASSERT_EQ(alerts.size(), 1u);
  // The add and its inverse cancelled during reduction: nothing realized.
  EXPECT_TRUE(alerts[0].report.partials.empty());
  EXPECT_EQ(alerts[0].report.full_count, 0u);
}

TEST_F(OnlineDetectorEdgeTest, ObserveAfterFinishFails) {
  OnlineDetector detector(registry_.get(), OnlineDetectorOptions{});
  ASSERT_TRUE(detector.LoadPatterns(snapshot_).ok());
  std::vector<OnlineAlert> alerts;
  ASSERT_TRUE(detector.FinishStream(&alerts).ok());
  EXPECT_FALSE(
      detector.Observe(MakeAction(p0_, "current_club", c0_, 10), 0, &alerts)
          .ok());
  EXPECT_FALSE(detector.FinishStream(&alerts).ok());
}

// A negative skew would put the watermark ahead of the newest event, so
// windows would finalize early and their later edits be dropped as late:
// online alerts would silently stop matching the batch sweep. Both the
// detector and a service session must refuse it up front.
TEST_F(OnlineDetectorEdgeTest, NegativeSkewIsRejected) {
  OnlineDetectorOptions options;
  options.allowed_skew = -50;
  OnlineDetector detector(registry_.get(), options);
  Status loaded = detector.LoadPatterns(snapshot_);
  EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument) << loaded.ToString();

  DetectorServiceOptions service_options;
  service_options.detector.allowed_skew = -1;
  DetectorService service(registry_.get(), service_options);
  service.PublishSnapshot(snapshot_);
  Result<TenantId> tenant = service.OpenSession();
  ASSERT_FALSE(tenant.ok());
  EXPECT_EQ(tenant.status().code(), StatusCode::kInvalidArgument);

  // Zero skew (the in-order promise) still opens.
  service_options.detector.allowed_skew = 0;
  DetectorService ok_service(registry_.get(), service_options);
  ok_service.PublishSnapshot(snapshot_);
  EXPECT_TRUE(ok_service.OpenSession().ok());
}

TEST_F(OnlineDetectorEdgeTest, ShardPartitionCoversEveryPatternOnce) {
  // Two more patterns so sharding has something to split.
  for (int i = 0; i < 2; ++i) {
    Pattern p;
    int a = p.AddVar(player_);
    int b = p.AddVar(club_);
    ASSERT_TRUE(
        p.AddAction(EditOp::kAdd, a, "loaned_to_" + std::to_string(i), b)
            .ok());
    ASSERT_TRUE(p.AddAction(EditOp::kAdd, b, "squad", a).ok());
    ASSERT_TRUE(p.SetSourceVar(a).ok());
    snapshot_.patterns.push_back(
        StoredPattern{p, TimeWindow{0, 100}, 1, 1, 1});
  }

  std::vector<uint32_t> seen;
  for (size_t shard = 0; shard < 2; ++shard) {
    OnlineDetectorOptions options;
    options.shard_index = shard;
    options.num_shards = 2;
    OnlineDetector detector(registry_.get(), options);
    ASSERT_TRUE(detector.LoadPatterns(snapshot_).ok());
    std::vector<OnlineAlert> alerts;
    ASSERT_TRUE(detector.FinishStream(&alerts).ok());
    for (const OnlineAlert& alert : alerts) seen.push_back(alert.pattern_id);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<uint32_t>{0, 1, 2}));
}

}  // namespace
}  // namespace wiclean
