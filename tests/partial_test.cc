#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/partial.h"
#include "core/window_search.h"
#include "synth/synthesizer.h"

namespace wiclean {
namespace {

/// Same micro-world as miner_test: P0..P3 complete the join pattern, P4 only
/// adds the player-side link, and C2 lists a player who never linked back.
class PartialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    thing_ = *tax_.AddRoot("thing");
    person_ = *tax_.AddType("person", thing_);
    player_ = *tax_.AddType("player", person_);
    club_ = *tax_.AddType("club", thing_);
    league_ = *tax_.AddType("league", thing_);
    registry_ = std::make_unique<EntityRegistry>(&tax_);

    for (int i = 0; i < 6; ++i) {
      players_.push_back(
          *registry_->Register("P" + std::to_string(i), player_));
    }
    for (int i = 0; i < 3; ++i) {
      clubs_.push_back(*registry_->Register("C" + std::to_string(i), club_));
    }

    int clubs_of[] = {0, 0, 1, 2};
    for (int i = 0; i < 4; ++i) {
      Add(players_[i], "current_club", clubs_[clubs_of[i]], 10 + i);
      Add(clubs_[clubs_of[i]], "squad", players_[i], 20 + i);
    }
    // P4: player-side edit only.
    Add(players_[4], "current_club", clubs_[1], 14);
    // C2 lists P5 who never linked back (club-side partial).
    Add(clubs_[2], "squad", players_[5], 25);
  }

  void Add(EntityId subject, const std::string& relation, EntityId object,
           Timestamp time, EditOp op = EditOp::kAdd) {
    Action a;
    a.op = op;
    a.subject = subject;
    a.relation = relation;
    a.object = object;
    a.time = time;
    store_.Add(a);
  }

  Pattern JoinPair() const {
    Pattern p;
    int pl = p.AddVar(player_);
    int c = p.AddVar(club_);
    EXPECT_TRUE(p.AddAction(EditOp::kAdd, pl, "current_club", c).ok());
    EXPECT_TRUE(p.AddAction(EditOp::kAdd, c, "squad", pl).ok());
    EXPECT_TRUE(p.SetSourceVar(pl).ok());
    return p;
  }

  TypeTaxonomy tax_;
  TypeId thing_, person_, player_, club_, league_;
  std::unique_ptr<EntityRegistry> registry_;
  RevisionStore store_;
  std::vector<EntityId> players_, clubs_;
  TimeWindow window_{0, 100};
};

TEST_F(PartialTest, FindsBothDirectionsOfPartialEdits) {
  PartialUpdateDetector detector(registry_.get(), &store_,
                                 PartialDetectorOptions{3, true, 1});
  Result<PartialUpdateReport> report = detector.Detect(JoinPair(), window_);
  ASSERT_TRUE(report.ok());

  EXPECT_EQ(report->full_count, 4u);
  ASSERT_EQ(report->partials.size(), 2u);

  bool player_side = false, club_side = false;
  for (const PartialRealization& pr : report->partials) {
    ASSERT_EQ(pr.missing_actions.size(), 1u);
    if (pr.missing_actions[0] == 1) {
      // P4 did the +current_club edit; the club-side squad edit is missing.
      player_side = true;
      ASSERT_TRUE(pr.bindings[0].has_value());
      EXPECT_EQ(*pr.bindings[0], players_[4]);
      ASSERT_TRUE(pr.bindings[1].has_value());
      EXPECT_EQ(*pr.bindings[1], clubs_[1]);
      EXPECT_EQ(pr.present_actions, std::vector<size_t>{0});
    } else {
      // C2 listed P5; the player-side current_club edit is missing.
      club_side = true;
      EXPECT_EQ(pr.missing_actions[0], 0u);
      ASSERT_TRUE(pr.bindings[0].has_value());
      EXPECT_EQ(*pr.bindings[0], players_[5]);
      ASSERT_TRUE(pr.bindings[1].has_value());
      EXPECT_EQ(*pr.bindings[1], clubs_[2]);
    }
  }
  EXPECT_TRUE(player_side);
  EXPECT_TRUE(club_side);
}

TEST_F(PartialTest, ExamplesComeFromFullRealizations) {
  PartialUpdateDetector detector(registry_.get(), &store_,
                                 PartialDetectorOptions{2, true, 1});
  Result<PartialUpdateReport> report = detector.Detect(JoinPair(), window_);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->examples.size(), 2u);  // capped at max_examples
  for (const std::vector<EntityId>& example : report->examples) {
    ASSERT_EQ(example.size(), 2u);
    EXPECT_TRUE(tax_.IsA(registry_->TypeOf(example[0]), player_));
    EXPECT_TRUE(tax_.IsA(registry_->TypeOf(example[1]), club_));
  }
}

TEST_F(PartialTest, CompletedWithinWindowIsNotSignaled) {
  // P5 links back later within the same window: reduction sees the full
  // pattern, so the club-side partial disappears.
  Add(players_[5], "current_club", clubs_[2], 60);
  PartialUpdateDetector detector(registry_.get(), &store_,
                                 PartialDetectorOptions{3, true, 1});
  Result<PartialUpdateReport> report = detector.Detect(JoinPair(), window_);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->full_count, 5u);
  EXPECT_EQ(report->partials.size(), 1u);  // only P4 remains
}

TEST_F(PartialTest, RevertedEditLeavesNoSignal) {
  // P4's lone edit is reverted within the window: nothing remains.
  Add(players_[4], "current_club", clubs_[1], 70, EditOp::kRemove);
  PartialUpdateDetector detector(registry_.get(), &store_,
                                 PartialDetectorOptions{3, true, 1});
  Result<PartialUpdateReport> report = detector.Detect(JoinPair(), window_);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->partials.size(), 1u);  // only the C2/P5 club-side signal
  EXPECT_EQ(*report->partials[0].bindings[0], players_[5]);
}

TEST_F(PartialTest, ThreeActionChainAttributesMissingMiddle) {
  // Pattern: +cc, +squad, +in_league. P0 has no league edit -> partial
  // missing exactly the league action, with the league variable unbound.
  EntityId ligue = *registry_->Register("L0", league_);
  for (int i = 1; i < 4; ++i) {
    Add(players_[i], "in_league", ligue, 30 + i);
  }

  Pattern p = JoinPair();
  int l = p.AddVar(league_);
  ASSERT_TRUE(p.AddAction(EditOp::kAdd, 0, "in_league", l).ok());

  PartialUpdateDetector detector(registry_.get(), &store_,
                                 PartialDetectorOptions{3, true, 1});
  Result<PartialUpdateReport> report = detector.Detect(p, window_);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->full_count, 3u);  // P1..P3

  bool found_p0 = false;
  for (const PartialRealization& pr : report->partials) {
    if (pr.bindings[0].has_value() && *pr.bindings[0] == players_[0]) {
      found_p0 = true;
      ASSERT_EQ(pr.missing_actions.size(), 1u);
      EXPECT_EQ(pr.missing_actions[0], 2u);
      EXPECT_FALSE(pr.bindings[2].has_value());  // league unbound
    }
  }
  EXPECT_TRUE(found_p0);
}

TEST_F(PartialTest, RejectsInvalidPatterns) {
  PartialUpdateDetector detector(registry_.get(), &store_, {});
  Pattern empty;
  empty.AddVar(player_);
  EXPECT_FALSE(detector.Detect(empty, window_).ok());

  // Disconnected pattern: two actions sharing no variable path from source.
  Pattern disconnected;
  int pl = disconnected.AddVar(player_);
  int c = disconnected.AddVar(club_);
  int pl2 = disconnected.AddVar(player_);
  int c2 = disconnected.AddVar(club_);
  ASSERT_TRUE(
      disconnected.AddAction(EditOp::kAdd, pl, "current_club", c).ok());
  ASSERT_TRUE(
      disconnected.AddAction(EditOp::kAdd, pl2, "current_club", c2).ok());
  ASSERT_TRUE(disconnected.SetSourceVar(pl).ok());
  EXPECT_FALSE(detector.Detect(disconnected, window_).ok());
}

TEST_F(PartialTest, EmptyWindowHasOnlyNoSignals) {
  PartialUpdateDetector detector(registry_.get(), &store_, {});
  Result<PartialUpdateReport> report =
      detector.Detect(JoinPair(), TimeWindow{500, 600});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->full_count, 0u);
  EXPECT_TRUE(report->partials.empty());
}

TEST_F(PartialTest, ValueBoundPatternRestrictsDetection) {
  // Bind the club variable to C1: only C1-related realizations are
  // considered, so the report sees exactly P2's full join and P4's partial.
  Pattern bound = JoinPair();
  ASSERT_TRUE(bound.BindVar(1, clubs_[1]).ok());

  PartialUpdateDetector detector(registry_.get(), &store_,
                                 PartialDetectorOptions{3, true, 1});
  Result<PartialUpdateReport> report = detector.Detect(bound, window_);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->full_count, 1u);  // P2 joined C1 completely
  ASSERT_EQ(report->partials.size(), 1u);
  EXPECT_EQ(*report->partials[0].bindings[0], players_[4]);
  EXPECT_EQ(*report->partials[0].bindings[1], clubs_[1]);
}

TEST_F(PartialTest, SignatureIsStable) {
  PartialRealization pr;
  pr.bindings = {std::optional<EntityId>(4), std::nullopt};
  pr.missing_actions = {1};
  EXPECT_EQ(pr.Signature(), "b:4,_, m:1,");
}

std::vector<std::string> Signatures(const PartialUpdateReport& report) {
  std::vector<std::string> out;
  for (const PartialRealization& pr : report.partials) {
    out.push_back(pr.Signature());
  }
  return out;
}

// Algorithm 3 runs its full outer joins either hash-keyed or by exhaustive
// pairing (use_hash_join = false, the ablation baseline). Both engines must
// report the same partials in the same order, the same full count and the
// same examples — on mined patterns from two domains and on a §7
// value-bound pattern, whose action tables are filtered before the joins.
TEST(PartialEngineIdentityTest, HashAndExhaustiveJoinsReportIdentically) {
  SynthOptions synth;
  synth.seed_entities = 40;
  synth.years = 1;
  synth.rng_seed = 2021;
  synth.soccer = true;
  synth.cinema = true;
  Result<SynthWorld> world = Synthesize(synth);
  ASSERT_TRUE(world.ok()) << world.status().ToString();

  std::vector<std::pair<Pattern, TimeWindow>> cases;
  for (TypeId seed : {world->types.soccer_player, world->types.film_actor}) {
    WindowSearchOptions options;
    options.initial_threshold = 0.8;
    options.miner.max_abstraction_lift = 1;
    WindowSearch search(world->registry.get(), &world->store, options);
    Result<WindowSearchResult> result = search.Run(seed, 0, kSecondsPerYear);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const size_t before = cases.size();
    for (const DiscoveredPattern& dp : result->patterns) {
      if (dp.mined.pattern.num_actions() < 2) continue;
      cases.emplace_back(dp.mined.pattern, dp.mined.window);
    }
    ASSERT_GT(cases.size(), before) << "no multi-action pattern for " << seed;
  }

  PartialDetectorOptions hash_options{
      .max_examples = 3, .use_hash_join = true, .max_abstraction_lift = 1};
  PartialDetectorOptions loop_options = hash_options;
  loop_options.use_hash_join = false;
  PartialUpdateDetector hash_detector(world->registry.get(), &world->store,
                                      hash_options);
  PartialUpdateDetector loop_detector(world->registry.get(), &world->store,
                                      loop_options);

  // Bind the first pattern's non-source variables to one of its complete
  // realizations: a value-bound pattern that is known to be realized.
  Result<PartialUpdateReport> first =
      hash_detector.Detect(cases[0].first, cases[0].second);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_FALSE(first->examples.empty());
  Pattern bound = cases[0].first;
  for (int k = 0; k < static_cast<int>(bound.num_vars()); ++k) {
    if (k == bound.source_var()) continue;
    ASSERT_TRUE(bound.BindVar(k, first->examples[0][k]).ok());
    break;
  }
  ASSERT_TRUE(bound.HasBindings());
  cases.emplace_back(bound, cases[0].second);

  size_t partials = 0;
  for (const auto& [pattern, window] : cases) {
    Result<PartialUpdateReport> hash = hash_detector.Detect(pattern, window);
    Result<PartialUpdateReport> loop = loop_detector.Detect(pattern, window);
    ASSERT_TRUE(hash.ok()) << hash.status().ToString();
    ASSERT_TRUE(loop.ok()) << loop.status().ToString();
    EXPECT_EQ(Signatures(*hash), Signatures(*loop)) << pattern.CanonicalKey();
    EXPECT_EQ(hash->full_count, loop->full_count) << pattern.CanonicalKey();
    EXPECT_EQ(hash->examples, loop->examples) << pattern.CanonicalKey();
    partials += hash->partials.size();
  }
  EXPECT_GT(partials, 0u);
}

}  // namespace
}  // namespace wiclean
