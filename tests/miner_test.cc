#include <gtest/gtest.h>

#include <set>

#include "core/miner.h"

namespace wiclean {
namespace {

/// A hand-built micro-Wikipedia: five players, three clubs, two leagues.
/// Players P0..P3 join clubs with reciprocal squad links; P4's club never
/// linked back (the classic partial edit). P0..P2 also update their league.
class MinerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    thing_ = *tax_.AddRoot("thing");
    person_ = *tax_.AddType("person", thing_);
    player_ = *tax_.AddType("player", person_);
    org_ = *tax_.AddType("org", thing_);
    club_ = *tax_.AddType("club", org_);
    league_ = *tax_.AddType("league", org_);
    registry_ = std::make_unique<EntityRegistry>(&tax_);

    for (int i = 0; i < 5; ++i) {
      players_.push_back(
          *registry_->Register("P" + std::to_string(i), player_));
    }
    for (int i = 0; i < 3; ++i) {
      clubs_.push_back(*registry_->Register("C" + std::to_string(i), club_));
    }
    for (int i = 0; i < 2; ++i) {
      leagues_.push_back(
          *registry_->Register("L" + std::to_string(i), league_));
    }

    // Full join events for P0..P3.
    int clubs_of[] = {0, 0, 1, 2};
    for (int i = 0; i < 4; ++i) {
      Add(players_[i], "current_club", clubs_[clubs_of[i]], 10 + i);
      Add(clubs_[clubs_of[i]], "squad", players_[i], 20 + i);
    }
    // P4: partial (club side missing).
    Add(players_[4], "current_club", clubs_[1], 14);
    // League updates for P0..P2 only.
    for (int i = 0; i < 3; ++i) {
      Add(players_[i], "in_league", leagues_[i % 2], 30 + i);
    }
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

  MinerOptions Options(double threshold) const {
    MinerOptions o;
    o.frequency_threshold = threshold;
    o.max_abstraction_lift = 1;
    return o;
  }

  static const MinedPattern* FindByKey(const std::vector<MinedPattern>& ps,
                                       const Pattern& wanted) {
    std::string key = wanted.CanonicalKey();
    for (const MinedPattern& mp : ps) {
      if (mp.pattern.CanonicalKey() == key) return &mp;
    }
    return nullptr;
  }

  TypeTaxonomy tax_;
  TypeId thing_, person_, player_, org_, club_, league_;
  std::unique_ptr<EntityRegistry> registry_;
  RevisionStore store_;
  std::vector<EntityId> players_, clubs_, leagues_;
  TimeWindow window_{0, 100};
};

TEST_F(MinerTest, FindsReciprocalJoinPattern) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());

  const MinedPattern* pair = FindByKey(result->most_specific, JoinPair());
  ASSERT_NE(pair, nullptr) << "join pattern not mined";
  EXPECT_EQ(pair->support, 4u);
  EXPECT_DOUBLE_EQ(pair->frequency, 0.8);
}

TEST_F(MinerTest, SingletonDominatedByPair) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());

  Pattern singleton;
  int pl = singleton.AddVar(player_);
  int c = singleton.AddVar(club_);
  ASSERT_TRUE(singleton.AddAction(EditOp::kAdd, pl, "current_club", c).ok());
  ASSERT_TRUE(singleton.SetSourceVar(pl).ok());

  // The +current_club singleton is frequent (5/5) but not most specific.
  EXPECT_NE(FindByKey(result->all_frequent, singleton), nullptr);
  EXPECT_EQ(FindByKey(result->most_specific, singleton), nullptr);
}

TEST_F(MinerTest, HighThresholdKeepsOnlySingleton) {
  PatternMiner miner(registry_.get(), &store_, Options(0.9));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());
  // Only the +current_club singleton has frequency 1.0; the pair (0.8) is
  // below threshold.
  ASSERT_FALSE(result->most_specific.empty());
  for (const MinedPattern& mp : result->most_specific) {
    EXPECT_EQ(mp.pattern.num_actions(), 1u);
    EXPECT_DOUBLE_EQ(mp.frequency, 1.0);
  }
}

TEST_F(MinerTest, AbstractLevelsDominatedBySpecific) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());

  // A person-level variant of the join pair is frequent (same support) but
  // must be dominated by the player-level pattern.
  Pattern person_pair;
  int pl = person_pair.AddVar(person_);
  int c = person_pair.AddVar(club_);
  ASSERT_TRUE(
      person_pair.AddAction(EditOp::kAdd, pl, "current_club", c).ok());
  ASSERT_TRUE(person_pair.AddAction(EditOp::kAdd, c, "squad", pl).ok());
  ASSERT_TRUE(person_pair.SetSourceVar(pl).ok());

  EXPECT_NE(FindByKey(result->all_frequent, person_pair), nullptr);
  EXPECT_EQ(FindByKey(result->most_specific, person_pair), nullptr);
}

TEST_F(MinerTest, JoinEnginesAgree) {
  MinerOptions hash_opts = Options(0.7);
  MinerOptions loop_opts = Options(0.7);
  loop_opts.join_engine = JoinEngineKind::kNestedLoop;

  PatternMiner hash_miner(registry_.get(), &store_, hash_opts);
  PatternMiner loop_miner(registry_.get(), &store_, loop_opts);
  Result<MineWindowResult> h = hash_miner.MineWindow(player_, window_);
  Result<MineWindowResult> n = loop_miner.MineWindow(player_, window_);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(n.ok());

  auto keys = [](const std::vector<MinedPattern>& ps) {
    std::set<std::string> out;
    for (const MinedPattern& mp : ps) out.insert(mp.pattern.CanonicalKey());
    return out;
  };
  EXPECT_EQ(keys(h->most_specific), keys(n->most_specific));
  EXPECT_EQ(keys(h->all_frequent), keys(n->all_frequent));
  EXPECT_EQ(h->stats.candidates_considered, n->stats.candidates_considered);
}

TEST_F(MinerTest, GraphStrategiesAgreeOnPatterns) {
  MinerOptions inc = Options(0.7);
  MinerOptions full = Options(0.7);
  full.graph_strategy = GraphStrategy::kMaterializeFull;

  PatternMiner inc_miner(registry_.get(), &store_, inc);
  PatternMiner full_miner(registry_.get(), &store_, full);
  Result<MineWindowResult> a = inc_miner.MineWindow(player_, window_);
  Result<MineWindowResult> b = full_miner.MineWindow(player_, window_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  auto keys = [](const std::vector<MinedPattern>& ps) {
    std::set<std::string> out;
    for (const MinedPattern& mp : ps) out.insert(mp.pattern.CanonicalKey());
    return out;
  };
  EXPECT_EQ(keys(a->most_specific), keys(b->most_specific));
  // The full strategy reads every revision log up front.
  EXPECT_EQ(b->stats.entities_ingested, registry_->size());
  EXPECT_LE(a->stats.entities_ingested, b->stats.entities_ingested);
}

TEST_F(MinerTest, RevertedEditsDoNotSupportPatterns) {
  // P3 reverts the join: net effect empty, so support drops to 3 (< 0.7*5).
  Add(players_[3], "current_club", clubs_[2], 50, EditOp::kRemove);
  Add(clubs_[2], "squad", players_[3], 51, EditOp::kRemove);

  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(FindByKey(result->most_specific, JoinPair()), nullptr);
}

TEST_F(MinerTest, RelativeMiningFindsLeagueExtension) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());
  const MinedPattern* pair = FindByKey(result->most_specific, JoinPair());
  ASSERT_NE(pair, nullptr);

  // +in_league was done by 3 of the 4 joiners: absolute frequency 0.6 (below
  // 0.7), relative frequency 0.75.
  Result<std::vector<RelativePattern>> relatives =
      miner.MineRelative(result->context.get(), player_, *pair, 0.7);
  ASSERT_TRUE(relatives.ok());
  ASSERT_FALSE(relatives->empty());
  bool found = false;
  for (const RelativePattern& rp : *relatives) {
    if (rp.pattern.num_actions() == 3) {
      found = true;
      EXPECT_NEAR(rp.relative_frequency, 0.75, 1e-9);
      EXPECT_EQ(rp.support, 3u);
    }
  }
  EXPECT_TRUE(found) << "league extension not found as relative pattern";
}

TEST_F(MinerTest, RelativeMiningValidatesInputs) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());
  const MinedPattern& base = result->most_specific.front();
  EXPECT_FALSE(miner.MineRelative(nullptr, player_, base, 0.5).ok());
  EXPECT_FALSE(
      miner.MineRelative(result->context.get(), player_, base, 0.0).ok());
  EXPECT_FALSE(
      miner.MineRelative(result->context.get(), player_, base, 1.5).ok());
}

// Realization tables of patterns below the cache floor (0.1) are evicted, so
// an admission threshold under the floor would expand a pattern through an
// empty table. Both admission paths reject such thresholds up front.
TEST_F(MinerTest, AdmissionBelowRealizationCacheFloorRejected) {
  PatternMiner low(registry_.get(), &store_, Options(0.05));
  Result<MineWindowResult> rejected = low.MineWindow(player_, window_);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().ToString().find("realization cache floor"),
            std::string::npos)
      << rejected.status().ToString();

  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());
  const MinedPattern& base = result->most_specific.front();
  // Admission = 0.05 * frequency(base) <= 0.05, below the floor.
  Result<std::vector<RelativePattern>> relative =
      miner.MineRelative(result->context.get(), player_, base, 0.05);
  ASSERT_FALSE(relative.ok());
  EXPECT_EQ(relative.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(relative.status().ToString().find("realization cache floor"),
            std::string::npos)
      << relative.status().ToString();
}

TEST_F(MinerTest, InputValidation) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  EXPECT_FALSE(miner.MineWindow(999, window_).ok());
  EXPECT_FALSE(miner.MineWindow(player_, TimeWindow{10, 10}).ok());
  // league has entities; a type with none:
  TypeId empty_type = *tax_.AddType("empty_type", thing_);
  EXPECT_FALSE(miner.MineWindow(empty_type, window_).ok());
}

TEST_F(MinerTest, EmptyWindowYieldsNoPatterns) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result =
      miner.MineWindow(player_, TimeWindow{1000, 2000});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->most_specific.empty());
  EXPECT_EQ(result->stats.actions_ingested, 0u);
}

TEST_F(MinerTest, EvaluateFrequencyMatchesMining) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());
  const MinedPattern* pair = FindByKey(result->most_specific, JoinPair());
  ASSERT_NE(pair, nullptr);

  Result<double> f = miner.EvaluateFrequency(player_, JoinPair(), window_);
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(*f, pair->frequency);

  // Outside the window: zero.
  Result<double> empty =
      miner.EvaluateFrequency(player_, JoinPair(), TimeWindow{500, 600});
  ASSERT_TRUE(empty.ok());
  EXPECT_DOUBLE_EQ(*empty, 0.0);
}

TEST_F(MinerTest, EvaluateRealizationsSpansCoverActionTimes) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<std::vector<PatternMiner::RealizationSpan>> spans =
      miner.EvaluateRealizations(player_, JoinPair(), window_);
  ASSERT_TRUE(spans.ok());
  std::set<EntityId> seeds;
  for (const PatternMiner::RealizationSpan& s : *spans) {
    seeds.insert(s.seed);
    EXPECT_LE(s.tmin, s.tmax);
    EXPECT_GE(s.tmin, window_.begin);
    EXPECT_LT(s.tmax, window_.end);
    // Join events were emitted at [10+i, 20+i]: spans are ~10 wide.
    EXPECT_EQ(s.tmax - s.tmin, 10);
  }
  EXPECT_EQ(seeds.size(), 4u);

  Pattern empty;
  empty.AddVar(player_);
  EXPECT_FALSE(miner.EvaluateRealizations(player_, empty, window_).ok());
}

TEST_F(MinerTest, ContextReuseAcrossThresholds) {
  // Mine at tau=0.9, then resume the same context at tau=0.7: the pair
  // pattern (freq 0.8) must appear, and cached singletons must not be
  // re-evaluated (incremental candidate count is small).
  PatternMiner high(registry_.get(), &store_, Options(0.9));
  Result<MineWindowResult> first = high.MineWindow(player_, window_);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(FindByKey(first->most_specific, JoinPair()), nullptr);
  size_t first_candidates = first->stats.candidates_considered;

  PatternMiner low(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> second =
      low.MineWindow(player_, window_, first->context);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(FindByKey(second->most_specific, JoinPair()), nullptr);
  // Incremental stats: strictly fewer new candidates than a fresh run.
  Result<MineWindowResult> fresh = low.MineWindow(player_, window_);
  ASSERT_TRUE(fresh.ok());
  EXPECT_LT(second->stats.candidates_considered,
            fresh->stats.candidates_considered);
  EXPECT_GT(first_candidates, 0u);

  // Reusing a context from a different window is rejected.
  EXPECT_FALSE(
      low.MineWindow(player_, TimeWindow{0, 50}, second->context).ok());
}

TEST_F(MinerTest, ReusedContextCountsOnlyNewlyIngestedEntities) {
  // entities_ingested is per call, like actions_ingested: resuming a context
  // counts only the revision logs that call read. With the context's running
  // total, a window search that resumes a context at a lower threshold would
  // count the context's entities once per round. Lift 0 keeps the leagues
  // out until their own pattern is frequent.
  MinerOptions high_options = Options(0.9);
  high_options.max_abstraction_lift = 0;
  MinerOptions low_options = Options(0.6);
  low_options.max_abstraction_lift = 0;
  PatternMiner high(registry_.get(), &store_, high_options);
  Result<MineWindowResult> first = high.MineWindow(player_, window_);
  ASSERT_TRUE(first.ok());
  const ActionIndex& index = first->context->index;
  const size_t first_entities = index.num_entities_ingested();
  const size_t first_actions = index.num_actions_ingested();
  EXPECT_EQ(first->stats.entities_ingested, first_entities);
  EXPECT_EQ(first->stats.actions_ingested, first_actions);

  // At 0.6 the league update (3 of 5 players) becomes frequent, so the
  // resumed call reads the two leagues' logs and nothing else.
  PatternMiner low(registry_.get(), &store_, low_options);
  Result<MineWindowResult> second =
      low.MineWindow(player_, window_, first->context);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(index.num_entities_ingested(), first_entities + leagues_.size());
  EXPECT_EQ(second->stats.entities_ingested, leagues_.size());
  EXPECT_EQ(second->stats.actions_ingested,
            index.num_actions_ingested() - first_actions);

  // Nothing new to read: both counters are zero.
  Result<MineWindowResult> third =
      low.MineWindow(player_, window_, second->context);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->stats.entities_ingested, 0u);
  EXPECT_EQ(third->stats.actions_ingested, 0u);
}

TEST_F(MinerTest, ReusedContextCountsOnlyNewlyFrequentPatterns) {
  // frequent_patterns and abstract_actions are per call too: a window search
  // accumulates every round's stats, so a resumed context must not count
  // the patterns and index entries of its earlier calls again.
  PatternMiner high(registry_.get(), &store_, Options(0.9));
  Result<MineWindowResult> first = high.MineWindow(player_, window_);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->stats.frequent_patterns, first->all_frequent.size());
  const size_t first_entries = first->context->index.entries().size();
  EXPECT_EQ(first->stats.abstract_actions, first_entries);
  std::set<std::string> first_keys;
  for (const MinedPattern& mp : first->all_frequent) {
    first_keys.insert(mp.pattern.CanonicalKey());
  }
  ASSERT_FALSE(first_keys.empty());

  PatternMiner low(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> second =
      low.MineWindow(player_, window_, first->context);
  ASSERT_TRUE(second.ok());
  size_t newly_frequent = 0;
  for (const MinedPattern& mp : second->all_frequent) {
    if (first_keys.count(mp.pattern.CanonicalKey()) == 0) ++newly_frequent;
  }
  ASSERT_GT(newly_frequent, 0u);  // the pair pattern (frequency 0.8)
  EXPECT_EQ(second->stats.frequent_patterns, newly_frequent);
  EXPECT_EQ(second->stats.abstract_actions,
            second->context->index.entries().size() - first_entries);
}

TEST_F(MinerTest, ValueSpecificPatternsFindDominantClub) {
  // C0 hosts half of the joins (P0, P1): at min_value_share 0.5 the club
  // variable specializes to C0; at 0.6 nothing qualifies.
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());
  const MinedPattern* pair = FindByKey(result->most_specific, JoinPair());
  ASSERT_NE(pair, nullptr);

  Result<std::vector<PatternMiner::ValueSpecificPattern>> specific =
      miner.MineValueSpecific(*result->context, player_, *pair, 0.5);
  ASSERT_TRUE(specific.ok());
  ASSERT_EQ(specific->size(), 1u);
  const auto& vs = specific->front();
  EXPECT_EQ(vs.value, clubs_[0]);
  EXPECT_DOUBLE_EQ(vs.share, 0.5);
  EXPECT_EQ(vs.support, 2u);
  EXPECT_DOUBLE_EQ(vs.frequency, 0.4);  // 2 of 5 players
  EXPECT_EQ(vs.pattern.var_binding(vs.var), clubs_[0]);
  EXPECT_TRUE(vs.pattern.HasBindings());

  Result<std::vector<PatternMiner::ValueSpecificPattern>> none =
      miner.MineValueSpecific(*result->context, player_, *pair, 0.6);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  EXPECT_FALSE(miner.MineValueSpecific(*result->context, player_, *pair, 0.0)
                   .ok());
}

TEST_F(MinerTest, BoundPatternIsStrictSpecialization) {
  Pattern free_pattern = JoinPair();
  Pattern bound = free_pattern;
  ASSERT_TRUE(bound.BindVar(1, clubs_[0]).ok());
  EXPECT_NE(bound.CanonicalKey(), free_pattern.CanonicalKey());
  EXPECT_TRUE(IsStrictSpecializationOf(bound, free_pattern, tax_));
  EXPECT_FALSE(IsSpecializationOf(free_pattern, bound, tax_));

  Pattern other_bound = free_pattern;
  ASSERT_TRUE(other_bound.BindVar(1, clubs_[1]).ok());
  EXPECT_FALSE(IsSpecializationOf(bound, other_bound, tax_));
}

TEST_F(MinerTest, BoundPatternFrequencyRestrictsToValue) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Pattern bound = JoinPair();
  ASSERT_TRUE(bound.BindVar(1, clubs_[0]).ok());
  Result<double> f = miner.EvaluateFrequency(player_, bound, window_);
  ASSERT_TRUE(f.ok());
  EXPECT_DOUBLE_EQ(*f, 0.4);  // only P0, P1 joined C0
}

TEST_F(MinerTest, CandidateCountingIsPositive) {
  PatternMiner miner(registry_.get(), &store_, Options(0.7));
  Result<MineWindowResult> result = miner.MineWindow(player_, window_);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.candidates_considered, 0u);
  EXPECT_GT(result->stats.abstract_actions, 0u);
  EXPECT_GT(result->stats.entities_ingested, 0u);
}

}  // namespace
}  // namespace wiclean
