// The §6.2 "experiments with small data" claim in test form: the incremental
// graph strategy (PM) must consider strictly fewer candidate patterns than
// the full-materialization baseline (PM−inc) on a mixed-domain world, while
// both mine the same patterns; and the hash-join engine must agree with the
// nested-loop engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <tuple>

#include "core/miner.h"
#include "core/window_search.h"
#include "synth/synthesizer.h"

namespace wiclean {
namespace {

class MinerVariantsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SynthOptions o;
    o.seed_entities = 40;
    o.years = 1;
    o.rng_seed = 5;
    o.soccer = true;
    o.cinema = true;
    o.politics = true;
    o.background_entities = 100;
    o.background_edit_rate = 3.0;
    Result<SynthWorld> world = Synthesize(o);
    ASSERT_TRUE(world.ok());
    world_ = std::make_unique<SynthWorld>(std::move(world).value());
  }

  MinerOptions Options(JoinEngineKind join, GraphStrategy graph) const {
    MinerOptions o;
    o.frequency_threshold = 0.4;
    o.join_engine = join;
    o.graph_strategy = graph;
    o.max_abstraction_lift = 1;
    o.max_pattern_actions = 4;
    return o;
  }

  static std::set<std::string> Keys(const std::vector<MinedPattern>& ps) {
    std::set<std::string> out;
    for (const MinedPattern& mp : ps) out.insert(mp.pattern.CanonicalKey());
    return out;
  }

  std::unique_ptr<SynthWorld> world_;
};

TEST_F(MinerVariantsTest, AllFourVariantsAgreeOnPatterns) {
  TimeWindow window = world_->WindowOf(16);  // the transfer window

  std::vector<MineWindowResult> results;
  for (JoinEngineKind join :
       {JoinEngineKind::kHashJoin, JoinEngineKind::kNestedLoop}) {
    for (GraphStrategy graph :
         {GraphStrategy::kIncremental, GraphStrategy::kMaterializeFull}) {
      PatternMiner miner(world_->registry.get(), &world_->store,
                         Options(join, graph));
      Result<MineWindowResult> r =
          miner.MineWindow(world_->types.soccer_player, window);
      ASSERT_TRUE(r.ok());
      results.push_back(std::move(r).value());
    }
  }
  std::set<std::string> reference = Keys(results[0].most_specific);
  EXPECT_FALSE(reference.empty());
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(Keys(results[i].most_specific), reference) << "variant " << i;
  }
}

TEST_F(MinerVariantsTest, IncrementalConsidersFewerCandidates) {
  TimeWindow window = world_->WindowOf(16);

  PatternMiner pm(world_->registry.get(), &world_->store,
                  Options(JoinEngineKind::kHashJoin,
                          GraphStrategy::kIncremental));
  PatternMiner pm_inc(world_->registry.get(), &world_->store,
                      Options(JoinEngineKind::kHashJoin,
                              GraphStrategy::kMaterializeFull));

  Result<MineWindowResult> incremental =
      pm.MineWindow(world_->types.soccer_player, window);
  Result<MineWindowResult> full =
      pm_inc.MineWindow(world_->types.soccer_player, window);
  ASSERT_TRUE(incremental.ok());
  ASSERT_TRUE(full.ok());

  // The full-graph baseline ingests every entity and abstracts every action,
  // so it both reads more logs and weighs more candidates.
  EXPECT_LT(incremental->stats.entities_ingested,
            full->stats.entities_ingested);
  EXPECT_LT(incremental->stats.actions_ingested,
            full->stats.actions_ingested);
  EXPECT_LE(incremental->stats.candidates_considered,
            full->stats.candidates_considered);
  EXPECT_EQ(full->stats.entities_ingested, world_->registry->size());
}

TEST_F(MinerVariantsTest, CandidateCountIndependentOfJoinEngine) {
  TimeWindow window = world_->WindowOf(15);
  PatternMiner hash(world_->registry.get(), &world_->store,
                    Options(JoinEngineKind::kHashJoin,
                            GraphStrategy::kIncremental));
  PatternMiner loop(world_->registry.get(), &world_->store,
                    Options(JoinEngineKind::kNestedLoop,
                            GraphStrategy::kIncremental));
  Result<MineWindowResult> h =
      hash.MineWindow(world_->types.soccer_player, window);
  Result<MineWindowResult> n =
      loop.MineWindow(world_->types.soccer_player, window);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(h->stats.candidates_considered, n->stats.candidates_considered);
}

TEST_F(MinerVariantsTest, SeedVarConstraintTogglable) {
  TimeWindow window = world_->WindowOf(15);  // youth window: dense squads
  MinerOptions constrained = Options(JoinEngineKind::kHashJoin,
                                     GraphStrategy::kIncremental);
  MinerOptions unconstrained = constrained;
  unconstrained.allow_multiple_seed_vars = true;

  PatternMiner a(world_->registry.get(), &world_->store, constrained);
  PatternMiner b(world_->registry.get(), &world_->store, unconstrained);
  Result<MineWindowResult> ra =
      a.MineWindow(world_->types.soccer_player, window);
  Result<MineWindowResult> rb =
      b.MineWindow(world_->types.soccer_player, window);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());

  const TypeTaxonomy& tax = *world_->taxonomy;
  auto max_seed_vars = [&](const std::vector<MinedPattern>& ps) {
    size_t most = 0;
    for (const MinedPattern& mp : ps) {
      size_t seeds = 0;
      for (size_t v = 0; v < mp.pattern.num_vars(); ++v) {
        seeds += tax.Comparable(mp.pattern.var_type(static_cast<int>(v)),
                                world_->types.soccer_player);
      }
      most = std::max(most, seeds);
    }
    return most;
  };
  EXPECT_LE(max_seed_vars(ra->all_frequent), 1u);
  // Unconstrained mining explores at least as many candidates.
  EXPECT_GE(rb->stats.candidates_considered, ra->stats.candidates_considered);
}

// Validation probes read an index that already exists instead of building
// one per probe: window tightening reads the mining context's index, and the
// leverage probes of a window share one probe index that grows by the types
// each probe needs. An index holding more types than the probe needs must
// give the same spans as a fresh per-call index; only row order may differ,
// so spans are compared as sorted multisets.
class ProbeIndexIdentityTest : public MinerVariantsTest {
 protected:
  using SpanRow = std::tuple<EntityId, Timestamp, Timestamp>;

  static std::vector<SpanRow> Sorted(
      const Result<std::vector<PatternMiner::RealizationSpan>>& spans) {
    EXPECT_TRUE(spans.ok()) << spans.status().ToString();
    std::vector<SpanRow> rows;
    if (!spans.ok()) return rows;
    for (const PatternMiner::RealizationSpan& s : *spans) {
      rows.emplace_back(s.seed, s.tmin, s.tmax);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }
};

TEST_F(ProbeIndexIdentityTest, ContextIndexSpansMatchFreshIndex) {
  const TypeId seed = world_->types.soccer_player;
  // Eight weeks around the transfer window: wide enough that the search
  // would tighten inside it.
  const TimeWindow window{world_->WindowOf(14).begin, world_->WindowOf(17).end};
  for (JoinEngineKind join :
       {JoinEngineKind::kHashJoin, JoinEngineKind::kNestedLoop}) {
    for (GraphStrategy graph :
         {GraphStrategy::kIncremental, GraphStrategy::kMaterializeFull}) {
      PatternMiner miner(world_->registry.get(), &world_->store,
                         Options(join, graph));
      Result<MineWindowResult> mined = miner.MineWindow(seed, window);
      ASSERT_TRUE(mined.ok());
      const ActionIndex& shared = mined->context->index;
      size_t multi_action = 0;
      for (const MinedPattern& mp : mined->all_frequent) {
        std::vector<SpanRow> fresh =
            Sorted(miner.EvaluateRealizations(seed, mp.pattern, window));
        EXPECT_FALSE(fresh.empty()) << mp.pattern.CanonicalKey();
        EXPECT_EQ(Sorted(miner.EvaluateRealizations(seed, mp.pattern, shared)),
                  fresh)
            << mp.pattern.CanonicalKey();
        multi_action += mp.pattern.num_actions() > 1 ? 1 : 0;
      }
      EXPECT_GT(multi_action, 0u);

      // One §7 value-bound pattern: bindings filter the shared index's
      // tables before the joins.
      bool bound_checked = false;
      for (const MinedPattern& mp : mined->most_specific) {
        if (bound_checked || mp.pattern.num_actions() < 2) continue;
        Result<std::vector<PatternMiner::ValueSpecificPattern>> bound =
            miner.MineValueSpecific(*mined->context, seed, mp, 0.1);
        ASSERT_TRUE(bound.ok());
        if (bound->empty()) continue;
        const Pattern& bp = bound->front().pattern;
        std::vector<SpanRow> fresh =
            Sorted(miner.EvaluateRealizations(seed, bp, window));
        EXPECT_FALSE(fresh.empty());
        EXPECT_EQ(Sorted(miner.EvaluateRealizations(seed, bp, shared)), fresh)
            << bp.CanonicalKey();
        bound_checked = true;
      }
      EXPECT_TRUE(bound_checked);
    }
  }
}

TEST_F(ProbeIndexIdentityTest, SharedLeverageIndexSpansMatchFreshIndex) {
  const TypeId seed = world_->types.soccer_player;
  WindowSearchOptions so;
  so.miner = Options(JoinEngineKind::kHashJoin, GraphStrategy::kIncremental);
  so.mine_relative = false;
  WindowSearch search(world_->registry.get(), &world_->store, so);
  Result<WindowSearchResult> found = search.Run(seed, 0, kSecondsPerYear);
  ASSERT_TRUE(found.ok());

  for (JoinEngineKind join :
       {JoinEngineKind::kHashJoin, JoinEngineKind::kNestedLoop}) {
    PatternMiner miner(world_->registry.get(), &world_->store,
                       Options(join, GraphStrategy::kIncremental));
    // As in the window search: one probe index for the window probed last,
    // grown by the types each side needs.
    std::optional<ActionIndex> shared;
    size_t sides = 0;
    size_t off_grid = 0;
    for (const DiscoveredPattern& dp : found->patterns) {
      const Pattern& p = dp.mined.pattern;
      const TimeWindow& w = dp.mined.window;
      const size_t n = p.num_actions();
      if (n < 2) continue;
      off_grid += w.begin % so.min_window_width != 0 ? 1 : 0;
      if (!shared.has_value() || !(shared->window() == w)) {
        shared.emplace(world_->registry.get(), &world_->store, w,
                       so.miner.max_abstraction_lift);
      }
      for (uint32_t mask = 1; mask < (1u << (n - 1)); ++mask) {
        std::vector<size_t> side_a, side_b;
        for (size_t i = 0; i < n; ++i) {
          (mask & (1u << i) ? side_a : side_b).push_back(i);
        }
        for (const std::vector<size_t>& side : {side_a, side_b}) {
          Result<Pattern> sub = SubPattern(p, side);
          if (!sub.ok() || !sub->IsConnected()) continue;
          for (TypeId t : sub->DistinctVarTypes()) {
            shared->AddEntitiesOfType(t);
          }
          EXPECT_EQ(Sorted(miner.EvaluateRealizations(seed, *sub, *shared)),
                    Sorted(miner.EvaluateRealizations(seed, *sub, w)))
              << sub->CanonicalKey() << " in " << w.ToString();
          ++sides;
        }
      }
    }
    EXPECT_GT(sides, 0u);
    // Some windows were tightened off the search's grid.
    EXPECT_GT(off_grid, 0u);
  }
}

TEST_F(ProbeIndexIdentityTest, MissingTypeIsFailedPrecondition) {
  const TypeId seed = world_->types.soccer_player;
  const TimeWindow window = world_->WindowOf(16);
  PatternMiner miner(world_->registry.get(), &world_->store,
                     Options(JoinEngineKind::kHashJoin,
                             GraphStrategy::kIncremental));
  Result<MineWindowResult> mined = miner.MineWindow(seed, window);
  ASSERT_TRUE(mined.ok());
  const MinedPattern* probe = nullptr;
  for (const MinedPattern& mp : mined->most_specific) {
    if (mp.pattern.num_actions() > 1) probe = &mp;
  }
  ASSERT_NE(probe, nullptr);
  const Pattern& p = probe->pattern;

  ActionIndex seeds_only(world_->registry.get(), &world_->store, window, 1);
  seeds_only.AddEntitiesOfType(seed);
  Result<std::vector<PatternMiner::RealizationSpan>> spans =
      miner.EvaluateRealizations(seed, p, seeds_only);
  ASSERT_FALSE(spans.ok());
  EXPECT_EQ(spans.status().code(), StatusCode::kFailedPrecondition);
  Result<double> freq = miner.EvaluateFrequency(seed, p, seeds_only);
  ASSERT_FALSE(freq.ok());
  EXPECT_EQ(freq.status().code(), StatusCode::kFailedPrecondition);

  // An index abstracting at another lift holds other entries.
  ActionIndex other_lift(world_->registry.get(), &world_->store, window, 0);
  other_lift.AddAllEntities();
  spans = miner.EvaluateRealizations(seed, p, other_lift);
  ASSERT_FALSE(spans.ok());
  EXPECT_EQ(spans.status().code(), StatusCode::kFailedPrecondition);

  // Once the missing types are held, the probe answers as a fresh one.
  for (TypeId t : p.DistinctVarTypes()) seeds_only.AddEntitiesOfType(t);
  freq = miner.EvaluateFrequency(seed, p, seeds_only);
  ASSERT_TRUE(freq.ok());
  EXPECT_DOUBLE_EQ(*freq, probe->frequency);
}

}  // namespace
}  // namespace wiclean
