#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>

#include "common/hash.h"
#include "core/window_search.h"
#include "synth/synthesizer.h"

namespace wiclean {
namespace {

class WindowSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SynthOptions o;
    o.seed_entities = 80;
    o.years = 1;
    o.rng_seed = 17;
    Result<SynthWorld> world = Synthesize(o);
    ASSERT_TRUE(world.ok());
    world_ = std::make_unique<SynthWorld>(std::move(world).value());
  }

  WindowSearchOptions Options() const {
    WindowSearchOptions o;
    o.initial_threshold = 0.8;
    o.miner.max_abstraction_lift = 1;
    o.miner.max_pattern_actions = 6;
    o.mine_relative = true;
    o.relative_threshold = 0.5;
    return o;
  }

  std::unique_ptr<SynthWorld> world_;
};

TEST_F(WindowSearchTest, DiscoversWindowedPatternsAcrossRefinement) {
  WindowSearch search(world_->registry.get(), &world_->store, Options());
  Result<WindowSearchResult> result =
      search.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(result.ok());

  ASSERT_GT(result->rounds.size(), 1u);
  // Round parameters follow the alternating x2 / -20% policy within bounds.
  EXPECT_EQ(result->rounds[0].window_width, 2 * kSecondsPerWeek);
  EXPECT_DOUBLE_EQ(result->rounds[0].threshold, 0.8);
  for (size_t i = 1; i < result->rounds.size(); ++i) {
    const RefinementRound& prev = result->rounds[i - 1];
    const RefinementRound& cur = result->rounds[i];
    bool widened = cur.window_width > prev.window_width &&
                   cur.threshold == prev.threshold;
    bool lowered = cur.window_width == prev.window_width &&
                   cur.threshold < prev.threshold;
    EXPECT_TRUE(widened || lowered) << "round " << i;
    EXPECT_LE(cur.window_width, kSecondsPerYear);
    EXPECT_GE(cur.threshold, 0.2 * 0.99);
  }

  // High-occurrence patterns must be found; their discovery windows align
  // with the generator's slots.
  std::set<std::string> relations_seen;
  for (const DiscoveredPattern& dp : result->patterns) {
    for (const AbstractAction& a : dp.mined.pattern.actions()) {
      relations_seen.insert(a.relation);
    }
    // Window tightening may re-localize with up to 10% boundary slack.
    EXPECT_GE(dp.mined.frequency, 0.9 * dp.threshold - 1e-9);
  }
  EXPECT_TRUE(relations_seen.count("current_club") > 0);
  EXPECT_TRUE(relations_seen.count("squad") > 0);
  EXPECT_TRUE(relations_seen.count("award_won") > 0);
}

TEST_F(WindowSearchTest, PatternsDedupedAcrossRounds) {
  WindowSearch search(world_->registry.get(), &world_->store, Options());
  Result<WindowSearchResult> result =
      search.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(result.ok());
  std::set<std::string> keys;
  for (const DiscoveredPattern& dp : result->patterns) {
    EXPECT_TRUE(keys.insert(dp.mined.pattern.CanonicalKey()).second)
        << "duplicate pattern reported";
  }
}

TEST_F(WindowSearchTest, WindowlessPatternsAreMissed) {
  WindowSearch search(world_->registry.get(), &world_->store, Options());
  Result<WindowSearchResult> result =
      search.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(result.ok());
  // The injury/media window-less patterns are too rare at every window size.
  for (const DiscoveredPattern& dp : result->patterns) {
    for (const AbstractAction& a : dp.mined.pattern.actions()) {
      EXPECT_NE(a.relation, "on_injury_list");
      EXPECT_NE(a.relation, "profiled_by");
    }
  }
}

TEST_F(WindowSearchTest, SeedEntityResolvesType) {
  WindowSearch search(world_->registry.get(), &world_->store, Options());
  // Entity 0 is a soccer seed.
  Result<WindowSearchResult> by_entity =
      search.RunForSeedEntity(0, 0, kSecondsPerYear);
  ASSERT_TRUE(by_entity.ok());
  EXPECT_FALSE(by_entity->patterns.empty());
  EXPECT_FALSE(search.RunForSeedEntity(999999, 0, kSecondsPerYear).ok());
}

TEST_F(WindowSearchTest, DegenerateRefinePoliciesTerminate) {
  // (1.0x, 0%) can never refine anything: one round only.
  WindowSearchOptions o = Options();
  o.refine.window_multiplier = 1.0;
  o.refine.threshold_reduction = 0.0;
  WindowSearch search(world_->registry.get(), &world_->store, o);
  Result<WindowSearchResult> result =
      search.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rounds.size(), 1u);
}

TEST_F(WindowSearchTest, ThresholdOnlyPolicySkipsWindowStep) {
  WindowSearchOptions o = Options();
  o.refine.window_multiplier = 1.0;  // window refinement is a no-op
  o.refine.threshold_reduction = 0.2;
  WindowSearch search(world_->registry.get(), &world_->store, o);
  Result<WindowSearchResult> result =
      search.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(result.ok());
  for (const RefinementRound& r : result->rounds) {
    EXPECT_EQ(r.window_width, 2 * kSecondsPerWeek);
  }
}

TEST_F(WindowSearchTest, ParallelAndSerialAgree) {
  // Candidate evaluation is mining's only parallelism; a whole search must
  // find the same patterns at any MinerOptions::num_threads.
  WindowSearchOptions serial = Options();
  serial.miner.num_threads = 1;
  WindowSearchOptions parallel = Options();
  parallel.miner.num_threads = 4;

  WindowSearch s1(world_->registry.get(), &world_->store, serial);
  WindowSearch s2(world_->registry.get(), &world_->store, parallel);
  Result<WindowSearchResult> a =
      s1.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  Result<WindowSearchResult> b =
      s2.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  std::set<std::string> ka, kb;
  for (const DiscoveredPattern& dp : a->patterns) {
    ka.insert(dp.mined.pattern.CanonicalKey());
  }
  for (const DiscoveredPattern& dp : b->patterns) {
    kb.insert(dp.mined.pattern.CanonicalKey());
  }
  EXPECT_EQ(ka, kb);
}

TEST_F(WindowSearchTest, TighteningLocalizesWindows) {
  // With tightening, discovered windows should be at most the generator's
  // event span (two or four weeks) even when discovery happened at a wide
  // ladder window.
  WindowSearch search(world_->registry.get(), &world_->store, Options());
  Result<WindowSearchResult> result =
      search.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(result.ok());
  for (const DiscoveredPattern& dp : result->patterns) {
    EXPECT_LE(dp.mined.window.width(), 8 * kSecondsPerWeek)
        << dp.mined.pattern.ToString(*world_->taxonomy);
  }
}

TEST_F(WindowSearchTest, ValidationOffAdmitsMorePatterns) {
  WindowSearchOptions strict = Options();
  WindowSearchOptions loose = Options();
  loose.subwindow_validation = false;
  loose.leverage_validation = false;
  // Keep the unvalidated search bounded.
  loose.max_window_width = 8 * kSecondsPerWeek;
  strict.max_window_width = 8 * kSecondsPerWeek;

  WindowSearch s1(world_->registry.get(), &world_->store, strict);
  WindowSearch s2(world_->registry.get(), &world_->store, loose);
  Result<WindowSearchResult> a =
      s1.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  Result<WindowSearchResult> b =
      s2.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GE(b->patterns.size(), a->patterns.size());
}

TEST_F(WindowSearchTest, InputValidation) {
  WindowSearch search(world_->registry.get(), &world_->store, Options());
  EXPECT_FALSE(search.Run(world_->types.soccer_player, 100, 100).ok());

  WindowSearchOptions bad = Options();
  bad.min_window_width = 0;
  WindowSearch search2(world_->registry.get(), &world_->store, bad);
  EXPECT_FALSE(
      search2.Run(world_->types.soccer_player, 0, kSecondsPerYear).ok());
}

// Initial thresholds outside the paper's τ range [0.2, 1] are rejected. Below
// it, relative mining (at half the base frequency) used to admit patterns
// whose realization tables were already evicted, and the run crashed inside
// the realization join instead.
TEST_F(WindowSearchTest, InitialThresholdOutsidePaperRangeRejected) {
  for (double tau : {0.15, 0.12, 0.0, 1.5, std::nan("")}) {
    WindowSearchOptions o = Options();
    o.initial_threshold = tau;
    WindowSearch search(world_->registry.get(), &world_->store, o);
    Result<WindowSearchResult> result =
        search.Run(world_->types.soccer_player, 0, kSecondsPerYear);
    ASSERT_FALSE(result.ok()) << "tau " << tau;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().ToString().find("[0.2, 1]"), std::string::npos)
        << result.status().ToString();
  }
}

// Leverage validation partitions at most kMaxLeverageActions actions. A
// larger action cap would leave every longer pattern unvalidated, so the
// search refuses it while the test is on.
TEST_F(WindowSearchTest, ActionCapAboveLeverageLimitRejected) {
  WindowSearchOptions o = Options();
  o.miner.max_pattern_actions = kMaxLeverageActions + 1;
  WindowSearch search(world_->registry.get(), &world_->store, o);
  Result<WindowSearchResult> result =
      search.Run(world_->types.soccer_player, 0, kSecondsPerYear);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().ToString().find("leverage"), std::string::npos)
      << result.status().ToString();

  // Without leverage validation the cap is not limited.
  o.leverage_validation = false;
  WindowSearch unchecked(world_->registry.get(), &world_->store, o);
  EXPECT_TRUE(
      unchecked.Run(world_->types.soccer_player, 0, 4 * kSecondsPerWeek).ok());
}

// Golden digest of a whole WindowSearch over one small soccer world, mined
// with the options pipebench's mine_soccer uses (lift 1, six actions,
// relatives on). The digest covers every discovered pattern's canonical key,
// window, frequency and support, and its relatives' keys, frequencies and
// supports, in discovery order. A change to mining or validation that alters
// any of these fails here, at any miner thread count.
class WindowSearchGoldenTest : public ::testing::TestWithParam<size_t> {};

// Recorded while every validation probe still built its own action index;
// probes that read a shared index must reproduce it exactly.
constexpr size_t kGoldenPatterns = 17;
constexpr char kGoldenDigest[] = "f24319bb136cc81c";

std::string SearchDigest(const WindowSearchResult& result) {
  auto num = [](double x) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", x);
    return std::string(buf);
  };
  std::string text;
  for (const DiscoveredPattern& dp : result.patterns) {
    text += dp.mined.pattern.CanonicalKey() + "@" +
            std::to_string(dp.mined.window.begin) + "-" +
            std::to_string(dp.mined.window.end) +
            " f=" + num(dp.mined.frequency) +
            " s=" + std::to_string(dp.mined.support) + "\n";
    for (const RelativePattern& rp : dp.relatives) {
      text += " rel:" + rp.pattern.CanonicalKey() + " f=" +
              num(rp.frequency) + " s=" + std::to_string(rp.support) + "\n";
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(text)));
  return hex;
}

TEST_P(WindowSearchGoldenTest, SoccerWorldDigest) {
  SynthOptions so;
  so.seed_entities = 150;
  so.years = 3;
  so.rng_seed = 1000;
  Result<SynthWorld> world = Synthesize(so);
  ASSERT_TRUE(world.ok());
  WindowSearchOptions o;
  o.miner.max_abstraction_lift = 1;
  o.miner.max_pattern_actions = 6;
  o.miner.num_threads = GetParam();
  o.mine_relative = true;
  WindowSearch search(world->registry.get(), &world->store, o);
  Result<WindowSearchResult> result =
      search.Run(world->types.soccer_player, 0, 3 * kSecondsPerYear);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->patterns.size(), kGoldenPatterns);
  EXPECT_EQ(SearchDigest(*result), kGoldenDigest);
}

INSTANTIATE_TEST_SUITE_P(MinerThreads, WindowSearchGoldenTest,
                         ::testing::Values(size_t{1}, size_t{4}));

}  // namespace
}  // namespace wiclean
