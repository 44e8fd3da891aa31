// Differential tests for the columnar join kernels and the two
// realization-join engines: the flat-hash-table HashJoin must agree with the
// nested-loop oracle row for row, with the preserved multimap reference
// implementation as a bag; the fused JoinRealizations must be byte-identical
// to the PM−join NestedLoopJoinRealizations and the flat DedupKeepTightest to
// its reference — including end-to-end MineWindow and EvaluateRealizations
// output on a synthetic domain.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "core/action_index.h"
#include "core/miner.h"
#include "core/realization_join.h"
#include "relational/join_hash_table.h"
#include "relational/ops.h"
#include "relational/reference_join.h"
#include "relational/table.h"
#include "synth/synthesizer.h"

namespace wiclean {
namespace {

namespace rel = ::wiclean::relational;

// Four-column table, each cell null with probability null_pct/100.
rel::Table RandomNullableTable(Rng* rng, size_t rows, int64_t domain,
                               uint64_t null_pct) {
  rel::Table t(4);
  std::vector<rel::Cell> row(4);
  for (size_t r = 0; r < rows; ++r) {
    for (rel::Cell& cell : row) {
      cell = rng->NextBelow(100) < null_pct
                 ? rel::Cell()
                 : rel::Cell(static_cast<int64_t>(rng->NextBelow(domain)));
    }
    t.AppendRow(row);
  }
  return t;
}

using Row = std::vector<rel::Cell>;

// Rows in table order (exact, order-sensitive comparison).
std::vector<Row> RowList(const rel::Table& t) {
  std::vector<Row> rows(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      rows[r].push_back(t.column(c).CellAt(r));
    }
  }
  return rows;
}

std::vector<Row> SortedRowList(const rel::Table& t) {
  std::vector<Row> rows = RowList(t);
  std::sort(rows.begin(), rows.end());
  return rows;
}

// The join specs exercised against every random table pair: one- and
// two-column equality keys, inequalities, wildcards, and the null-tolerant
// mode.
std::vector<rel::JoinSpec> SpecZoo() {
  std::vector<rel::JoinSpec> specs;
  rel::JoinSpec s;
  s.equal_cols = {{0, 0}};
  specs.push_back(s);
  s.equal_cols = {{0, 0}, {1, 1}};
  specs.push_back(s);
  s.equal_cols = {{2, 2}};
  specs.push_back(s);
  s.equal_cols = {{0, 0}, {2, 2}};
  specs.push_back(s);
  s = rel::JoinSpec{};
  s.equal_cols = {{0, 0}};
  s.not_equal_cols = {{1, 1}, {3, 3}};
  specs.push_back(s);
  s.null_inequality_passes = true;
  specs.push_back(s);
  s = rel::JoinSpec{};
  s.equal_cols = {{0, 0}};
  s.wildcard_equal_cols = {{1, 1}, {2, 2}};
  specs.push_back(s);
  s.not_equal_cols = {{3, 3}};
  specs.push_back(s);
  return specs;
}

struct KernelCase {
  uint64_t seed;
  size_t left_rows;
  size_t right_rows;
  int64_t domain;
  uint64_t null_pct;
};

class JoinKernelTest : public ::testing::TestWithParam<KernelCase> {};

TEST_P(JoinKernelTest, HashJoinMatchesNestedLoopExactly) {
  const KernelCase& c = GetParam();
  Rng rng(c.seed);
  rel::Table left = RandomNullableTable(&rng, c.left_rows, c.domain, c.null_pct);
  rel::Table right =
      RandomNullableTable(&rng, c.right_rows, c.domain, c.null_pct);
  for (const rel::JoinSpec& spec : SpecZoo()) {
    Result<rel::Table> h = rel::HashJoin(left, right, spec);
    Result<rel::Table> n = rel::NestedLoopJoin(left, right, spec);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(n.ok());
    // The columnar hash join emits matches per left row in ascending right
    // row order, so it must reproduce nested-loop output *positionally*.
    EXPECT_EQ(RowList(*h), RowList(*n)) << "seed " << c.seed;
  }
}

TEST_P(JoinKernelTest, HashJoinMatchesMultimapReferenceAsBag) {
  const KernelCase& c = GetParam();
  Rng rng(c.seed ^ 0x1234abcd);
  rel::Table left = RandomNullableTable(&rng, c.left_rows, c.domain, c.null_pct);
  rel::Table right =
      RandomNullableTable(&rng, c.right_rows, c.domain, c.null_pct);
  for (const rel::JoinSpec& spec : SpecZoo()) {
    Result<rel::Table> h = rel::HashJoin(left, right, spec);
    Result<rel::Table> ref = rel::ReferenceHashJoin(left, right, spec);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(ref.ok());
    // The old multimap build side has unspecified order within one probe, so
    // compare as bags.
    EXPECT_EQ(SortedRowList(*h), SortedRowList(*ref)) << "seed " << c.seed;
  }
}

TEST_P(JoinKernelTest, FullOuterJoinMatchesExhaustivePath) {
  const KernelCase& c = GetParam();
  Rng rng(c.seed ^ 0x77);
  rel::Table left = RandomNullableTable(&rng, c.left_rows, c.domain, c.null_pct);
  rel::Table right =
      RandomNullableTable(&rng, c.right_rows, c.domain, c.null_pct);
  for (rel::JoinSpec spec : SpecZoo()) {
    spec.prefer_nested_loop = false;
    Result<rel::Table> fast = rel::FullOuterJoin(left, right, spec);
    spec.prefer_nested_loop = true;
    Result<rel::Table> slow = rel::FullOuterJoin(left, right, spec);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    // Both paths emit matches left-major with ascending right rows, then pad
    // unmatched rows in input order — exact positional agreement.
    EXPECT_EQ(RowList(*fast), RowList(*slow)) << "seed " << c.seed;
  }
}

TEST_P(JoinKernelTest, DistinctProjectKeepsFirstOccurrences) {
  const KernelCase& c = GetParam();
  Rng rng(c.seed ^ 0xbeef);
  rel::Table input = RandomNullableTable(&rng, c.left_rows, 3, c.null_pct);
  rel::Table fast = rel::DistinctRows(input);

  // Naive order-preserving reference: linear scan over kept rows with
  // null == null semantics.
  std::vector<Row> keep;
  for (const Row& row : RowList(input)) {
    if (std::find(keep.begin(), keep.end(), row) == keep.end()) {
      keep.push_back(row);
    }
  }
  EXPECT_EQ(RowList(fast), keep) << "seed " << c.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, JoinKernelTest,
    ::testing::Values(KernelCase{1, 0, 0, 5, 0},     // empty inputs
                      KernelCase{2, 13, 0, 5, 10},   // empty build side
                      KernelCase{3, 0, 13, 5, 10},   // empty probe side
                      KernelCase{4, 40, 60, 7, 0},   // dense collisions
                      KernelCase{5, 60, 40, 7, 25},  // heavy nulls
                      KernelCase{6, 100, 100, 23, 10},
                      KernelCase{7, 200, 150, 500, 5},  // sparse matches
                      KernelCase{8, 77, 133, 3, 40}));

// ---------------------------------------------------------------------------
// Realization-table kernels.

rel::Table RandomRealizationTable(Rng* rng, size_t rows, size_t num_vars,
                                  int64_t domain, int64_t horizon) {
  rel::Table t(num_vars + 2);
  std::vector<int64_t> row(num_vars + 2);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < num_vars; ++c) {
      row[c] = static_cast<int64_t>(rng->NextBelow(domain));
    }
    int64_t t0 = static_cast<int64_t>(rng->NextBelow(horizon));
    int64_t t1 = t0 + static_cast<int64_t>(rng->NextBelow(horizon));
    row[num_vars] = t0;
    row[num_vars + 1] = t1;
    t.AppendInt64Row(row);
  }
  return t;
}

rel::Table RandomActionTable(Rng* rng, size_t rows, int64_t domain,
                             int64_t horizon) {
  rel::Table t(kActionRealizationColumns);
  for (size_t r = 0; r < rows; ++r) {
    t.AppendInt64Row({static_cast<int64_t>(rng->NextBelow(domain)),
                      static_cast<int64_t>(rng->NextBelow(domain)),
                      static_cast<int64_t>(rng->NextBelow(horizon))});
  }
  return t;
}

struct RealizationCase {
  uint64_t seed;
  size_t left_rows;
  size_t right_rows;
  size_t num_vars;
  int64_t domain;
};

class RealizationJoinTest : public ::testing::TestWithParam<RealizationCase> {
};

TEST_P(RealizationJoinTest, FusedMatchesUnfusedPipelineExactly) {
  const RealizationCase& c = GetParam();
  constexpr int64_t kHorizon = 1000;
  Rng rng(c.seed);
  rel::Table left =
      RandomRealizationTable(&rng, c.left_rows, c.num_vars, c.domain,
                             kHorizon);
  rel::Table right =
      RandomActionTable(&rng, c.right_rows, c.domain, kHorizon);

  std::vector<RealizationJoinSpec> rspecs;
  RealizationJoinSpec rspec;
  rspec.num_left_vars = c.num_vars;
  rspec.glue_source_col = 0;
  // Fresh target with a distinctness constraint on every variable.
  rspec.glue_target_col = -1;
  for (size_t k = 0; k < c.num_vars; ++k) {
    rspec.distinct_from_target.push_back(k);
  }
  rspecs.push_back(rspec);
  // Fresh target, unconstrained.
  rspec.distinct_from_target.clear();
  rspecs.push_back(rspec);
  // Glued target.
  rspec.glue_target_col = static_cast<int>(c.num_vars - 1);
  rspecs.push_back(rspec);

  for (RealizationJoinSpec rs : rspecs) {
    for (int64_t max_span :
         {std::numeric_limits<int64_t>::max(), int64_t{800}, int64_t{50}}) {
      for (bool dedup : {false, true}) {
        rs.max_span = max_span;
        rs.dedup_keep_tightest = dedup;
        Result<rel::Table> fused = JoinRealizations(left, right, rs);
        ASSERT_TRUE(fused.ok());
        Result<rel::Table> nested =
            NestedLoopJoinRealizations(left, right, rs);
        ASSERT_TRUE(nested.ok());
        EXPECT_EQ(RowList(*fused), RowList(*nested))
            << "seed " << c.seed << " max_span " << max_span << " dedup "
            << dedup << " glue_target " << rs.glue_target_col;
      }
    }
  }
}

TEST_P(RealizationJoinTest, FlatDedupMatchesReferenceExactly) {
  const RealizationCase& c = GetParam();
  Rng rng(c.seed ^ 0xdead);
  // Small domain forces many duplicate variable assignments.
  rel::Table input =
      RandomRealizationTable(&rng, c.left_rows * 4, c.num_vars, c.domain,
                             200);
  rel::Table fast = DedupKeepTightest(input, c.num_vars);
  rel::Table ref = ReferenceDedupKeepTightest(input, c.num_vars);
  EXPECT_EQ(RowList(fast), RowList(ref)) << "seed " << c.seed;
}

INSTANTIATE_TEST_SUITE_P(
    Randomized, RealizationJoinTest,
    ::testing::Values(RealizationCase{11, 0, 0, 2, 5},
                      RealizationCase{12, 30, 0, 2, 4},
                      RealizationCase{13, 0, 30, 3, 4},
                      RealizationCase{14, 50, 80, 2, 4},
                      RealizationCase{15, 120, 90, 3, 6},
                      RealizationCase{16, 200, 200, 4, 8},
                      RealizationCase{17, 150, 150, 2, 3}));

// ---------------------------------------------------------------------------
// Vectorized probing: ProbeBatch must be pointwise Probe for any batch, so
// the batched join kernels see exactly the chains a one-key probe would.

TEST(ProbeBatchTest, MatchesScalarProbePointwise) {
  Rng rng(4242);
  for (size_t build_rows : {size_t{0}, size_t{1}, size_t{5}, size_t{64},
                            size_t{777}}) {
    // A small hash domain forces shared chains and long linear-probe runs —
    // the cases where a two-pass batched walk could diverge from Probe.
    std::vector<uint64_t> hashes(build_rows);
    std::vector<uint8_t> valid(build_rows);
    for (size_t r = 0; r < build_rows; ++r) {
      hashes[r] = rel::MixInt64(static_cast<int64_t>(rng.NextBelow(97)));
      valid[r] = rng.NextBelow(100) < 85 ? 1 : 0;
    }
    rel::JoinHashTable ht;
    ht.Build(hashes.data(), valid.data(), build_rows);

    for (size_t n = 1; n <= rel::kProbeBatchWidth; ++n) {
      for (int rep = 0; rep < 32; ++rep) {
        uint64_t batch[rel::kProbeBatchWidth];
        uint32_t out[rel::kProbeBatchWidth];
        for (size_t i = 0; i < n; ++i) {
          // Mix present hashes (including ones built from invalid rows, which
          // must still resolve exactly like Probe) with absent ones.
          batch[i] = build_rows > 0 && rng.NextBelow(2) == 0
                         ? hashes[rng.NextBelow(build_rows)]
                         : rel::MixInt64(static_cast<int64_t>(
                               1000 + rng.NextBelow(1000)));
        }
        ht.ProbeBatch(batch, n, out);
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(out[i], ht.Probe(batch[i]))
              << "build_rows " << build_rows << " n " << n << " i " << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the fused PM path must reproduce the PM−join ablation's mining
// output exactly (patterns, frequencies, supports, in order) on a synthetic
// soccer world — the "no silent behavior change" guarantee for the rewrite.

std::vector<std::tuple<std::string, double, size_t>> Signature(
    const std::vector<MinedPattern>& ps) {
  std::vector<std::tuple<std::string, double, size_t>> out;
  out.reserve(ps.size());
  for (const MinedPattern& mp : ps) {
    out.emplace_back(mp.pattern.CanonicalKey(), mp.frequency, mp.support);
  }
  return out;
}

TEST(MineWindowIdentityTest, FusedHashPathMatchesNestedLoopPath) {
  SynthOptions o;
  o.seed_entities = 30;
  o.years = 1;
  o.rng_seed = 21;
  o.soccer = true;
  o.background_entities = 60;
  o.background_edit_rate = 2.0;
  Result<SynthWorld> world = Synthesize(o);
  ASSERT_TRUE(world.ok());

  MinerOptions base;
  base.frequency_threshold = 0.3;
  base.max_pattern_actions = 4;

  for (int week : {10, 16, 20}) {
    TimeWindow window = world->WindowOf(week);
    MinerOptions hash_opts = base;
    hash_opts.join_engine = JoinEngineKind::kHashJoin;
    MinerOptions loop_opts = base;
    loop_opts.join_engine = JoinEngineKind::kNestedLoop;

    PatternMiner hash_miner(world->registry.get(), &world->store, hash_opts);
    PatternMiner loop_miner(world->registry.get(), &world->store, loop_opts);
    Result<MineWindowResult> h =
        hash_miner.MineWindow(world->types.soccer_player, window);
    Result<MineWindowResult> n =
        loop_miner.MineWindow(world->types.soccer_player, window);
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(n.ok());

    EXPECT_EQ(Signature(h->all_frequent), Signature(n->all_frequent))
        << "week " << week;
    EXPECT_EQ(Signature(h->most_specific), Signature(n->most_specific))
        << "week " << week;
    EXPECT_EQ(h->stats.candidates_considered, n->stats.candidates_considered)
        << "week " << week;
  }
}

// EvaluateRealizations (the window search's span probe) must return the same
// spans, row for row, on both engines — for plain patterns and for §7
// value-bound ones, whose per-action tables are filtered before joining.
TEST(EvaluateRealizationsIdentityTest, HashAndNestedLoopSpansMatch) {
  SynthOptions o;
  o.seed_entities = 30;
  o.years = 1;
  o.rng_seed = 21;
  o.soccer = true;
  o.background_entities = 60;
  o.background_edit_rate = 2.0;
  Result<SynthWorld> world = Synthesize(o);
  ASSERT_TRUE(world.ok());
  const TypeId seed = world->types.soccer_player;

  MinerOptions hash_opts;
  hash_opts.frequency_threshold = 0.3;
  hash_opts.max_pattern_actions = 4;
  MinerOptions loop_opts = hash_opts;
  loop_opts.join_engine = JoinEngineKind::kNestedLoop;
  PatternMiner hash_miner(world->registry.get(), &world->store, hash_opts);
  PatternMiner loop_miner(world->registry.get(), &world->store, loop_opts);

  using SpanRow = std::tuple<EntityId, Timestamp, Timestamp>;
  auto spans_of = [&](const PatternMiner& miner, const Pattern& p,
                      const TimeWindow& w) {
    Result<std::vector<PatternMiner::RealizationSpan>> spans =
        miner.EvaluateRealizations(seed, p, w);
    EXPECT_TRUE(spans.ok()) << spans.status().ToString();
    std::vector<SpanRow> rows;
    if (!spans.ok()) return rows;
    for (const PatternMiner::RealizationSpan& s : *spans) {
      rows.emplace_back(s.seed, s.tmin, s.tmax);
    }
    return rows;
  };

  size_t plain_checked = 0;
  size_t bound_checked = 0;
  for (int week : {10, 16, 20}) {
    TimeWindow window = world->WindowOf(week);
    Result<MineWindowResult> mined = hash_miner.MineWindow(seed, window);
    ASSERT_TRUE(mined.ok());
    for (const MinedPattern& mp : mined->most_specific) {
      if (mp.pattern.num_actions() < 2) continue;
      std::vector<SpanRow> hash_rows = spans_of(hash_miner, mp.pattern, window);
      EXPECT_FALSE(hash_rows.empty());
      EXPECT_EQ(hash_rows, spans_of(loop_miner, mp.pattern, window))
          << "week " << week << " pattern " << mp.pattern.CanonicalKey();
      ++plain_checked;

      Result<std::vector<PatternMiner::ValueSpecificPattern>> bound =
          hash_miner.MineValueSpecific(*mined->context, seed, mp, 0.1);
      ASSERT_TRUE(bound.ok());
      for (const PatternMiner::ValueSpecificPattern& vs : *bound) {
        std::vector<SpanRow> bound_rows =
            spans_of(hash_miner, vs.pattern, window);
        EXPECT_FALSE(bound_rows.empty());
        EXPECT_EQ(bound_rows, spans_of(loop_miner, vs.pattern, window))
            << "week " << week << " pattern " << vs.pattern.CanonicalKey();
        ++bound_checked;
      }
    }
  }
  EXPECT_GT(plain_checked, 0u);
  EXPECT_GT(bound_checked, 0u);
}

// Whole-mine output must be invariant under the miner's thread count: the
// generational candidate evaluation commits results in enumeration order, so
// patterns, frequencies, supports, and the candidate counter all match the
// serial run digest-for-digest.
TEST(MineWindowIdentityTest, OutputInvariantUnderMineThreadCount) {
  SynthOptions o;
  o.seed_entities = 30;
  o.years = 1;
  o.rng_seed = 21;
  o.soccer = true;
  o.background_entities = 60;
  o.background_edit_rate = 2.0;
  Result<SynthWorld> world = Synthesize(o);
  ASSERT_TRUE(world.ok());

  MinerOptions base;
  base.frequency_threshold = 0.3;
  base.max_pattern_actions = 4;

  for (int week : {10, 16}) {
    TimeWindow window = world->WindowOf(week);
    MinerOptions serial_opts = base;
    serial_opts.num_threads = 1;
    PatternMiner serial_miner(world->registry.get(), &world->store,
                              serial_opts);
    Result<MineWindowResult> s =
        serial_miner.MineWindow(world->types.soccer_player, window);
    ASSERT_TRUE(s.ok());

    for (size_t threads : {size_t{2}, size_t{4}}) {
      MinerOptions opts = base;
      opts.num_threads = threads;
      PatternMiner miner(world->registry.get(), &world->store, opts);
      Result<MineWindowResult> r =
          miner.MineWindow(world->types.soccer_player, window);
      ASSERT_TRUE(r.ok());

      EXPECT_EQ(Signature(r->all_frequent), Signature(s->all_frequent))
          << "week " << week << " threads " << threads;
      EXPECT_EQ(Signature(r->most_specific), Signature(s->most_specific))
          << "week " << week << " threads " << threads;
      EXPECT_EQ(r->stats.candidates_considered,
                s->stats.candidates_considered)
          << "week " << week << " threads " << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Regression test for the MineFrequent timer accounting bug: the mine timer
// used to be restarted *before* the ingest phase and read again after the
// loop, so every loop ingest was double-counted as mining time and the two
// counters could sum past the wall clock. Post-fix they are disjoint
// sub-intervals of the measured wall time, so this bound can never flake.

TEST(MinerTimerTest, IngestAndMineSecondsAreDisjoint) {
  // Multiple domains force loop-phase type ingestion (clubs, films,
  // parties... pulled in after the first expansion round), which is exactly
  // the interval the old code counted twice.
  SynthOptions o;
  o.seed_entities = 400;
  o.years = 1;
  o.rng_seed = 33;
  o.soccer = true;
  o.cinema = true;
  o.politics = true;
  Result<SynthWorld> world = Synthesize(o);
  ASSERT_TRUE(world.ok());

  MinerOptions opts;
  opts.frequency_threshold = 0.3;
  opts.max_pattern_actions = 4;
  PatternMiner miner(world->registry.get(), &world->store, opts);

  TimeWindow window = world->WindowOf(16);
  Timer wall;
  Result<MineWindowResult> r =
      miner.MineWindow(world->types.soccer_player, window);
  double wall_seconds = wall.ElapsedSeconds();
  ASSERT_TRUE(r.ok());

  EXPECT_GT(r->stats.ingest_seconds, 0.0);
  EXPECT_GT(r->stats.mine_seconds, 0.0);
  // Each phase timer covers a distinct slice of the wall interval; their sum
  // can only fall below it (bookkeeping outside both phases is untimed).
  EXPECT_LE(r->stats.ingest_seconds + r->stats.mine_seconds,
            wall_seconds + 1e-6);
}

}  // namespace
}  // namespace wiclean
