#ifndef WICLEAN_CORE_MINER_H_
#define WICLEAN_CORE_MINER_H_

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/action_index.h"
#include "core/pattern.h"
#include "core/realization_join.h"
#include "graph/entity_registry.h"
#include "relational/table.h"
#include "revision/revision_store.h"
#include "revision/window.h"

namespace wiclean {

/// How pattern realizations and frequencies are computed — the §6.2 ablation
/// axis "PM vs PM−join".
enum class JoinEngineKind {
  kHashJoin,    // PM: relational hash equi-join ("optimized SQL computation")
  kNestedLoop,  // PM−join: conventional main-memory nested loop
};

/// How revision histories become the edits graph — the §6.2 ablation axis
/// "PM vs PM−inc".
enum class GraphStrategy {
  kIncremental,      // PM: ingest only entity types reachable via frequent
                     // patterns, on demand (Algorithm 1, lines 4-8)
  kMaterializeFull,  // PM−inc: ingest the revision history of *every* known
                     // entity up front, as conventional graph miners require
};

/// Tuning knobs for one mining run.
struct MinerOptions {
  /// Minimum pattern frequency (Definition 3.2) for admission.
  double frequency_threshold = 0.7;

  JoinEngineKind join_engine = JoinEngineKind::kHashJoin;
  GraphStrategy graph_strategy = GraphStrategy::kIncremental;

  /// How many taxonomy levels above an entity's most-specific type are
  /// enumerated when abstracting actions. 0 mines at base types only. Every
  /// extra level multiplies the candidate space (the paper's "the number of
  /// patterns that now need to be examined becomes larger").
  int max_abstraction_lift = 1;

  /// Growth cap; patterns in the paper's domains have up to ~6 actions.
  size_t max_pattern_actions = 5;

  /// Structural constraint that keeps the search seed-focused. Off (=
  /// constrained) by default, which is what the paper's reported output
  /// implies even though its pattern definition technically admits more:
  /// when false, a pattern may contain only one variable whose type is
  /// comparable to the seed type. Without this, dense fan-in relations (a
  /// club's squad lists a dozen players) make "the club also signed
  /// *another* player" patterns frequent, and their ever-more-specific chains
  /// dominate every real pattern.
  bool allow_multiple_seed_vars = false;

  /// Maximum time span a single realization may cover (max action time −
  /// min action time). Realizations wider than this are pruned during
  /// expansion: a pattern is only ever *reported* with a window of at most
  /// eight weeks (kMaxPatternWindow in window_search.cc; the paper's windows
  /// are "hours to months"), so realizations that cannot fit any reportable
  /// window are dead weight — and, at wide ladder windows, they are
  /// precisely the combinatorial conjunctions of unrelated events whose
  /// lattice otherwise explodes the search.
  Timestamp max_realization_span = 8 * kSecondsPerWeek;

  /// Mining-internal parallelism: candidate evaluations within one expansion
  /// generation run as pure tasks on a miner-owned thread pool (1 = serial,
  /// no pool). Results commit serially in candidate enumeration order, so the
  /// whole-mine output — pattern set, frequencies, stats counters, report
  /// text — is invariant under this knob. This is the only parallelism in
  /// mining: WindowSearch mines its windows one after another.
  size_t num_threads = 1;
};

/// A frequent pattern discovered in one window.
struct MinedPattern {
  Pattern pattern;
  TimeWindow window;
  double frequency = 0;  // fraction of seed-type entities appearing as source
  size_t support = 0;    // distinct seed-type source entities
};

/// A relatively-frequent refinement p' ≺ p of a base pattern p (Def 3.4/3.5).
struct RelativePattern {
  Pattern pattern;
  double relative_frequency = 0;  // frequency(p') / frequency(p)
  double frequency = 0;
  size_t support = 0;
};

/// Counters for one MineWindow call (and the small-data candidate experiment).
struct MineWindowStats {
  size_t candidates_considered = 0;  // patterns whose frequency was evaluated
  size_t entities_ingested = 0;      // revision logs read ("related entities")
  size_t actions_ingested = 0;       // reduced actions processed
  size_t abstract_actions = 0;       // distinct abstract-action entries
  size_t frequent_patterns = 0;
  double ingest_seconds = 0;  // reduced_and_abstract_actions time
  double mine_seconds = 0;    // expansion + frequency evaluation time

  void Accumulate(const MineWindowStats& other);
  /// Subtracts a baseline snapshot (for incremental reporting): every
  /// field becomes the work done since `base` — abstract_actions and
  /// frequent_patterns the entries and patterns that are new since then.
  void Subtract(const MineWindowStats& base);
  std::string ToString() const;
};

/// Internal per-window state retained across the frequent and relative mining
/// stages: the incremental ActionIndex plus a cache of every evaluated
/// pattern (the paper's "caching of computed frequencies/realization tables,
/// to be reused if the same patterns are later re-examined").
class MiningContext {
 public:
  struct PatternState {
    Pattern pattern;
    // Columns v0..vN, tmin, tmax; zero columns if infrequent.
    relational::Table realizations;
    double frequency = 0;
    size_t support = 0;
    bool frequent = false;
  };

  MiningContext(const EntityRegistry* registry, const RevisionStore* store,
                const TimeWindow& window, const MinerOptions& options)
      : index(registry, store, window, options.max_abstraction_lift) {}

  /// Canonical pattern keys are hashed with Fnv1a64 — the same hash the
  /// miner already computes for tested-pair keys, so profiles show one key
  /// hash function end to end.
  struct PatternKeyHasher {
    size_t operator()(const std::string& key) const {
      return static_cast<size_t>(Fnv1a64(key));
    }
  };
  using EvaluatedMap =
      std::unordered_map<std::string, PatternState, PatternKeyHasher>;

  ActionIndex index;
  /// canonical pattern key -> evaluation result. Unordered: anything whose
  /// output order could leak from iteration order (e.g. seeding a reused
  /// context's frequent set) must sort explicitly.
  EvaluatedMap evaluated;
  /// Hashes of (pattern key, action key) pairs already expanded — tested[w]
  /// in §4.1. 64-bit hashes keep this set compact at wide-window rounds.
  std::unordered_set<uint64_t> tested;
  MineWindowStats stats;
};

/// Result of mining one window.
struct MineWindowResult {
  std::vector<MinedPattern> most_specific;  // Definition 3.3 output
  std::vector<MinedPattern> all_frequent;   // every frequent pattern found
  MineWindowStats stats;
  /// Retained so MineRelative (and diagnostics) can reuse realizations.
  std::shared_ptr<MiningContext> context;
};

/// Algorithm 1: grow-and-store mining of connected frequent patterns in one
/// time window, with join-based realization tables and incremental graph
/// construction. Thread-safe: MineWindow builds all state in a fresh
/// MiningContext, so distinct windows can be mined concurrently (§4.3).
class PatternMiner {
 public:
  /// `registry` and `store` must outlive the miner.
  PatternMiner(const EntityRegistry* registry, const RevisionStore* store,
               MinerOptions options);

  const MinerOptions& options() const { return options_; }

  /// Mines the most specific frequent patterns of `window` w.r.t. `seed_type`.
  ///
  /// Passing `reuse` (a context produced by a previous MineWindow call on the
  /// *same window* at the same or a higher threshold) resumes from its
  /// cached realization tables and frequencies instead of starting over —
  /// the paper's "caching of the computed frequencies/realization tables, to
  /// be reused if the same patterns are later re-examined with different
  /// thresholds". Stats in the result cover only the incremental work: a
  /// resumed call's frequent_patterns counts the patterns that became
  /// frequent in it.
  ///
  /// Fails with InvalidArgument when options().frequency_threshold is below
  /// the realization cache floor (0.1): the realization tables of patterns
  /// below the floor are evicted, so such a pattern cannot be expanded.
  [[nodiscard]] Result<MineWindowResult> MineWindow(
      TypeId seed_type, const TimeWindow& window,
      std::shared_ptr<MiningContext> reuse = nullptr) const;

  /// One realization of a fixed pattern: the seed-type source entity and the
  /// time span [tmin, tmax] covered by the realization's edits.
  struct RealizationSpan {
    EntityId seed = kInvalidEntityId;
    Timestamp tmin = 0;
    Timestamp tmax = 0;
  };

  /// Computes all realizations of one *fixed* pattern in `index.window()` by
  /// chaining realization joins along the pattern's traversal order,
  /// returning one span per realization (rows are not deduplicated; count
  /// distinct seeds for support). The spans let the window search localize a
  /// pattern's true window with arithmetic instead of repeated re-mining.
  ///
  /// Reads `index` as is: any index that holds every variable type of the
  /// pattern (ActionIndex::HasType) and abstracts at this miner's lift gives
  /// the same spans up to order, so a probe can reuse a mining context's
  /// index. Fails with FailedPrecondition otherwise.
  [[nodiscard]] Result<std::vector<RealizationSpan>> EvaluateRealizations(
      TypeId seed_type, const Pattern& pattern,
      const ActionIndex& index) const;

  /// The same over a fresh index of `window` holding the pattern's types.
  [[nodiscard]] Result<std::vector<RealizationSpan>> EvaluateRealizations(
      TypeId seed_type, const Pattern& pattern,
      const TimeWindow& window) const;

  /// Frequency (Definition 3.2) of one fixed pattern in `index.window()`;
  /// the distinct seeds of EvaluateRealizations, with its preconditions.
  /// Cheaper than a full MineWindow when only one pattern matters.
  [[nodiscard]] Result<double> EvaluateFrequency(
      TypeId seed_type, const Pattern& pattern,
      const ActionIndex& index) const;

  /// The same over a fresh index of `window` holding the pattern's types.
  [[nodiscard]] Result<double> EvaluateFrequency(
      TypeId seed_type, const Pattern& pattern,
      const TimeWindow& window) const;

  /// One §7 value-specific specialization of a frequent pattern: `var` is
  /// bound to the concrete entity `value` (e.g. the club variable bound to
  /// PSG), covering `share` of the base pattern's realizations.
  struct ValueSpecificPattern {
    Pattern pattern;
    int var = -1;
    EntityId value = kInvalidEntityId;
    double share = 0;      // fraction of base realizations with this value
    double frequency = 0;  // Definition 3.2 frequency of the bound pattern
    size_t support = 0;
  };

  /// The paper's §7 "value-specific instantiations" extension: for each free
  /// non-source variable of `base` (a pattern mined in `context`), finds the
  /// concrete entities accounting for at least `min_value_share` of the
  /// base's realizations, and emits the correspondingly bound patterns.
  [[nodiscard]] Result<std::vector<ValueSpecificPattern>> MineValueSpecific(
      const MiningContext& context, TypeId seed_type, const MinedPattern& base,
      double min_value_share) const;

  /// Definition 3.5: mines the most specific *relatively* frequent
  /// refinements of `base` (which must be a pattern found by the MineWindow
  /// call that produced `context`). Expansion continues from base's cached
  /// realization with admission threshold rel_threshold * frequency(base),
  /// which must not fall below the realization cache floor (0.1).
  [[nodiscard]] Result<std::vector<RelativePattern>> MineRelative(
      MiningContext* context, TypeId seed_type, const MinedPattern& base,
      double rel_threshold) const;

 private:
  class Impl;

  /// A fresh index of `window` holding the pattern's variable types.
  ActionIndex ProbeIndex(const Pattern& pattern,
                         const TimeWindow& window) const;

  const EntityRegistry* registry_;
  const RevisionStore* store_;
  MinerOptions options_;
  /// The realization-join engine options_.join_engine selects.
  RealizationJoinFn join_;
};

}  // namespace wiclean

#endif  // WICLEAN_CORE_MINER_H_
