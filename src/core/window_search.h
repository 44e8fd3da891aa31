#ifndef WICLEAN_CORE_WINDOW_SEARCH_H_
#define WICLEAN_CORE_WINDOW_SEARCH_H_

#include <string>
#include <vector>

#include "core/miner.h"
#include "graph/entity_registry.h"
#include "revision/revision_store.h"

namespace wiclean {

/// The most actions a pattern may have while leverage validation is on: the
/// test visits all 2^(n-1) - 1 two-way partitions of a pattern's n actions,
/// two probes each. WindowSearch::Run rejects a larger
/// MinerOptions::max_pattern_actions instead of skipping the test.
inline constexpr size_t kMaxLeverageActions = 16;

/// The parameter-refinement policy of Algorithm 2 (§4.3 and Table 1): between
/// rounds, alternately multiply the window width by `window_multiplier` and
/// reduce the frequency threshold by `threshold_reduction` (a fraction). The
/// paper's grid search selected (2.0, 0.2).
struct RefinePolicy {
  double window_multiplier = 2.0;
  double threshold_reduction = 0.2;
};

/// Options of the full window-and-pattern search.
struct WindowSearchOptions {
  /// Initial (minimal) window width; the system default is two weeks.
  Timestamp min_window_width = 2 * kSecondsPerWeek;
  /// Window widths never exceed one year.
  Timestamp max_window_width = kSecondsPerYear;
  /// Initial frequency threshold (paper default 0.7; 0.8 in the quality
  /// experiments). Must lie in the paper's τ range [0.2, 1]; refinement
  /// never lowers the threshold below 0.2.
  double initial_threshold = 0.7;

  RefinePolicy refine;
  MinerOptions miner;

  /// Stage 2: relative-pattern mining threshold (Definition 3.5); set
  /// mine_relative to false to skip the stage.
  bool mine_relative = true;
  double relative_threshold = 0.5;

  /// Window tightening / validation: a pattern first discovered at a
  /// widened window is re-localized to its tightest sub-window and accepted
  /// only if it still clears the discovery threshold there and fits in eight
  /// weeks (see kSubwindowSupportFraction and kMaxPatternWindow in
  /// window_search.cc). This rejects window artifacts — conjunctions of
  /// independent events that only "co-occur" because the window grew past
  /// both — and reports each pattern with its actual time window rather than
  /// the coarse ladder window.
  bool subwindow_validation = true;

  /// Partition-correlation validation: every split of a discovered pattern
  /// into two source-connected sub-patterns must be positively correlated
  /// (see kMinPartitionPhi in window_search.cc). Rejects conjunctions of
  /// *independent* events (a player who happened to both win an award and
  /// be loaned out in the same window). Requires max_pattern_actions <=
  /// kMaxLeverageActions.
  bool leverage_validation = true;
};

/// One pattern discovered by the search, with the parameters that found it.
struct DiscoveredPattern {
  MinedPattern mined;
  Timestamp window_width = 0;  // the W of the round that discovered it
  double threshold = 0;        // the tau of that round
  std::vector<RelativePattern> relatives;
};

/// Telemetry for one refinement round.
struct RefinementRound {
  Timestamp window_width = 0;
  double threshold = 0;
  size_t new_patterns = 0;
  double seconds = 0;
};

/// Output of WindowSearch::Run.
struct WindowSearchResult {
  /// Discovered most-specific patterns, deduplicated by canonical key across
  /// rounds (first discovery wins, i.e. the tightest window / highest
  /// threshold).
  std::vector<DiscoveredPattern> patterns;
  std::vector<RefinementRound> rounds;
  MineWindowStats total_stats;
};

/// Algorithm 2: splits the timeline into non-overlapping windows of the
/// current width, mines every window, and iteratively refines
/// (window width, threshold) while refinement keeps discovering new patterns,
/// within the configured bounds.
class WindowSearch {
 public:
  /// `registry` and `store` must outlive the search object.
  WindowSearch(const EntityRegistry* registry, const RevisionStore* store,
               WindowSearchOptions options);

  const WindowSearchOptions& options() const { return options_; }

  /// Runs the search for seed type `seed_type` over the timeline
  /// [timeline_begin, timeline_end).
  [[nodiscard]] Result<WindowSearchResult> Run(TypeId seed_type, Timestamp timeline_begin,
                                 Timestamp timeline_end) const;

  /// Convenience for users unfamiliar with the type hierarchy (Algorithm 2,
  /// lines 1-2): derives the seed type from a seed entity.
  [[nodiscard]] Result<WindowSearchResult> RunForSeedEntity(EntityId seed_entity,
                                              Timestamp timeline_begin,
                                              Timestamp timeline_end) const;

 private:
  const EntityRegistry* registry_;
  const RevisionStore* store_;
  WindowSearchOptions options_;
};

}  // namespace wiclean

#endif  // WICLEAN_CORE_WINDOW_SEARCH_H_
