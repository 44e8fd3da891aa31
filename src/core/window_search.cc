#include "core/window_search.h"
#include <algorithm>

#include <cmath>
#include <optional>
#include <set>
#include <unordered_set>

#include "common/logging.h"
#include "common/timer.h"

namespace wiclean {
namespace {

/// Refinement never lowers the frequency threshold below the bottom of the
/// paper's τ range; WindowSearch::Run rejects initial thresholds outside
/// [kMinThreshold, 1].
constexpr double kMinThreshold = 0.2;

/// Window tightening: as long as some half-width sliding sub-window retains
/// at least this fraction of the current frequency, the pattern's window
/// shrinks to the best sub-window (down to the minimal width). Above 0.5 so
/// that a genuinely wide pattern — events uniform over its true window, each
/// half holding about half the support — *stalls* (and is reported at its
/// real width) instead of being squeezed into a half-window and failing the
/// threshold re-check.
constexpr double kSubwindowSupportFraction = 0.6;

/// A pattern whose realizations cannot be localized into a window of at most
/// this width is rejected: the paper's genuine patterns live in windows of
/// "hours to months", while conjunctions of unrelated events glued through a
/// shared non-seed entity (which the leverage test cannot split) only
/// co-occur across the whole timeline.
constexpr Timestamp kMaxPatternWindow = 8 * kSecondsPerWeek;

/// Partition-correlation bound: for every way of splitting a discovered
/// pattern into two source-connected sub-patterns A and B, the phi
/// coefficient between "seed realizes A" and "seed realizes B" must reach
/// this. Independent events sit at phi ≈ 0; real patterns are near-perfectly
/// correlated (all edits come from the same real-world event, phi ≈ 1). Phi,
/// unlike raw leverage, stays discriminative for high-frequency patterns
/// whose leverage ceiling is compressed.
constexpr double kMinPartitionPhi = 0.5;

/// Early-termination patience: the search stops once this many consecutive
/// refinement rounds discover nothing new (and something has been found).
/// Covers two full window+threshold alternation cycles, so one quiet
/// parameter step does not cut the ladder short; Table 1's small-step
/// policies terminate early through exactly this mechanism.
constexpr size_t kRefinePatience = 4;

/// Safety valve against degenerate refine policies.
constexpr size_t kMaxRounds = 20;

/// Memoizing wrapper around PatternMiner::EvaluateFrequency for the leverage
/// probes. Validation probes many overlapping (sub-pattern, window) pairs —
/// e.g. every league-extended transfer variant shares most of its
/// sub-patterns — so the memo cuts the validation cost by an order of
/// magnitude.
///
/// Misses read one probe index, kept for the window probed last: rebuilt
/// when the window changes, grown by the types a probe needs. The leverage
/// probes of one pattern all share its window, so each pattern builds at
/// most one index. Only one probe index is ever live; keeping one per window
/// would hold every tightened window's actions until the search ends.
class FreqEvaluator {
 public:
  FreqEvaluator(const EntityRegistry* registry, const RevisionStore* store,
                const PatternMiner* miner, TypeId seed_type)
      : registry_(registry),
        store_(store),
        miner_(miner),
        seed_type_(seed_type) {}

  Result<double> operator()(const Pattern& pattern, const TimeWindow& window) {
    std::string key = pattern.CanonicalKey();
    key += '@';
    key += std::to_string(window.begin);
    key += ':';
    key += std::to_string(window.end);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    if (!index_.has_value() || !(index_->window() == window)) {
      // emplace destroys the previous index before building this one.
      index_.emplace(registry_, store_, window,
                     miner_->options().max_abstraction_lift);
    }
    for (TypeId t : pattern.DistinctVarTypes()) index_->AddEntitiesOfType(t);
    WICLEAN_ASSIGN_OR_RETURN(
        double f, miner_->EvaluateFrequency(seed_type_, pattern, *index_));
    memo_.emplace(std::move(key), f);
    return f;
  }

 private:
  const EntityRegistry* registry_;
  const RevisionStore* store_;
  const PatternMiner* miner_;
  TypeId seed_type_;
  std::map<std::string, double> memo_;
  std::optional<ActionIndex> index_;
};

/// Re-localizes a discovered pattern to its tightest window (see
/// WindowSearchOptions::subwindow_validation) and re-checks the threshold.
/// Computes the pattern's realization time spans once, then localizes with
/// pure arithmetic: a realization supports a candidate window iff its whole
/// span fits inside. The spans come from `index`, the index of the mining
/// context that found the pattern in mp->window: it holds every variable
/// type of every frequent pattern of that window. On success, updates
/// mp->window and mp->frequency in place and returns true; returns false
/// when the pattern is a window artifact.
Result<bool> TightenWindow(const PatternMiner& miner, const ActionIndex& index,
                           TypeId seed_type, size_t seed_count,
                           Timestamp min_width, double threshold,
                           MinedPattern* mp) {
  WICLEAN_CHECK(index.window() == mp->window);
  WICLEAN_ASSIGN_OR_RETURN(
      std::vector<PatternMiner::RealizationSpan> spans,
      miner.EvaluateRealizations(seed_type, mp->pattern, index));
  auto freq_in = [&](const TimeWindow& w) {
    std::unordered_set<int64_t> seeds;
    for (const PatternMiner::RealizationSpan& s : spans) {
      if (s.tmin >= w.begin && s.tmax < w.end) seeds.insert(s.seed);
    }
    return static_cast<double>(seeds.size()) /
           static_cast<double>(seed_count);
  };

  TimeWindow window = mp->window;
  double freq = freq_in(window);
  while (window.width() > min_width) {
    Timestamp half = std::max(min_width, (window.width() + 1) / 2);
    if (half >= window.width()) break;
    Timestamp step = std::max<Timestamp>(1, half / 8);
    double best_freq = -1;
    TimeWindow best{0, 0};
    for (Timestamp start = window.begin; start + half <= window.end;
         start += step) {
      TimeWindow candidate{start, start + half};
      double f = freq_in(candidate);
      if (f > best_freq) {
        best_freq = f;
        best = candidate;
      }
      // Keep the final position flush with the window end.
      if (start + step + half > window.end && start + half < window.end) {
        start = window.end - half - step;
      }
    }
    // Cannot localize further.
    if (best_freq < kSubwindowSupportFraction * freq) break;
    window = best;
    freq = best_freq;
  }
  // The final tight window must still carry (almost) threshold-level
  // frequency; 10% slack absorbs boundary effects. Window artifacts lose far
  // more than 10% when localized.
  if (freq < 0.9 * threshold) return false;
  if (window.width() > kMaxPatternWindow) return false;  // not localizable
  mp->window = window;
  mp->frequency = freq;
  return true;
}

/// Tests every 2-partition of the pattern's actions into source-connected
/// sub-patterns; returns false (artifact) when some partition's phi
/// coefficient falls below kMinPartitionPhi.
Result<bool> PassesLeverage(FreqEvaluator& freq_of, const MinedPattern& mp) {
  const size_t n = mp.pattern.num_actions();
  if (n < 2) return true;
  WICLEAN_CHECK(n <= kMaxLeverageActions);
  for (uint32_t mask = 1; mask < (1u << (n - 1)); ++mask) {
    // Bit n-1 always lands in side B, so each partition is visited once.
    std::vector<size_t> side_a, side_b;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        side_a.push_back(i);
      } else {
        side_b.push_back(i);
      }
    }
    Result<Pattern> a = SubPattern(mp.pattern, side_a);
    Result<Pattern> b = SubPattern(mp.pattern, side_b);
    // Only partitions where both sides are evaluable (contain the source and
    // stay connected) can be tested.
    if (!a.ok() || !b.ok() || !a->IsConnected() || !b->IsConnected()) {
      continue;
    }
    WICLEAN_ASSIGN_OR_RETURN(double fa, freq_of(*a, mp.window));
    WICLEAN_ASSIGN_OR_RETURN(double fb, freq_of(*b, mp.window));
    double variance = fa * (1 - fa) * fb * (1 - fb);
    if (variance < 1e-6) continue;  // a near-constant side cannot discriminate
    double phi = (mp.frequency - fa * fb) / std::sqrt(variance);
    if (phi < kMinPartitionPhi) return false;
  }
  return true;
}

}  // namespace

WindowSearch::WindowSearch(const EntityRegistry* registry,
                           const RevisionStore* store,
                           WindowSearchOptions options)
    : registry_(registry), store_(store), options_(std::move(options)) {}

Result<WindowSearchResult> WindowSearch::RunForSeedEntity(
    EntityId seed_entity, Timestamp timeline_begin,
    Timestamp timeline_end) const {
  TypeId t = registry_->TypeOf(seed_entity);
  if (t == kInvalidTypeId) {
    return Status::NotFound("unknown seed entity id " +
                            std::to_string(seed_entity));
  }
  return Run(t, timeline_begin, timeline_end);
}

Result<WindowSearchResult> WindowSearch::Run(TypeId seed_type,
                                             Timestamp timeline_begin,
                                             Timestamp timeline_end) const {
  if (timeline_end <= timeline_begin) {
    return Status::InvalidArgument("empty timeline for window search");
  }
  if (options_.min_window_width <= 0 ||
      options_.min_window_width > options_.max_window_width) {
    return Status::InvalidArgument("invalid window width bounds");
  }
  if (!(options_.initial_threshold >= kMinThreshold &&
        options_.initial_threshold <= 1)) {
    return Status::InvalidArgument(
        "initial frequency threshold " +
        std::to_string(options_.initial_threshold) +
        " is outside the paper's range [0.2, 1]");
  }
  if (options_.leverage_validation &&
      options_.miner.max_pattern_actions > kMaxLeverageActions) {
    return Status::InvalidArgument(
        "max_pattern_actions " +
        std::to_string(options_.miner.max_pattern_actions) +
        " exceeds the " + std::to_string(kMaxLeverageActions) +
        " actions leverage validation can partition");
  }

  WindowSearchResult result;
  std::set<std::string> seen_keys;      // reported patterns
  std::set<std::string> rejected_keys;  // validation-rejected artifacts

  Timestamp width = options_.min_window_width;
  double threshold = options_.initial_threshold;
  // Alternation state: next refinement step widens the window (true) or
  // lowers the threshold (false).
  bool widen_next = true;
  // Quiet-round counter for the early-termination patience (see
  // kRefinePatience).
  size_t quiet_rounds = 0;

  // Validation probes (tightening spans, leverage sub-pattern frequencies)
  // are threshold-independent, so one memoizing evaluator serves all rounds.
  PatternMiner probe_miner(registry_, store_, options_.miner);
  FreqEvaluator freq_of(registry_, store_, &probe_miner, seed_type);
  const size_t seed_count = registry_->CountEntitiesOfType(seed_type);

  // Context cache: re-examining the same window at a lower threshold reuses
  // the cached realization tables (the paper's caching optimization).
  // Invalidated whenever the window grid changes.
  std::map<std::pair<Timestamp, Timestamp>,
           std::shared_ptr<MiningContext>> context_cache;
  Timestamp cached_width = -1;

  for (size_t round = 0; round < kMaxRounds; ++round) {
    Timer round_timer;
    MinerOptions miner_options = options_.miner;
    miner_options.frequency_threshold = threshold;
    PatternMiner miner(registry_, store_, miner_options);

    std::vector<TimeWindow> windows =
        SplitTimeline(timeline_begin, timeline_end, width);
    if (width != cached_width) {
      context_cache.clear();
      cached_width = width;
    }

    // Frequent-patterns stage, one MineWindow call per window. Candidate
    // evaluation inside each call is parallel at MinerOptions::num_threads.
    std::vector<MineWindowResult> window_results;
    window_results.reserve(windows.size());
    for (const TimeWindow& w : windows) {
      std::shared_ptr<MiningContext>& cached = context_cache[{w.begin, w.end}];
      WICLEAN_ASSIGN_OR_RETURN(MineWindowResult mined,
                               miner.MineWindow(seed_type, w, cached));
      cached = mined.context;
      window_results.push_back(std::move(mined));
    }

    size_t new_patterns = 0;
    for (MineWindowResult& wr : window_results) {
      result.total_stats.Accumulate(wr.stats);

      // Validation interleaves with most-specific selection: when a
      // most-specific pattern turns out to be an artifact (e.g. a
      // conjunction of two unrelated events that happened to dominate both),
      // it is removed from the pool and the genuine generalizations it was
      // shadowing get their turn.
      std::vector<MinedPattern> pool;
      for (MinedPattern& mp : wr.all_frequent) {
        if (rejected_keys.count(mp.pattern.CanonicalKey()) == 0) {
          pool.push_back(std::move(mp));
        }
      }
      const TypeTaxonomy& taxonomy = registry_->taxonomy();

      // Domination graph, built once per window: dominated_by[i] counts the
      // strictly-more-specific pool members shadowing i; dominates[j] lists
      // what j shadows, so a rejection releases its generalizations without
      // an O(n^2) rescan. A cheap (op, relation) multiset prefilter skips
      // most of the quadratic embedding checks.
      const size_t n = pool.size();
      auto signature = [](const Pattern& p) {
        std::vector<std::string> sig;
        for (const AbstractAction& a : p.actions()) {
          sig.push_back((a.op == EditOp::kAdd ? "+" : "-") + a.relation);
        }
        std::sort(sig.begin(), sig.end());
        return sig;
      };
      std::vector<std::vector<std::string>> sigs(n);
      for (size_t i = 0; i < n; ++i) sigs[i] = signature(pool[i].pattern);
      std::vector<size_t> dominated_by(n, 0);
      std::vector<std::vector<size_t>> dominates(n);
      for (size_t j = 0; j < n; ++j) {
        for (size_t i = 0; i < n; ++i) {
          if (i == j) continue;
          if (sigs[j].size() < sigs[i].size()) continue;
          if (!std::includes(sigs[j].begin(), sigs[j].end(), sigs[i].begin(),
                             sigs[i].end())) {
            continue;
          }
          if (IsStrictSpecializationOf(pool[j].pattern, pool[i].pattern,
                                       taxonomy)) {
            ++dominated_by[i];
            dominates[j].push_back(i);
          }
        }
      }

      std::vector<size_t> ready;
      std::vector<char> processed(n, 0);
      for (size_t i = 0; i < n; ++i) {
        if (dominated_by[i] == 0) ready.push_back(i);
      }
      while (!ready.empty()) {
        size_t pi = ready.back();
        ready.pop_back();
        if (processed[pi]) continue;
        processed[pi] = 1;
        MinedPattern& mp = pool[pi];
        std::string key = mp.pattern.CanonicalKey();
        if (seen_keys.count(key) > 0) continue;  // already reported

        // Validate this most-specific candidate.
        bool genuine = true;
        if (options_.subwindow_validation &&
            mp.window.width() > options_.min_window_width) {
          WICLEAN_ASSIGN_OR_RETURN(
              genuine,
              TightenWindow(probe_miner, wr.context->index, seed_type,
                            seed_count, options_.min_window_width, threshold,
                            &mp));
        }
        if (genuine && options_.leverage_validation &&
            mp.pattern.num_actions() > 1) {
          WICLEAN_ASSIGN_OR_RETURN(genuine, PassesLeverage(freq_of, mp));
        }
        if (!genuine) {
          rejected_keys.insert(std::move(key));
          // Release the generalizations this artifact was shadowing.
          for (size_t freed : dominates[pi]) {
            if (--dominated_by[freed] == 0 && !processed[freed]) {
              ready.push_back(freed);
            }
          }
          continue;
        }

        seen_keys.insert(std::move(key));
        ++new_patterns;
        DiscoveredPattern dp;
        dp.window_width = width;
        dp.threshold = threshold;
        // Relative frequent patterns stage (Algorithm 2, lines 13-14).
        if (options_.mine_relative) {
          WICLEAN_ASSIGN_OR_RETURN(
              dp.relatives,
              miner.MineRelative(wr.context.get(), seed_type, mp,
                                 options_.relative_threshold));
        }
        dp.mined = mp;
        result.patterns.push_back(std::move(dp));
      }
    }

    result.rounds.push_back(RefinementRound{width, threshold, new_patterns,
                                            round_timer.ElapsedSeconds()});

    // Refinement (§4.3): keep refining while refinement keeps discovering
    // new patterns (or while nothing at all was found), within the parameter
    // bounds and the early-termination patience.
    quiet_rounds = new_patterns > 0 ? 0 : quiet_rounds + 1;
    if (quiet_rounds >= kRefinePatience && !result.patterns.empty()) {
      break;
    }

    // Apply the alternating policy; skip a step that cannot change its
    // parameter (at its bound or a no-op multiplier/reduction) and try the
    // other parameter instead. Stop when neither can move.
    bool changed = false;
    for (int attempt = 0; attempt < 2 && !changed; ++attempt) {
      if (widen_next) {
        Timestamp new_width = static_cast<Timestamp>(
            std::llround(static_cast<double>(width) *
                         options_.refine.window_multiplier));
        new_width = std::min(new_width, options_.max_window_width);
        if (new_width > width) {
          width = new_width;
          changed = true;
        }
      } else {
        double new_threshold =
            threshold * (1.0 - options_.refine.threshold_reduction);
        new_threshold = std::max(new_threshold, kMinThreshold);
        if (new_threshold < threshold) {
          threshold = new_threshold;
          changed = true;
        }
      }
      widen_next = !widen_next;
    }
    if (!changed) break;  // both parameters exhausted
  }
  return result;
}

}  // namespace wiclean
