#include "core/miner.h"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_set>

#include "common/logging.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/realization_join.h"

namespace wiclean {

namespace rel = ::wiclean::relational;

void MineWindowStats::Accumulate(const MineWindowStats& other) {
  candidates_considered += other.candidates_considered;
  entities_ingested += other.entities_ingested;
  actions_ingested += other.actions_ingested;
  abstract_actions += other.abstract_actions;
  frequent_patterns += other.frequent_patterns;
  ingest_seconds += other.ingest_seconds;
  mine_seconds += other.mine_seconds;
}

void MineWindowStats::Subtract(const MineWindowStats& base) {
  candidates_considered -= base.candidates_considered;
  entities_ingested -= base.entities_ingested;
  actions_ingested -= base.actions_ingested;
  abstract_actions -= base.abstract_actions;
  frequent_patterns -= base.frequent_patterns;
  ingest_seconds -= base.ingest_seconds;
  mine_seconds -= base.mine_seconds;
}

std::string MineWindowStats::ToString() const {
  return "candidates=" + std::to_string(candidates_considered) +
         " entities=" + std::to_string(entities_ingested) +
         " actions=" + std::to_string(actions_ingested) +
         " abstract_actions=" + std::to_string(abstract_actions) +
         " frequent=" + std::to_string(frequent_patterns);
}

namespace {

/// Cap on the variables of one pattern (max_pattern_actions caps actions).
constexpr size_t kMaxPatternVars = 7;

/// Realization tables of evaluated patterns below this frequency are
/// discarded after the frequency is computed (the cached frequency remains).
/// Tables are only ever re-joined for *admitted* patterns, so MineWindow and
/// MineRelative reject admission thresholds below this floor. Bounds the
/// memory of wide-window, low-threshold rounds.
constexpr double kRealizationCacheMinFrequency = 0.1;

Status CheckAdmissionFloor(double admission, const char* what) {
  if (admission >= kRealizationCacheMinFrequency) return Status::OK();
  return Status::InvalidArgument(
      std::string(what) + " " + std::to_string(admission) +
      " is below the realization cache floor " +
      std::to_string(kRealizationCacheMinFrequency));
}

RealizationJoinFn SelectJoin(JoinEngineKind engine) {
  return engine == JoinEngineKind::kHashJoin ? &JoinRealizations
                                             : &NestedLoopJoinRealizations;
}

}  // namespace

/// All mining logic for one (seed type, window) pair. Owns nothing; mutates
/// the MiningContext it is given.
class PatternMiner::Impl {
 public:
  Impl(const EntityRegistry* registry, const RevisionStore* store,
       const MinerOptions& options, RealizationJoinFn join, MiningContext* ctx,
       TypeId seed_type)
      : registry_(registry),
        taxonomy_(&registry->taxonomy()),
        store_(store),
        options_(options),
        join_(join),
        ctx_(ctx),
        seed_type_(seed_type),
        seed_count_(registry->CountEntitiesOfType(seed_type)) {
    // Candidate tasks call the serial relational kernels and never Submit
    // to this pool, so no task ever Waits on the pool running it.
    if (options.num_threads > 1) {
      pool_ = std::make_unique<ThreadPool>(options.num_threads);
    }
  }

  size_t seed_count() const { return seed_count_; }

  /// Stage-1 entry point: Algorithm 1's main loop. When the context carries
  /// state from a previous (higher-threshold) run over the same window, the
  /// cached evaluations seed the frequent set and only new expansions run.
  Status MineFrequent() {
    for (auto& [key, state] : ctx_->evaluated) {
      if (state.support > 0 &&
          state.frequency >= options_.frequency_threshold) {
        state.frequent = true;
        frequent_keys_.push_back(key);
      }
    }
    // The evaluation cache is unordered; sort the seeded worklist so reused
    // contexts expand (and report) in the same order as a fresh run.
    std::sort(frequent_keys_.begin(), frequent_keys_.end());
    frequent_hashes_.reserve(frequent_keys_.size());
    for (const std::string& key : frequent_keys_) {
      frequent_hashes_.push_back(Fnv1a64(key));
    }
    Timer ingest_timer;
    if (options_.graph_strategy == GraphStrategy::kMaterializeFull) {
      // PM−inc: the whole edits graph up front, like conventional miners.
      ctx_->index.AddAllEntities();
    } else {
      ctx_->index.AddEntitiesOfType(seed_type_);
    }
    ctx_->stats.ingest_seconds += ingest_timer.ElapsedSeconds();

    // mine_seconds and ingest_seconds are disjoint sub-intervals of the wall
    // clock: each timer covers exactly one phase and is read exactly once
    // per iteration (a previous version restarted the mine timer *before*
    // the ingest phase and read it again after the loop, double-counting the
    // final ingest as mining time).
    for (;;) {
      Timer mine_timer;
      WICLEAN_RETURN_IF_ERROR(ExpandAll(options_.frequency_threshold,
                                        &frequent_keys_, &frequent_hashes_,
                                        &ctx_->tested,
                                        /*mark_frequent=*/true));
      ctx_->stats.mine_seconds += mine_timer.ElapsedSeconds();

      ingest_timer.Restart();
      bool grew = IngestPendingTypes();
      ctx_->stats.ingest_seconds += ingest_timer.ElapsedSeconds();
      if (!grew) break;
    }
    ctx_->stats.entities_ingested = ctx_->index.num_entities_ingested();
    ctx_->stats.actions_ingested = ctx_->index.num_actions_ingested();
    ctx_->stats.abstract_actions = ctx_->index.entries().size();
    ctx_->stats.frequent_patterns = frequent_keys_.size();
    return Status::OK();
  }

  const std::vector<std::string>& frequent_keys() const {
    return frequent_keys_;
  }

  /// Stage-2 entry point: relative mining from one base pattern (Def 3.5).
  /// Returns keys of the admitted (relatively frequent) patterns, base
  /// excluded.
  Result<std::vector<std::string>> MineRelativeFrom(const std::string& base_key,
                                                    double rel_threshold) {
    auto it = ctx_->evaluated.find(base_key);
    if (it == ctx_->evaluated.end()) {
      return Status::InvalidArgument(
          "relative mining base pattern was not evaluated in this context");
    }
    double admission = rel_threshold * it->second.frequency;
    WICLEAN_RETURN_IF_ERROR(
        CheckAdmissionFloor(admission, "relative admission threshold"));
    std::vector<std::string> admitted = {base_key};
    std::vector<uint64_t> admitted_hashes = {Fnv1a64(base_key)};
    std::unordered_set<uint64_t> local_tested;
    Timer mine_timer;
    WICLEAN_RETURN_IF_ERROR(ExpandAll(admission, &admitted, &admitted_hashes,
                                      &local_tested,
                                      /*mark_frequent=*/false));
    ctx_->stats.mine_seconds += mine_timer.ElapsedSeconds();
    admitted.erase(admitted.begin());  // drop the base itself
    return admitted;
  }

 private:
  /// One concrete extension to evaluate: base pattern state (stable pointer —
  /// unordered_map nodes never move), the glued action, and the gluing.
  struct ExtensionCandidate {
    const MiningContext::PatternState* base = nullptr;
    const AbstractActionEntry* entry = nullptr;
    int glue_source = 0;
    int glue_target = -1;  // -1 = fresh target variable
  };

  /// Output of one pure candidate evaluation. `computed` is false when the
  /// canonical key was already cached at evaluation time (nothing to insert;
  /// the commit step re-admits the cached state, as the serial code does).
  struct CandidateResult {
    std::string key;
    Pattern pattern;
    rel::Table realization;
    size_t support = 0;
    bool computed = false;
  };

  /// Fixpoint expansion pass: grows `admitted_keys` (a worklist of pattern
  /// keys whose expansions are explored) by testing every untested
  /// (pattern, abstract action) pair, admitting extensions with frequency >=
  /// `admission`. Also (re)scans singleton candidates when mark_frequent is
  /// set, so newly ingested action types can seed new patterns.
  ///
  /// Parallel structure: the worklist is processed in generations — all
  /// untested pairs of the patterns admitted so far are enumerated into a
  /// candidate list (marking them tested), every candidate is evaluated as a
  /// pure task against a snapshot of the evaluation cache (per-task result
  /// slots, no shared writes), and the results commit serially in
  /// enumeration order. A candidate's base pattern is always from an earlier
  /// generation, so evaluations never depend on same-generation commits;
  /// duplicate canonical keys within a generation recompute the same pure
  /// result and the commit step keeps the first (= the one the serial code
  /// would have cached) and drops the rest without counting them. The
  /// admitted worklist, cache contents, and every stats counter are therefore
  /// identical at any MinerOptions::num_threads.
  Status ExpandAll(double admission, std::vector<std::string>* admitted_keys,
                   std::vector<uint64_t>* admitted_hashes,
                   std::unordered_set<uint64_t>* tested, bool mark_frequent) {
    if (mark_frequent) {
      WICLEAN_RETURN_IF_ERROR(ScanSingletons(admission, admitted_keys,
                                             admitted_hashes, tested));
    }
    WICLEAN_CHECK(admitted_keys->size() == admitted_hashes->size());
    // Snapshot the abstract actions with their key hashes computed once: the
    // pair-tested check below runs for every (pattern, action) combination,
    // and re-hashing both strings each time dominated this loop. Pattern-key
    // hashes ride along in admitted_hashes. The index cannot grow during
    // expansion (ingest happens between ExpandAll rounds), so the snapshot
    // stays valid.
    std::vector<std::pair<const AbstractActionEntry*, uint64_t>> actions;
    actions.reserve(ctx_->index.entries().size());
    for (const auto& [action_key, entry] : ctx_->index.entries()) {
      actions.emplace_back(&entry, Fnv1a64(action_key));
    }
    std::unordered_set<std::string> admitted_set(admitted_keys->begin(),
                                                 admitted_keys->end());
    size_t pi = 0;
    while (pi < admitted_keys->size()) {
      const size_t gen_end = admitted_keys->size();
      std::vector<ExtensionCandidate> candidates;
      for (; pi < gen_end; ++pi) {
        const std::string& pattern_key = (*admitted_keys)[pi];
        const uint64_t pattern_hash = (*admitted_hashes)[pi];
        for (const auto& [entry, action_hash] : actions) {
          uint64_t pair_key = HashCombine(pattern_hash, action_hash);
          if (!tested->insert(pair_key).second) continue;
          CollectPair(pattern_key, *entry, &candidates);
        }
      }
      if (candidates.empty()) continue;

      std::vector<CandidateResult> results(candidates.size());
      std::vector<Status> statuses(candidates.size(), Status::OK());
      auto evaluate = [&](size_t k) {
        statuses[k] = EvaluateCandidate(candidates[k], &results[k]);
      };
      if (pool_ != nullptr && candidates.size() > 1) {
        pool_->ParallelFor(candidates.size(), evaluate);
      } else {
        for (size_t k = 0; k < candidates.size(); ++k) evaluate(k);
      }
      for (const Status& s : statuses) WICLEAN_RETURN_IF_ERROR(s);
      for (CandidateResult& res : results) {
        CommitCandidate(&res, admission, admitted_keys, admitted_hashes,
                        &admitted_set, mark_frequent);
      }
    }
    return Status::OK();
  }

  /// Evaluates (or fetches from cache) all singleton patterns whose source
  /// variable type is comparable to the seed type (Algorithm 1, line 2, over
  /// every abstraction level).
  Status ScanSingletons(double admission,
                        std::vector<std::string>* admitted_keys,
                        std::vector<uint64_t>* admitted_hashes,
                        std::unordered_set<uint64_t>* tested) {
    std::unordered_set<std::string> admitted_set(admitted_keys->begin(),
                                                 admitted_keys->end());
    for (const auto& [action_key, entry] : ctx_->index.entries()) {
      if (!taxonomy_->Comparable(entry.key.source_type, seed_type_)) continue;
      // Seed-focus constraint also applies to singletons whose target would
      // be a second seed-comparable variable.
      if (!options_.allow_multiple_seed_vars &&
          taxonomy_->Comparable(entry.key.target_type, seed_type_)) {
        continue;
      }
      uint64_t singleton_marker =
          HashCombine(Fnv1a64("\x1e singleton"), Fnv1a64(action_key));
      if (!tested->insert(singleton_marker).second) continue;

      Pattern p;
      int u = p.AddVar(entry.key.source_type);
      int v = p.AddVar(entry.key.target_type);
      WICLEAN_RETURN_IF_ERROR(
          p.AddAction(entry.key.op, u, entry.key.relation, v));
      WICLEAN_RETURN_IF_ERROR(p.SetSourceVar(u));

      std::string key = p.CanonicalKey();
      auto cached = ctx_->evaluated.find(key);
      if (cached == ctx_->evaluated.end()) {
        // Distinct variables bind distinct entities: drop self-link rows.
        // Rows carry the action timestamp as a [t, t] span.
        rel::Table realization(4);  // v0, v1, tmin, tmax
        const rel::Table& src = entry.realizations;
        for (size_t r = 0; r < src.num_rows(); ++r) {
          int64_t su = src.column(0).Int64At(r);
          int64_t sv = src.column(1).Int64At(r);
          int64_t st = src.column(2).Int64At(r);
          if (su != sv) realization.AppendInt64Row({su, sv, st, st});
        }
        realization = DedupKeepTightest(realization, 2);
        cached = RecordEvaluation(std::move(key), std::move(p),
                                  std::move(realization));
      }
      MaybeAdmit(cached, admission, admitted_keys, admitted_hashes,
                 &admitted_set, /*mark_frequent=*/true);
    }
    return Status::OK();
  }

  /// Enumerates the concrete extensions of one (pattern, abstract action)
  /// pair: every way of gluing the action's source to a same-typed pattern
  /// variable, with the target either a fresh variable or glued to a
  /// same-typed existing variable (§4.2). Candidates are appended in exactly
  /// the order the serial code evaluated them — the commit step replays this
  /// order, which is what keeps parallel runs byte-identical.
  void CollectPair(const std::string& pattern_key,
                   const AbstractActionEntry& entry,
                   std::vector<ExtensionCandidate>* out) {
    const MiningContext::PatternState& base = ctx_->evaluated.at(pattern_key);
    const Pattern& p = base.pattern;
    if (p.num_actions() >= options_.max_pattern_actions) return;

    // Seed-focus constraint: does the pattern already use its one allowed
    // seed-comparable variable?
    bool has_seed_var = false;
    if (!options_.allow_multiple_seed_vars) {
      for (size_t k = 0; k < p.num_vars(); ++k) {
        has_seed_var |= taxonomy_->Comparable(
            p.var_type(static_cast<int>(k)), seed_type_);
      }
    }

    for (int i = 0; i < static_cast<int>(p.num_vars()); ++i) {
      if (p.var_type(i) != entry.key.source_type) continue;

      // No-parallel-edges constraint: skip extensions that would repeat an
      // (op, relation) pair out of the same variable. None of the paper's
      // example patterns repeats an (op, relation) pair from one variable.
      bool parallel = false;
      for (const AbstractAction& a : p.actions()) {
        if (a.source_var == i && a.op == entry.key.op &&
            a.relation == entry.key.relation) {
          parallel = true;
          break;
        }
      }
      if (parallel) continue;

      // Option A: introduce a fresh target variable.
      bool fresh_seed_var_blocked =
          !options_.allow_multiple_seed_vars && has_seed_var &&
          taxonomy_->Comparable(entry.key.target_type, seed_type_);
      if (p.num_vars() < kMaxPatternVars &&
          !fresh_seed_var_blocked) {
        out->push_back(ExtensionCandidate{&base, &entry, i, -1});
      }
      // Option B: glue the target onto each compatible existing variable.
      for (int k = 0; k < static_cast<int>(p.num_vars()); ++k) {
        if (k == i || p.var_type(k) != entry.key.target_type) continue;
        bool duplicate_action = false;
        for (const AbstractAction& a : p.actions()) {
          if (a.op == entry.key.op && a.source_var == i &&
              a.target_var == k && a.relation == entry.key.relation) {
            duplicate_action = true;
            break;
          }
        }
        if (duplicate_action) continue;
        out->push_back(ExtensionCandidate{&base, &entry, i, k});
      }
    }
  }

  /// Pure evaluation of one extension candidate: builds the extended
  /// pattern, computes its realization table by joining the base realization
  /// with the action realization (join + span recompute + prune + dedup, on
  /// the engine MinerOptions::join_engine selects), and counts seed support.
  /// Reads the evaluation cache (no writes happen while tasks run) and shared
  /// immutable tables only, so any number of these run concurrently.
  Status EvaluateCandidate(const ExtensionCandidate& c,
                           CandidateResult* out) const {
    const MiningContext::PatternState& base = *c.base;
    const AbstractActionEntry& entry = *c.entry;
    Pattern extended = base.pattern;
    int target_var = c.glue_target >= 0
                         ? c.glue_target
                         : extended.AddVar(entry.key.target_type);
    WICLEAN_RETURN_IF_ERROR(extended.AddAction(entry.key.op, c.glue_source,
                                               entry.key.relation,
                                               target_var));

    out->key = extended.CanonicalKey();
    if (ctx_->evaluated.find(out->key) != ctx_->evaluated.end()) {
      // Cached at snapshot time; commit will re-admit the cached state.
      return Status::OK();
    }
    const size_t n = base.pattern.num_vars();
    RealizationJoinSpec rspec;
    rspec.num_left_vars = n;
    rspec.glue_source_col = static_cast<size_t>(c.glue_source);
    rspec.glue_target_col = c.glue_target;
    if (c.glue_target < 0) {
      // Fresh variable: must bind an entity distinct from every variable
      // it could share a binding with (types on one taxonomy path).
      for (size_t k = 0; k < n; ++k) {
        if (taxonomy_->Comparable(base.pattern.var_type(static_cast<int>(k)),
                                  entry.key.target_type)) {
          rspec.distinct_from_target.push_back(k);
        }
      }
    }
    rspec.max_span = options_.max_realization_span;
    rspec.dedup_keep_tightest = true;
    WICLEAN_ASSIGN_OR_RETURN(
        rel::Table realization,
        join_(base.realizations, entry.realizations, rspec));
    out->support =
        CountDistinctSeedSources(realization, extended.source_var());
    out->pattern = std::move(extended);
    out->realization = std::move(realization);
    out->computed = true;
    return Status::OK();
  }

  /// Serial commit of one evaluated candidate, in enumeration order: inserts
  /// the result into the cache unless the key arrived earlier (same-
  /// generation duplicate routes recompute the same canonical pattern; the
  /// first commit wins, as in the serial code), then replays admission.
  void CommitCandidate(CandidateResult* res, double admission,
                       std::vector<std::string>* admitted_keys,
                       std::vector<uint64_t>* admitted_hashes,
                       std::unordered_set<std::string>* admitted_set,
                       bool mark_frequent) {
    auto it = ctx_->evaluated.find(res->key);
    if (it == ctx_->evaluated.end()) {
      WICLEAN_CHECK(res->computed);
      it = RecordEvaluated(std::move(res->key), std::move(res->pattern),
                           std::move(res->realization), res->support);
    }
    MaybeAdmit(it, admission, admitted_keys, admitted_hashes, admitted_set,
               mark_frequent);
  }

  /// Computes seed support, then stores the evaluation (serial callers).
  MiningContext::EvaluatedMap::iterator RecordEvaluation(
      std::string key, Pattern pattern, rel::Table realization) {
    size_t source_col = static_cast<size_t>(pattern.source_var());
    size_t support = CountDistinctSeedSources(realization, source_col);
    return RecordEvaluated(std::move(key), std::move(pattern),
                           std::move(realization), support);
  }

  /// Stores one evaluation with a precomputed support count, computes its
  /// frequency (Definition 3.2), and applies the realization cache floor.
  MiningContext::EvaluatedMap::iterator RecordEvaluated(
      std::string key, Pattern pattern, rel::Table realization,
      size_t support) {
    ++ctx_->stats.candidates_considered;
    MiningContext::PatternState state;
    state.support = support;
    state.frequency =
        seed_count_ == 0
            ? 0.0
            : static_cast<double>(state.support) / seed_count_;
    state.pattern = std::move(pattern);
    if (state.frequency >= kRealizationCacheMinFrequency) {
      state.realizations = std::move(realization);
    }
    return ctx_->evaluated.emplace(std::move(key), std::move(state)).first;
  }

  void MaybeAdmit(MiningContext::EvaluatedMap::iterator it, double admission,
                  std::vector<std::string>* admitted_keys,
                  std::vector<uint64_t>* admitted_hashes,
                  std::unordered_set<std::string>* admitted_set,
                  bool mark_frequent) {
    if (it->second.support == 0 || it->second.frequency < admission) return;
    if (mark_frequent) it->second.frequent = true;
    if (admitted_set->insert(it->first).second) {
      admitted_keys->push_back(it->first);
      // Key hash rides along with the worklist entry, so the pair-tested
      // loop never re-hashes pattern keys.
      admitted_hashes->push_back(Fnv1a64(it->first));
    }
  }

  /// COUNT(DISTINCT source) restricted to entities(seed_type) (§4.2).
  size_t CountDistinctSeedSources(const rel::Table& realization,
                                  size_t source_col) const {
    std::unordered_set<int64_t> seen;
    const rel::Column& col = realization.column(source_col);
    for (size_t r = 0; r < realization.num_rows(); ++r) {
      if (col.IsNull(r)) continue;
      int64_t e = col.Int64At(r);
      if (taxonomy_->IsA(registry_->TypeOf(e), seed_type_)) seen.insert(e);
    }
    return seen.size();
  }

  /// Algorithm 1 lines 4-8: ingest revision histories of any new entity type
  /// appearing in an admitted pattern. Returns true if anything new arrived.
  /// Once it returns false, the index holds every variable type of every
  /// frequent pattern (PM−inc's full graph holds them all from the start).
  bool IngestPendingTypes() {
    bool grew = false;
    for (const std::string& key : frequent_keys_) {
      const Pattern& p = ctx_->evaluated.at(key).pattern;
      for (TypeId t : p.DistinctVarTypes()) {
        grew = ctx_->index.AddEntitiesOfType(t) > 0 || grew;
      }
    }
    return grew;
  }

  const EntityRegistry* registry_;
  const TypeTaxonomy* taxonomy_;
  const RevisionStore* store_;
  const MinerOptions& options_;
  const RealizationJoinFn join_;
  MiningContext* ctx_;
  TypeId seed_type_;
  size_t seed_count_;

  std::vector<std::string> frequent_keys_;
  std::vector<uint64_t> frequent_hashes_;  // Fnv1a64 of frequent_keys_[i]
  /// Candidate-evaluation pool (MinerOptions::num_threads > 1 only).
  std::unique_ptr<ThreadPool> pool_;
};

PatternMiner::PatternMiner(const EntityRegistry* registry,
                           const RevisionStore* store, MinerOptions options)
    : registry_(registry),
      store_(store),
      options_(options),
      join_(SelectJoin(options.join_engine)) {}

Result<MineWindowResult> PatternMiner::MineWindow(
    TypeId seed_type, const TimeWindow& window,
    std::shared_ptr<MiningContext> reuse) const {
  if (!registry_->taxonomy().IsValid(seed_type)) {
    return Status::InvalidArgument("invalid seed type id");
  }
  if (window.width() <= 0) {
    return Status::InvalidArgument("empty mining window " + window.ToString());
  }
  if (registry_->CountEntitiesOfType(seed_type) == 0) {
    return Status::InvalidArgument(
        "seed type '" + registry_->taxonomy().Name(seed_type) +
        "' has no entities");
  }
  if (reuse != nullptr && !(reuse->index.window() == window)) {
    return Status::InvalidArgument(
        "reused mining context belongs to a different window");
  }
  WICLEAN_RETURN_IF_ERROR(CheckAdmissionFloor(options_.frequency_threshold,
                                              "frequency threshold"));

  MineWindowResult result;
  result.context =
      reuse != nullptr
          ? std::move(reuse)
          : std::make_shared<MiningContext>(registry_, store_, window,
                                            options_);
  MineWindowStats baseline = result.context->stats;
  Impl impl(registry_, store_, options_, join_, result.context.get(),
            seed_type);
  WICLEAN_RETURN_IF_ERROR(impl.MineFrequent());

  // Collect every frequent pattern, then filter to the most specific ones
  // (Definition 3.3) among them.
  std::vector<const Pattern*> frequent;
  for (const std::string& key : impl.frequent_keys()) {
    const MiningContext::PatternState& state =
        result.context->evaluated.at(key);
    frequent.push_back(&state.pattern);
    result.all_frequent.push_back(
        MinedPattern{state.pattern, window, state.frequency, state.support});
  }
  for (size_t i : MostSpecificPatterns(frequent, registry_->taxonomy())) {
    result.most_specific.push_back(result.all_frequent[i]);
  }
  result.stats = result.context->stats;
  result.stats.Subtract(baseline);
  return result;
}

Result<std::vector<PatternMiner::RealizationSpan>>
PatternMiner::EvaluateRealizations(TypeId seed_type, const Pattern& pattern,
                                   const ActionIndex& index) const {
  if (pattern.num_actions() == 0) {
    return Status::InvalidArgument("cannot evaluate an empty pattern");
  }
  if (registry_->CountEntitiesOfType(seed_type) == 0) {
    return Status::InvalidArgument("seed type has no entities");
  }
  const TypeTaxonomy& taxonomy = registry_->taxonomy();
  if (index.max_abstraction_lift() != options_.max_abstraction_lift) {
    return Status::FailedPrecondition(
        "probe index abstracts at lift " +
        std::to_string(index.max_abstraction_lift()) + ", the miner at " +
        std::to_string(options_.max_abstraction_lift));
  }
  for (TypeId t : pattern.DistinctVarTypes()) {
    if (!index.HasType(t)) {
      return Status::FailedPrecondition("probe index does not hold type '" +
                                        taxonomy.Name(t) + "'");
    }
  }
  WICLEAN_ASSIGN_OR_RETURN(std::vector<size_t> order,
                           PatternTraversalOrder(pattern));

  // Per-action realization tables, with §7 value bindings applied. The
  // filtered copies (only materialized for bound patterns) live here so the
  // chain below can keep working with stable pointers.
  std::vector<rel::Table> bound_tables;
  bound_tables.reserve(pattern.num_actions());
  auto realizations_of = [&](size_t ai) -> const rel::Table* {
    const AbstractAction& a = pattern.actions()[ai];
    AbstractActionKey key{a.op, pattern.var_type(a.source_var), a.relation,
                          pattern.var_type(a.target_var)};
    auto it = index.entries().find(key.Encode());
    if (it == index.entries().end()) return nullptr;
    if (!pattern.HasBindings()) return &it->second.realizations;
    bound_tables.push_back(FilterRealizationsByBindings(
        it->second.realizations, pattern.var_binding(a.source_var),
        pattern.var_binding(a.target_var)));
    return &bound_tables.back();
  };

  // Accumulator: one column per bound variable (in binding order), then the
  // running [tmin, tmax] span of the realization's edits.
  std::vector<int> var_col(pattern.num_vars(), -1);
  const AbstractAction& first = pattern.actions()[order[0]];
  size_t bound_vars = 2;
  rel::Table acc(bound_vars + 2);
  if (const rel::Table* r0 = realizations_of(order[0])) {
    for (size_t r = 0; r < r0->num_rows(); ++r) {
      int64_t u = r0->column(0).Int64At(r);
      int64_t v = r0->column(1).Int64At(r);
      int64_t t = r0->column(2).Int64At(r);
      if (u != v) acc.AppendInt64Row({u, v, t, t});
    }
  }
  var_col[first.source_var] = 0;
  var_col[first.target_var] = 1;

  for (size_t step = 1; step < order.size() && acc.num_rows() > 0; ++step) {
    const AbstractAction& a = pattern.actions()[order[step]];
    const rel::Table* ra = realizations_of(order[step]);
    if (ra == nullptr) {
      acc = rel::Table(acc.num_columns());
      break;
    }
    // Join + span recompute; no span prune or dedup here — fixed patterns
    // keep every realization so the window search sees all spans.
    const bool fresh = var_col[a.target_var] < 0;
    RealizationJoinSpec rspec;
    rspec.num_left_vars = bound_vars;
    rspec.glue_source_col = static_cast<size_t>(var_col[a.source_var]);
    rspec.glue_target_col = fresh ? -1 : var_col[a.target_var];
    if (fresh) {
      for (size_t k = 0; k < pattern.num_vars(); ++k) {
        if (var_col[k] < 0 || static_cast<int>(k) == a.target_var) continue;
        if (taxonomy.Comparable(pattern.var_type(static_cast<int>(k)),
                                pattern.var_type(a.target_var))) {
          rspec.distinct_from_target.push_back(
              static_cast<size_t>(var_col[k]));
        }
      }
      var_col[a.target_var] = static_cast<int>(bound_vars);
      ++bound_vars;
    }
    WICLEAN_ASSIGN_OR_RETURN(acc, join_(acc, *ra, rspec));
  }

  std::vector<RealizationSpan> spans;
  size_t source_col = static_cast<size_t>(var_col[pattern.source_var()]);
  for (size_t r = 0; r < acc.num_rows(); ++r) {
    int64_t e = acc.column(source_col).Int64At(r);
    if (!taxonomy.IsA(registry_->TypeOf(e), seed_type)) continue;
    spans.push_back(RealizationSpan{
        e, acc.column(bound_vars).Int64At(r),
        acc.column(bound_vars + 1).Int64At(r)});
  }
  return spans;
}

Result<std::vector<PatternMiner::RealizationSpan>>
PatternMiner::EvaluateRealizations(TypeId seed_type, const Pattern& pattern,
                                   const TimeWindow& window) const {
  return EvaluateRealizations(seed_type, pattern, ProbeIndex(pattern, window));
}

Result<double> PatternMiner::EvaluateFrequency(TypeId seed_type,
                                               const Pattern& pattern,
                                               const ActionIndex& index) const {
  WICLEAN_ASSIGN_OR_RETURN(std::vector<RealizationSpan> spans,
                           EvaluateRealizations(seed_type, pattern, index));
  std::unordered_set<int64_t> seeds;
  for (const RealizationSpan& s : spans) seeds.insert(s.seed);
  size_t seed_count = registry_->CountEntitiesOfType(seed_type);
  return static_cast<double>(seeds.size()) / static_cast<double>(seed_count);
}

Result<double> PatternMiner::EvaluateFrequency(TypeId seed_type,
                                               const Pattern& pattern,
                                               const TimeWindow& window) const {
  return EvaluateFrequency(seed_type, pattern, ProbeIndex(pattern, window));
}

ActionIndex PatternMiner::ProbeIndex(const Pattern& pattern,
                                     const TimeWindow& window) const {
  ActionIndex index(registry_, store_, window, options_.max_abstraction_lift);
  for (TypeId t : pattern.DistinctVarTypes()) index.AddEntitiesOfType(t);
  return index;
}

Result<std::vector<PatternMiner::ValueSpecificPattern>>
PatternMiner::MineValueSpecific(const MiningContext& context,
                                TypeId seed_type, const MinedPattern& base,
                                double min_value_share) const {
  if (min_value_share <= 0 || min_value_share > 1) {
    return Status::InvalidArgument("value share must be in (0, 1]");
  }
  auto it = context.evaluated.find(base.pattern.CanonicalKey());
  if (it == context.evaluated.end()) {
    return Status::InvalidArgument(
        "value-specific mining base pattern was not evaluated in this "
        "context");
  }
  const rel::Table& realization = it->second.realizations;
  const Pattern& p = base.pattern;
  const size_t n = p.num_vars();
  if (realization.num_columns() < n) {
    return Status::FailedPrecondition(
        "base pattern's realization table was evicted (frequency below the "
        "realization cache floor)");
  }
  const TypeTaxonomy& taxonomy = registry_->taxonomy();
  size_t seed_count = registry_->CountEntitiesOfType(seed_type);
  size_t source_col = static_cast<size_t>(p.source_var());

  std::vector<ValueSpecificPattern> out;
  for (size_t v = 0; v < n; ++v) {
    if (static_cast<int>(v) == p.source_var()) continue;
    if (p.var_binding(static_cast<int>(v)) != kInvalidEntityId) continue;
    // value -> distinct seed-type sources realized with that value.
    std::map<int64_t, std::unordered_set<int64_t>> seeds_by_value;
    for (size_t r = 0; r < realization.num_rows(); ++r) {
      int64_t source = realization.column(source_col).Int64At(r);
      if (!taxonomy.IsA(registry_->TypeOf(source), seed_type)) continue;
      seeds_by_value[realization.column(v).Int64At(r)].insert(source);
    }
    for (const auto& [value, seeds] : seeds_by_value) {
      double share = base.support == 0
                         ? 0.0
                         : static_cast<double>(seeds.size()) /
                               static_cast<double>(base.support);
      if (share < min_value_share) continue;
      ValueSpecificPattern vs;
      vs.pattern = p;
      WICLEAN_RETURN_IF_ERROR(
          vs.pattern.BindVar(static_cast<int>(v), value));
      vs.var = static_cast<int>(v);
      vs.value = value;
      vs.share = share;
      vs.support = seeds.size();
      vs.frequency = seed_count == 0
                         ? 0.0
                         : static_cast<double>(seeds.size()) /
                               static_cast<double>(seed_count);
      out.push_back(std::move(vs));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ValueSpecificPattern& a, const ValueSpecificPattern& b) {
              return a.share > b.share;
            });
  return out;
}

Result<std::vector<RelativePattern>> PatternMiner::MineRelative(
    MiningContext* context, TypeId seed_type, const MinedPattern& base,
    double rel_threshold) const {
  if (context == nullptr) {
    return Status::InvalidArgument("MineRelative requires a mining context");
  }
  if (rel_threshold <= 0 || rel_threshold > 1) {
    return Status::InvalidArgument("relative threshold must be in (0, 1]");
  }
  Impl impl(registry_, store_, options_, join_, context, seed_type);
  std::string base_key = base.pattern.CanonicalKey();
  WICLEAN_ASSIGN_OR_RETURN(std::vector<std::string> admitted,
                           impl.MineRelativeFrom(base_key, rel_threshold));
  // Relative frequencies are w.r.t. the base frequency *in this context's
  // window* (the base may have been re-localized afterwards).
  const double base_frequency = context->evaluated.at(base_key).frequency;

  // Most specific relatively-frequent refinements.
  std::vector<const Pattern*> patterns;
  for (const std::string& key : admitted) {
    patterns.push_back(&context->evaluated.at(key).pattern);
  }
  std::vector<RelativePattern> out;
  for (size_t i : MostSpecificPatterns(patterns, registry_->taxonomy())) {
    const MiningContext::PatternState& state =
        context->evaluated.at(admitted[i]);
    RelativePattern rp;
    rp.pattern = state.pattern;
    rp.frequency = state.frequency;
    rp.support = state.support;
    rp.relative_frequency =
        base_frequency > 0 ? state.frequency / base_frequency : 0.0;
    out.push_back(std::move(rp));
  }
  return out;
}

}  // namespace wiclean
