#ifndef WICLEAN_RELATIONAL_OPS_H_
#define WICLEAN_RELATIONAL_OPS_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relational/table.h"

namespace wiclean::relational {

/// Describes how a (left, right) row pair matches in a join.
///
/// The pattern miner only ever needs conjunctions of column equalities (glued
/// pattern variables) and column inequalities (a freshly introduced variable
/// must bind to a *different* entity than every same-typed variable already in
/// the pattern — the paper's "distinct variables are assigned different nodes"
/// requirement).
///
/// Null semantics are SQL's: a null compares as neither equal nor unequal, so
/// a row with a null in any referenced column never matches.
struct JoinSpec {
  /// (left column index, right column index) pairs that must be equal.
  std::vector<std::pair<size_t, size_t>> equal_cols;
  /// (left column index, right column index) pairs that must be distinct.
  std::vector<std::pair<size_t, size_t>> not_equal_cols;
  /// Like equal_cols, but a null on either side passes (wildcard match).
  /// Used by Algorithm 3 to let a partially-bound realization absorb an
  /// action that binds one of its still-unbound variables. Never used as a
  /// hash key.
  std::vector<std::pair<size_t, size_t>> wildcard_equal_cols;
  /// When true, the full outer join uses exhaustive pairing even when hash
  /// keys are available — the nested-loop baseline for the Algorithm 3
  /// ablation.
  bool prefer_nested_loop = false;
  /// When true, an inequality involving a null passes ("not provably equal")
  /// instead of failing. Algorithm 3's outer-join chain uses this so that a
  /// partial realization with an unbound variable can still absorb further
  /// actions; plain mining keeps SQL semantics (false).
  bool null_inequality_passes = false;
};

/// Inner equi-join via a hash table built on the right input (the paper's
/// "join-based computation optimized by the underlying SQL engine"; this is
/// the PM fast path). Output columns are left's followed by right's; output
/// rows are ordered by left row then right build order, so results are
/// deterministic.
///
/// Requires at least one equality pair (use NestedLoopJoin for pure theta
/// joins).
[[nodiscard]] Result<Table> HashJoin(const Table& left, const Table& right,
                       const JoinSpec& spec);

/// Inner join by exhaustive pairwise comparison — the PM−join baseline from
/// §6 ("conventional main memory nested loop"). Accepts any JoinSpec,
/// including one with no equality pairs.
[[nodiscard]] Result<Table> NestedLoopJoin(const Table& left, const Table& right,
                             const JoinSpec& spec);

/// Full outer join (Algorithm 3): every matching pair is emitted as in the
/// inner join; left rows with no match are emitted once padded with nulls on
/// the right, and unmatched right rows once padded with nulls on the left.
[[nodiscard]] Result<Table> FullOuterJoin(const Table& left, const Table& right,
                            const JoinSpec& spec);

/// Deduplicates whole rows; nulls compare equal to nulls for dedup
/// purposes. Keeps first occurrences, in input order — Algorithm 3's
/// DISTINCT over the accumulated outer-join relation.
Table DistinctRows(const Table& input);

}  // namespace wiclean::relational

#endif  // WICLEAN_RELATIONAL_OPS_H_
