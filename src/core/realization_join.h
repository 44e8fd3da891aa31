#ifndef WICLEAN_CORE_REALIZATION_JOIN_H_
#define WICLEAN_CORE_REALIZATION_JOIN_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/result.h"
#include "relational/table.h"

namespace wiclean {

/// Describes one fused realization-extension step: equi-join a pattern
/// realization table against an abstract-action realization table, recompute
/// each joined row's [tmin, tmax] span, optionally prune rows wider than the
/// reportable window, and optionally deduplicate by variable assignment —
/// all in one pass, without materializing the wide join output.
///
/// Left layout (the miner's invariant): `num_left_vars` variable columns,
/// then tmin, tmax. Right layout: (u, v, t) — one action occurrence per row.
/// All cells are non-null by construction.
struct RealizationJoinSpec {
  /// Number of variable columns on the left (left width = num_left_vars + 2).
  size_t num_left_vars = 0;
  /// Left variable column glued to the action source u (right column 0).
  size_t glue_source_col = 0;
  /// Left variable column glued to the action target v (right column 1), or
  /// -1 to bind v as a fresh variable appended after the left variables.
  int glue_target_col = -1;
  /// Only with a fresh target: left variable columns whose binding must
  /// differ from v (distinct variables bind distinct entities).
  std::vector<size_t> distinct_from_target;
  /// Rows whose recomputed span exceeds this are dropped (pruned *before*
  /// dedup, exactly like the unfused pipeline). Default: no pruning.
  int64_t max_span = std::numeric_limits<int64_t>::max();
  /// When true, keep one row per variable assignment — the one with the
  /// smallest tmax - tmin (ties keep the earliest candidate), in first-
  /// occurrence order. Matches DedupKeepTightest composed after the join.
  bool dedup_keep_tightest = false;
};

/// The fused join → span recompute → prune → dedup operator (the PM fast
/// path). Output layout: left variable columns in order, then — with a fresh
/// target — the bound v column, then tmin, tmax. Candidate rows are produced in left-major order with
/// ascending right rows per left row (identical to NestedLoopJoin order), so
/// the result is deterministic and byte-identical to the unfused
/// join + filter + DedupKeepTightest composition.
[[nodiscard]] Result<relational::Table> JoinRealizations(
    const relational::Table& left, const relational::Table& right,
    const RealizationJoinSpec& spec);

/// The PM−join baseline of the same step (§6.2 "conventional main memory
/// nested loop"): rel::NestedLoopJoin materializes the wide join, then a
/// row-at-a-time pass recomputes spans and prunes, then DedupKeepTightest
/// runs when `spec.dedup_keep_tightest` is set. Same arguments, validation
/// and output as JoinRealizations, row for row.
[[nodiscard]] Result<relational::Table> NestedLoopJoinRealizations(
    const relational::Table& left, const relational::Table& right,
    const RealizationJoinSpec& spec);

/// Signature shared by the two realization-join engines, so a caller picks
/// one once and makes the same call either way.
using RealizationJoinFn = Result<relational::Table> (*)(
    const relational::Table& left, const relational::Table& right,
    const RealizationJoinSpec& spec);

/// Deduplicates a realization table (num_vars variable columns +
/// tmin + tmax) by variable assignment, keeping the tightest span per
/// assignment in first-occurrence order. Flat-hash-table implementation on
/// columnar data; output is identical to ReferenceDedupKeepTightest.
[[nodiscard]] relational::Table DedupKeepTightest(
    const relational::Table& input, size_t num_vars);

/// The pre-columnar dedup (row materialization into vector<vector<int64_t>>
/// with an unordered_map chain index), preserved verbatim as the differential
/// oracle for DedupKeepTightest tests. Not used by the mining pipeline.
[[nodiscard]] relational::Table ReferenceDedupKeepTightest(
    const relational::Table& input, size_t num_vars);

}  // namespace wiclean

#endif  // WICLEAN_CORE_REALIZATION_JOIN_H_
