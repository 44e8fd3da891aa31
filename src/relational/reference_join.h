#ifndef WICLEAN_RELATIONAL_REFERENCE_JOIN_H_
#define WICLEAN_RELATIONAL_REFERENCE_JOIN_H_

#include "relational/ops.h"

namespace wiclean::relational {

/// The pre-columnar hash join, kept as a differential-testing and
/// benchmarking reference: std::unordered_multimap build side, per-row key
/// hashing, and row-at-a-time AppendConcatRows output. Semantics are
/// identical to HashJoin except that output order within one left row follows
/// multimap equal_range order, which is unspecified — compare results as
/// multisets of rows, not positionally.
///
/// Not used by the mining pipeline; tests and bench/join_kernels only.
[[nodiscard]] Result<Table> ReferenceHashJoin(const Table& left,
                                              const Table& right,
                                              const JoinSpec& spec);

}  // namespace wiclean::relational

#endif  // WICLEAN_RELATIONAL_REFERENCE_JOIN_H_
