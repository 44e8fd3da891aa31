#ifndef WICLEAN_RELATIONAL_TABLE_H_
#define WICLEAN_RELATIONAL_TABLE_H_

#include <vector>

#include "relational/column.h"

namespace wiclean::relational {

/// An in-memory columnar relation of a fixed number of nullable int64
/// columns. This is the engine's only table representation: pattern
/// realizations, abstract-action realizations, and all join results are
/// Tables. Columns are addressed by position; a join's output is the left
/// input's columns followed by the right input's.
///
/// A Table owns its columns; it is movable and copyable (copies are deep).
class Table {
 public:
  /// Creates an empty table with `num_columns` columns.
  explicit Table(size_t num_columns = 0) : columns_(num_columns) {}

  /// Builds a table directly from whole columns (moved in); all columns must
  /// have equal sizes. The bulk construction path for the columnar kernels —
  /// no per-row appends.
  static Table FromColumns(std::vector<Column> columns);

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }

  const Column& column(size_t i) const { return columns_[i]; }

  /// Appends one row; its width must match (checked).
  void AppendRow(const std::vector<Cell>& row);

  /// Appends a row of non-null cells; its width must match (checked).
  void AppendInt64Row(const std::vector<int64_t>& row);

  /// Copies row `row` of `other` (same width) onto this table's end.
  void AppendRowFrom(const Table& other, size_t row);

  /// Copies the concatenation of `left[lrow]` and `right[rrow]` (used by join
  /// outputs, which are left's columns followed by right's).
  void AppendConcatRows(const Table& left, size_t lrow, const Table& right,
                        size_t rrow);

  /// Bulk join-output construction: appends, for each i, the concatenation
  /// of left[lrows[i]] and right[rrows[i]]. This table must be exactly
  /// left.num_columns() + right.num_columns() wide.
  void AppendConcatGather(const Table& left, const std::vector<uint32_t>& lrows,
                          const Table& right,
                          const std::vector<uint32_t>& rrows);

  /// Bulk outer-join padding: appends `rows.size()` rows where the columns
  /// [col_offset, col_offset + src.num_columns()) hold the gathered rows of
  /// `src` and every other column is null.
  void AppendGatherPadded(const Table& src, const std::vector<uint32_t>& rows,
                          size_t col_offset);

 private:
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace wiclean::relational

#endif  // WICLEAN_RELATIONAL_TABLE_H_
