#ifndef WICLEAN_RELATIONAL_COLUMN_H_
#define WICLEAN_RELATIONAL_COLUMN_H_

#include <cstdint>
#include <optional>
#include <vector>

namespace wiclean::relational {

/// One nullable int64 cell. Nullopt is the SQL null produced by full outer
/// joins (Algorithm 3 pads non-matching sides with nulls; a null in a
/// realization row is exactly a "missing edit").
using Cell = std::optional<int64_t>;

/// One column of a Table: contiguous int64 payload plus a validity vector.
/// Every cell the engine stores is an entity id or a timestamp, so int64 is
/// the only type; the hot mining loops — hash-join key extraction and dedup —
/// scan these arrays directly.
class Column {
 public:
  size_t size() const { return valid_.size(); }

  /// Appends a non-null value.
  void AppendInt64(int64_t v) {
    ints_.push_back(v);
    valid_.push_back(1);
  }

  /// Appends a null cell.
  void AppendNull() {
    ints_.push_back(0);
    valid_.push_back(0);
  }

  /// Appends `cell`, null or not.
  void AppendCell(const Cell& cell) {
    if (cell.has_value()) {
      AppendInt64(*cell);
    } else {
      AppendNull();
    }
  }

  /// Copies row `row` of `other` onto the end of this column.
  void AppendFrom(const Column& other, size_t row) {
    ints_.push_back(other.ints_[row]);
    valid_.push_back(other.valid_[row]);
  }

  /// Appends src[rows[0]], src[rows[1]], ... in one pass — the bulk gather
  /// used to build join and dedup outputs. Duplicate indices are allowed.
  void AppendGather(const Column& src, const std::vector<uint32_t>& rows);

  /// Appends `n` null cells (bulk outer-join padding).
  void AppendNulls(size_t n);

  /// Appends all of `values` as non-null cells.
  void AppendInt64Bulk(const std::vector<int64_t>& values);

  bool IsNull(size_t row) const { return valid_[row] == 0; }

  /// Payload of row `row`; undefined for nulls (returns the zero filler) —
  /// check IsNull first when nulls are possible.
  int64_t Int64At(size_t row) const { return ints_[row]; }

  /// Row `row` as a Cell (nullopt for null).
  Cell CellAt(size_t row) const {
    return IsNull(row) ? Cell() : Cell(ints_[row]);
  }

  /// Raw int64 payload. Null slots hold 0.
  const std::vector<int64_t>& int64_data() const { return ints_; }

  /// Raw validity mask (1 = non-null), one byte per row. Lets the columnar
  /// kernels scan nullness contiguously alongside int64_data().
  const std::vector<uint8_t>& validity() const { return valid_; }

 private:
  std::vector<int64_t> ints_;
  std::vector<uint8_t> valid_;
};

}  // namespace wiclean::relational

#endif  // WICLEAN_RELATIONAL_COLUMN_H_
