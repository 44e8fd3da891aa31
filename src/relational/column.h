#ifndef WICLEAN_RELATIONAL_COLUMN_H_
#define WICLEAN_RELATIONAL_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"
#include "relational/value.h"

namespace wiclean::relational {

/// One column of a Table: typed contiguous storage plus a validity vector.
///
/// Storage is columnar (vector per physical type) so the hot mining loops —
/// hash-join key extraction and count-distinct over a single column — touch
/// contiguous int64 data instead of boxed values.
class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const { return valid_.size(); }

  /// Appends a typed non-null value. The overload must match type().
  void AppendInt64(int64_t v) {
    WICLEAN_CHECK(type_ == DataType::kInt64);
    ints_.push_back(v);
    valid_.push_back(1);
  }
  void AppendString(std::string v) {
    WICLEAN_CHECK(type_ == DataType::kString);
    strings_.push_back(std::move(v));
    valid_.push_back(1);
  }

  /// Appends a null cell.
  void AppendNull() {
    if (type_ == DataType::kInt64) {
      ints_.push_back(0);
    } else {
      strings_.emplace_back();
    }
    valid_.push_back(0);
  }

  /// Appends any Value; null and type must be consistent with type().
  void AppendValue(const Value& v);

  /// Copies row `row` of `other` (same type) onto the end of this column.
  void AppendFrom(const Column& other, size_t row);

  /// Pre-allocates storage for `n` total rows (payload + validity). Join
  /// kernels call this with exact match counts before bulk output.
  void Reserve(size_t n);

  /// Appends src[rows[0]], src[rows[1]], ... in one pass — the bulk gather
  /// used to build join/filter/dedup outputs without per-cell Value boxing.
  /// `src` must have this column's type; duplicate indices are allowed.
  void AppendGather(const Column& src, const std::vector<uint32_t>& rows);

  /// Appends `n` null cells (bulk outer-join padding).
  void AppendNulls(size_t n);

  /// Appends every row of `src` (same type) — bulk AppendAll/Project path.
  void AppendColumn(const Column& src);

  /// Appends all of `values` as non-null cells; requires kInt64.
  void AppendInt64Bulk(const std::vector<int64_t>& values);

  bool IsNull(size_t row) const { return valid_[row] == 0; }

  /// Typed accessors; undefined for nulls (returns the zero filler) — check
  /// IsNull first when nulls are possible.
  int64_t Int64At(size_t row) const { return ints_[row]; }
  const std::string& StringAt(size_t row) const { return strings_[row]; }

  /// Boxed accessor (allocates for strings); for tests and printing.
  Value ValueAt(size_t row) const;

  /// Raw int64 payload; only meaningful for kInt64 columns. Null slots hold 0.
  const std::vector<int64_t>& int64_data() const { return ints_; }

  /// Raw validity mask (1 = non-null), one byte per row. Lets the columnar
  /// kernels scan nullness contiguously alongside int64_data().
  const std::vector<uint8_t>& validity() const { return valid_; }

 private:
  DataType type_;
  std::vector<int64_t> ints_;
  std::vector<std::string> strings_;
  std::vector<uint8_t> valid_;
};

}  // namespace wiclean::relational

#endif  // WICLEAN_RELATIONAL_COLUMN_H_
