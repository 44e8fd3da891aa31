#include "relational/column.h"

namespace wiclean::relational {

void Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
  } else if (v.is_int64()) {
    AppendInt64(v.int64());
  } else {
    AppendString(v.string());
  }
}

void Column::AppendFrom(const Column& other, size_t row) {
  WICLEAN_CHECK(type_ == other.type_);
  if (other.IsNull(row)) {
    AppendNull();
  } else if (type_ == DataType::kInt64) {
    AppendInt64(other.ints_[row]);
  } else {
    AppendString(other.strings_[row]);
  }
}

void Column::Reserve(size_t n) {
  if (type_ == DataType::kInt64) {
    ints_.reserve(n);
  } else {
    strings_.reserve(n);
  }
  valid_.reserve(n);
}

void Column::AppendGather(const Column& src, const std::vector<uint32_t>& rows) {
  WICLEAN_CHECK(type_ == src.type_);
  const size_t old = size();
  const size_t n = rows.size();
  const uint32_t* idx = rows.data();
  if (type_ == DataType::kInt64) {
    // resize + indexed stores instead of per-element push_back: join outputs
    // gather millions of cells, and the capacity check per push_back was the
    // single largest cost of output assembly.
    ints_.resize(old + n);
    int64_t* dst = ints_.data() + old;
    const int64_t* s = src.ints_.data();
    for (size_t i = 0; i < n; ++i) dst[i] = s[idx[i]];
  } else {
    strings_.reserve(old + n);
    for (size_t i = 0; i < n; ++i) strings_.push_back(src.strings_[idx[i]]);
  }
  valid_.resize(old + n);
  uint8_t* dv = valid_.data() + old;
  const uint8_t* sv = src.valid_.data();
  for (size_t i = 0; i < n; ++i) dv[i] = sv[idx[i]];
}

void Column::AppendNulls(size_t n) {
  if (type_ == DataType::kInt64) {
    ints_.resize(ints_.size() + n, 0);
  } else {
    strings_.resize(strings_.size() + n);
  }
  valid_.resize(valid_.size() + n, 0);
}

void Column::AppendColumn(const Column& src) {
  WICLEAN_CHECK(type_ == src.type_);
  if (type_ == DataType::kInt64) {
    ints_.insert(ints_.end(), src.ints_.begin(), src.ints_.end());
  } else {
    strings_.insert(strings_.end(), src.strings_.begin(), src.strings_.end());
  }
  valid_.insert(valid_.end(), src.valid_.begin(), src.valid_.end());
}

void Column::AppendInt64Bulk(const std::vector<int64_t>& values) {
  WICLEAN_CHECK(type_ == DataType::kInt64);
  ints_.insert(ints_.end(), values.begin(), values.end());
  valid_.resize(valid_.size() + values.size(), 1);
}

Value Column::ValueAt(size_t row) const {
  if (IsNull(row)) return Value::Null();
  if (type_ == DataType::kInt64) return Value::Int64(ints_[row]);
  return Value::String(strings_[row]);
}

}  // namespace wiclean::relational
