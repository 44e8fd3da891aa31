#include "relational/table.h"

#include "common/logging.h"

namespace wiclean::relational {

Table Table::FromColumns(std::vector<Column> columns) {
  Table out;
  for (const Column& c : columns) {
    WICLEAN_CHECK(c.size() == columns[0].size());
  }
  out.num_rows_ = columns.empty() ? 0 : columns[0].size();
  out.columns_ = std::move(columns);
  return out;
}

void Table::AppendRow(const std::vector<Cell>& row) {
  WICLEAN_CHECK(row.size() == columns_.size())
      << "row width " << row.size() << " vs table " << columns_.size();
  for (size_t i = 0; i < row.size(); ++i) columns_[i].AppendCell(row[i]);
  ++num_rows_;
}

void Table::AppendInt64Row(const std::vector<int64_t>& row) {
  WICLEAN_CHECK(row.size() == columns_.size());
  for (size_t i = 0; i < row.size(); ++i) columns_[i].AppendInt64(row[i]);
  ++num_rows_;
}

void Table::AppendRowFrom(const Table& other, size_t row) {
  WICLEAN_CHECK(other.num_columns() == num_columns());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].AppendFrom(other.columns_[i], row);
  }
  ++num_rows_;
}

void Table::AppendConcatRows(const Table& left, size_t lrow, const Table& right,
                             size_t rrow) {
  WICLEAN_CHECK(left.num_columns() + right.num_columns() == num_columns());
  for (size_t i = 0; i < left.num_columns(); ++i) {
    columns_[i].AppendFrom(left.columns_[i], lrow);
  }
  for (size_t i = 0; i < right.num_columns(); ++i) {
    columns_[left.num_columns() + i].AppendFrom(right.columns_[i], rrow);
  }
  ++num_rows_;
}

void Table::AppendConcatGather(const Table& left,
                               const std::vector<uint32_t>& lrows,
                               const Table& right,
                               const std::vector<uint32_t>& rrows) {
  WICLEAN_CHECK(left.num_columns() + right.num_columns() == num_columns());
  WICLEAN_CHECK(lrows.size() == rrows.size());
  for (size_t i = 0; i < left.num_columns(); ++i) {
    columns_[i].AppendGather(left.columns_[i], lrows);
  }
  for (size_t i = 0; i < right.num_columns(); ++i) {
    columns_[left.num_columns() + i].AppendGather(right.columns_[i], rrows);
  }
  num_rows_ += lrows.size();
}

void Table::AppendGatherPadded(const Table& src,
                               const std::vector<uint32_t>& rows,
                               size_t col_offset) {
  WICLEAN_CHECK(col_offset + src.num_columns() <= num_columns());
  for (size_t i = 0; i < num_columns(); ++i) {
    if (i >= col_offset && i < col_offset + src.num_columns()) {
      columns_[i].AppendGather(src.columns_[i - col_offset], rows);
    } else {
      columns_[i].AppendNulls(rows.size());
    }
  }
  num_rows_ += rows.size();
}

}  // namespace wiclean::relational
