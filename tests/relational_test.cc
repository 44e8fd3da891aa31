#include <gtest/gtest.h>

#include "relational/ops.h"
#include "relational/table.h"

namespace wiclean::relational {
namespace {

Table MakeTable(const std::vector<std::pair<int64_t, int64_t>>& rows) {
  Table t(2);
  for (const auto& [x, y] : rows) t.AppendInt64Row({x, y});
  return t;
}

// ---------- Table ----------

TEST(TableTest, AppendAndRead) {
  Table t = MakeTable({{1, 2}, {3, 4}});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.column(0).Int64At(1), 3);
  EXPECT_EQ(t.column(1).CellAt(0), Cell(2));
  EXPECT_FALSE(t.column(0).IsNull(0));
}

TEST(TableTest, NullRows) {
  Table t(2);
  t.AppendRow({Cell(1), Cell()});
  EXPECT_FALSE(t.column(0).IsNull(0));
  EXPECT_TRUE(t.column(1).IsNull(0));
  EXPECT_EQ(t.column(1).CellAt(0), std::nullopt);
}

// ---------- Joins ----------

TEST(HashJoinTest, BasicEquiJoin) {
  Table left = MakeTable({{1, 10}, {2, 20}, {3, 30}});
  Table right = MakeTable({{10, 100}, {20, 200}, {99, 999}});
  JoinSpec spec;
  spec.equal_cols = {{1, 0}};  // b == u
  Result<Table> joined = HashJoin(left, right, spec);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 2u);
  EXPECT_EQ(joined->column(3).Int64At(0), 100);
}

TEST(HashJoinTest, RequiresEquality) {
  Table t = MakeTable({{1, 2}});
  JoinSpec spec;  // no equalities
  EXPECT_FALSE(HashJoin(t, t, spec).ok());
}

TEST(HashJoinTest, RejectsOutOfRangeColumns) {
  Table t = MakeTable({{1, 2}});
  JoinSpec spec;
  spec.equal_cols = {{5, 0}};
  EXPECT_FALSE(HashJoin(t, t, spec).ok());
}

TEST(HashJoinTest, InequalityResidual) {
  // Join on a == u, but require b != v.
  Table left = MakeTable({{1, 7}, {1, 8}});
  Table right = MakeTable({{1, 7}});
  JoinSpec spec;
  spec.equal_cols = {{0, 0}};
  spec.not_equal_cols = {{1, 1}};
  Result<Table> joined = HashJoin(left, right, spec);
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined->num_rows(), 1u);
  EXPECT_EQ(joined->column(1).Int64At(0), 8);
}

TEST(HashJoinTest, NullKeysNeverMatch) {
  Table left(2);
  left.AppendRow({Cell(), Cell(1)});
  Table right = MakeTable({{1, 1}});
  JoinSpec spec;
  spec.equal_cols = {{0, 0}};
  Result<Table> joined = HashJoin(left, right, spec);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 0u);
}

TEST(NestedLoopJoinTest, MatchesHashJoinOnEquiJoin) {
  Table left = MakeTable({{1, 10}, {2, 20}, {2, 21}});
  Table right = MakeTable({{2, 5}, {1, 6}});
  JoinSpec spec;
  spec.equal_cols = {{0, 0}};
  Result<Table> h = HashJoin(left, right, spec);
  Result<Table> n = NestedLoopJoin(left, right, spec);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(h->num_rows(), n->num_rows());
}

TEST(NestedLoopJoinTest, SupportsPureThetaJoin) {
  Table left = MakeTable({{1, 0}, {2, 0}});
  Table right = MakeTable({{1, 0}, {3, 0}});
  JoinSpec spec;
  spec.not_equal_cols = {{0, 0}};  // a != u
  Result<Table> joined = NestedLoopJoin(left, right, spec);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 3u);  // (1,3), (2,1), (2,3)
}

// ---------- Full outer join ----------

TEST(FullOuterJoinTest, PadsBothSides) {
  Table left = MakeTable({{1, 10}, {2, 20}});
  Table right = MakeTable({{10, 100}, {30, 300}});
  JoinSpec spec;
  spec.equal_cols = {{1, 0}};
  Result<Table> joined = FullOuterJoin(left, right, spec);
  ASSERT_TRUE(joined.ok());
  // 1 match + 1 left-only + 1 right-only.
  EXPECT_EQ(joined->num_rows(), 3u);
  EXPECT_EQ(joined->num_columns(), 4u);
  // Row 0 is the match; the left-only row is null on the right, the
  // right-only row null on the left.
  EXPECT_FALSE(joined->column(2).IsNull(0));
  EXPECT_TRUE(joined->column(2).IsNull(1));
  EXPECT_TRUE(joined->column(0).IsNull(2));
}

TEST(FullOuterJoinTest, EmptyRightPadsAllLeft) {
  Table left = MakeTable({{1, 10}});
  Table right(2);
  JoinSpec spec;
  spec.equal_cols = {{1, 0}};
  Result<Table> joined = FullOuterJoin(left, right, spec);
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined->num_rows(), 1u);
  EXPECT_TRUE(joined->column(2).IsNull(0));
  EXPECT_TRUE(joined->column(3).IsNull(0));
}

TEST(FullOuterJoinTest, NullInequalityModes) {
  Table left(2);
  left.AppendRow({Cell(1), Cell()});
  Table right = MakeTable({{1, 5}});
  JoinSpec spec;
  spec.equal_cols = {{0, 0}};
  spec.not_equal_cols = {{1, 1}};  // b != v, but b is null

  Result<Table> sql = FullOuterJoin(left, right, spec);
  ASSERT_TRUE(sql.ok());
  EXPECT_EQ(sql->num_rows(), 2u);  // no match: both rows padded

  spec.null_inequality_passes = true;
  Result<Table> tolerant = FullOuterJoin(left, right, spec);
  ASSERT_TRUE(tolerant.ok());
  EXPECT_EQ(tolerant->num_rows(), 1u);  // match
}

TEST(FullOuterJoinTest, WildcardEquality) {
  Table left(2);
  left.AppendRow({Cell(1), Cell()});
  left.AppendRow({Cell(1), Cell(9)});
  Table right = MakeTable({{1, 5}});
  JoinSpec spec;
  spec.equal_cols = {{0, 0}};
  spec.wildcard_equal_cols = {{1, 1}};  // b ~= v (null matches anything)
  Result<Table> joined = FullOuterJoin(left, right, spec);
  ASSERT_TRUE(joined.ok());
  // Row 0 matches (b null); row 1 does not (9 != 5) and is padded.
  EXPECT_EQ(joined->num_rows(), 2u);
}

// ---------- Distinct ----------

TEST(DistinctProjectTest, RemovesDuplicates) {
  Table t = MakeTable({{1, 2}, {1, 2}, {1, 3}});
  Table d = DistinctRows(t);
  EXPECT_EQ(d.num_rows(), 2u);
  EXPECT_EQ(d.column(1).Int64At(1), 3);
}

TEST(DistinctProjectTest, NullsCompareEqualForDedup) {
  Table t(2);
  t.AppendRow({Cell(1), Cell()});
  t.AppendRow({Cell(1), Cell()});
  Table d = DistinctRows(t);
  EXPECT_EQ(d.num_rows(), 1u);
  EXPECT_TRUE(d.column(1).IsNull(0));
}

}  // namespace
}  // namespace wiclean::relational
