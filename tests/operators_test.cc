#include "exec/operators.h"

#include <gtest/gtest.h>

#include "sql/parser.h"
#include "test_util.h"

namespace htqo {
namespace {

class OperatorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.Put("r", IntRelation({"a", "b"}, {{1, 10}, {2, 20}, {3, 30},
                                               {2, 25}}));
    catalog_.Put("s", IntRelation({"b", "c"}, {{10, 100}, {20, 200},
                                               {20, 201}, {40, 400}}));
  }

  ResolvedQuery Resolve(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().message();
    auto rq = IsolateConjunctiveQuery(*stmt, catalog_,
                                      IsolatorOptions{TidMode::kNone});
    EXPECT_TRUE(rq.ok()) << rq.status().message();
    return std::move(rq.value());
  }

  Catalog catalog_;
};

TEST_F(OperatorsTest, ScanAtomProjectsToVariables) {
  ResolvedQuery rq =
      Resolve("SELECT DISTINCT r.a FROM r, s WHERE r.b = s.b");
  ExecContext ctx;
  auto scan = ScanAtom(rq, 0, catalog_, &ctx);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->NumRows(), 4u);
  EXPECT_EQ(scan->arity(), 2u);  // vars a, b
  EXPECT_TRUE(scan->schema().IndexOf("a").has_value());
  EXPECT_TRUE(scan->schema().IndexOf("b").has_value());
}

TEST_F(OperatorsTest, ScanAtomAppliesFilters) {
  ResolvedQuery rq = Resolve(
      "SELECT DISTINCT r.a FROM r, s WHERE r.b = s.b AND r.a >= 2");
  ExecContext ctx;
  auto scan = ScanAtom(rq, 0, catalog_, &ctx);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->NumRows(), 3u);  // rows with a in {2,2,3}
}

TEST_F(OperatorsTest, ScanAtomAppliesIntraAtomVariableEquality) {
  catalog_.Put("t", IntRelation({"x", "y"}, {{1, 1}, {1, 2}, {3, 3}}));
  ResolvedQuery rq =
      Resolve("SELECT DISTINCT t.x FROM t WHERE t.x = t.y");
  ExecContext ctx;
  auto scan = ScanAtom(rq, 0, catalog_, &ctx);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->NumRows(), 2u);  // (1,1) and (3,3)
  EXPECT_EQ(scan->arity(), 1u);    // one variable for both columns
}

TEST_F(OperatorsTest, ScanAtomLocalComparison) {
  catalog_.Put("t", IntRelation({"x", "y"}, {{1, 5}, {7, 2}, {3, 3}}));
  ResolvedQuery rq =
      Resolve("SELECT DISTINCT t.x FROM t WHERE t.x < t.y");
  ExecContext ctx;
  auto scan = ScanAtom(rq, 0, catalog_, &ctx);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->NumRows(), 1u);
  EXPECT_EQ(scan->At(0, 0), Value::Int64(1));
}

TEST_F(OperatorsTest, HashAndNestedLoopJoinsAgree) {
  ResolvedQuery rq =
      Resolve("SELECT DISTINCT r.a FROM r, s WHERE r.b = s.b");
  ExecContext ctx;
  auto left = ScanAtom(rq, 0, catalog_, &ctx);
  auto right = ScanAtom(rq, 1, catalog_, &ctx);
  ASSERT_TRUE(left.ok() && right.ok());
  auto hj = NaturalHashJoin(*left, *right, &ctx);
  auto nl = NaturalNestedLoopJoin(*left, *right, &ctx);
  ASSERT_TRUE(hj.ok() && nl.ok());
  // (1,10)x(10,100), (2,20)x(20,200), (2,20)x(20,201) = 3 rows.
  EXPECT_EQ(hj->NumRows(), 3u);
  EXPECT_TRUE(hj->SameRowsAs(*nl));
  // Joined schema: left columns (a, b) + right-only columns. s.c carries no
  // variable (it is unused by the query), so nothing is right-only here.
  EXPECT_EQ(hj->arity(), 2u);
}

TEST_F(OperatorsTest, HashJoinEmitsEveryPairOfDuplicateKeys) {
  // 2x3 duplicate keys must produce a 6-row cross block.
  Relation a = IntRelation({"k", "x"}, {{1, 10}, {1, 11}, {2, 20}});
  Relation b = IntRelation({"k", "y"}, {{1, 91}, {1, 92}, {1, 93}, {3, 30}});
  ExecContext ctx;
  auto hj = NaturalHashJoin(a, b, &ctx);
  auto nl = NaturalNestedLoopJoin(a, b, &ctx);
  ASSERT_TRUE(hj.ok() && nl.ok());
  EXPECT_EQ(hj->NumRows(), 6u);
  EXPECT_TRUE(hj->SameRowsAs(*nl));
}

TEST_F(OperatorsTest, JoinWithNoSharedColumnsIsCrossProduct) {
  Relation a = IntRelation({"x"}, {{1}, {2}});
  Relation b = IntRelation({"y"}, {{7}, {8}, {9}});
  ExecContext ctx;
  auto hj = NaturalHashJoin(a, b, &ctx);
  auto nl = NaturalNestedLoopJoin(a, b, &ctx);
  ASSERT_TRUE(hj.ok() && nl.ok());
  EXPECT_EQ(hj->NumRows(), 6u);
  EXPECT_TRUE(hj->SameRowsAs(*nl));
}

TEST_F(OperatorsTest, SemiJoinFiltersLeft) {
  Relation left = IntRelation({"b", "z"}, {{10, 1}, {20, 2}, {30, 3}});
  Relation right = IntRelation({"b"}, {{10}, {20}, {99}});
  ExecContext ctx;
  auto semi = NaturalSemiJoin(left, right, &ctx);
  ASSERT_TRUE(semi.ok());
  EXPECT_EQ(semi->NumRows(), 2u);
  EXPECT_EQ(semi->arity(), 2u);  // schema unchanged
}

TEST_F(OperatorsTest, SemiJoinDegenerateNoSharedColumns) {
  Relation left = IntRelation({"x"}, {{1}, {2}});
  Relation empty = IntRelation({"y"}, {});
  Relation nonempty = IntRelation({"y"}, {{5}});
  ExecContext ctx;
  auto gone = NaturalSemiJoin(left, empty, &ctx);
  ASSERT_TRUE(gone.ok());
  EXPECT_EQ(gone->NumRows(), 0u);
  auto kept = NaturalSemiJoin(left, nonempty, &ctx);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->NumRows(), 2u);
}

TEST_F(OperatorsTest, RowBudgetTripsResourceExhausted) {
  ResolvedQuery rq =
      Resolve("SELECT DISTINCT r.a FROM r, s WHERE r.b = s.b");
  ExecContext ctx;
  ctx.row_budget = 2;
  auto scan = ScanAtom(rq, 0, catalog_, &ctx);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(OperatorsTest, WorkBudgetTripsOnNestedLoop) {
  Relation a = IntRelation({"x"}, {{1}, {2}, {3}});
  Relation b = IntRelation({"y"}, {{1}, {2}, {3}});
  ExecContext ctx;
  ctx.work_budget = 4;  // 9 probes needed
  auto nl = NaturalNestedLoopJoin(a, b, &ctx);
  ASSERT_FALSE(nl.ok());
  EXPECT_EQ(nl.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(OperatorsTest, ProjectByNameDistinct) {
  Relation rel = IntRelation({"a", "b"}, {{1, 1}, {1, 2}, {1, 3}});
  ExecContext ctx;
  auto p = ProjectByName(rel, {"a"}, &ctx);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->NumRows(), 1u);
  auto distinct = SpillableDistinct(rel.Project(IndicesOf(rel, {"a"})), &ctx);
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ(distinct->NumRows(), 1u);
  Relation keep = rel.Project(IndicesOf(rel, {"b", "a"}));
  EXPECT_EQ(keep.NumRows(), 3u);
  EXPECT_EQ(keep.schema().column(0).name, "b");
}

}  // namespace
}  // namespace htqo
