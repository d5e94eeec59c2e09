#include "storage/relation.h"

#include <gtest/gtest.h>

#include "exec/operators.h"
#include "storage/catalog.h"

namespace htqo {
namespace {

Relation MakeAb() {
  Relation rel{Schema({{"a", ValueType::kInt64}, {"b", ValueType::kInt64}})};
  rel.AddRow({Value::Int64(1), Value::Int64(10)});
  rel.AddRow({Value::Int64(2), Value::Int64(20)});
  rel.AddRow({Value::Int64(1), Value::Int64(10)});
  rel.AddRow({Value::Int64(3), Value::Int64(30)});
  return rel;
}

// Duplicate elimination through the engine's distinct.
Relation Distinct(const Relation& rel) {
  ExecContext ctx;
  auto out = SpillableDistinct(rel, &ctx);
  EXPECT_TRUE(out.ok());
  return std::move(out.value());
}

TEST(SchemaTest, IndexOfIsCaseInsensitive) {
  Schema s({{"A", ValueType::kInt64}, {"b", ValueType::kString}});
  EXPECT_EQ(s.IndexOf("a"), 0u);
  EXPECT_EQ(s.IndexOf("B"), 1u);
  EXPECT_FALSE(s.IndexOf("c").has_value());
}

TEST(SchemaTest, ProjectPreservesOrder) {
  Schema s({{"a", ValueType::kInt64},
            {"b", ValueType::kString},
            {"c", ValueType::kDouble}});
  Schema p = s.Project({2, 0});
  ASSERT_EQ(p.arity(), 2u);
  EXPECT_EQ(p.column(0).name, "c");
  EXPECT_EQ(p.column(1).name, "a");
}

TEST(RelationTest, AddAndAccess) {
  Relation rel = MakeAb();
  EXPECT_EQ(rel.NumRows(), 4u);
  EXPECT_EQ(rel.At(1, 0), Value::Int64(2));
  EXPECT_EQ(rel.Row(3)[1], Value::Int64(30));
}

TEST(RelationTest, ProjectKeepsDuplicates) {
  Relation p = MakeAb().Project({0});
  EXPECT_EQ(p.NumRows(), 4u);
  EXPECT_EQ(p.arity(), 1u);
}

TEST(RelationTest, DistinctRemovesDuplicates) {
  Relation d = Distinct(MakeAb());
  EXPECT_EQ(d.NumRows(), 3u);
  // First occurrence of every row, in input order.
  EXPECT_EQ(d.At(0, 0), Value::Int64(1));
  EXPECT_EQ(d.At(1, 0), Value::Int64(2));
  EXPECT_EQ(d.At(2, 0), Value::Int64(3));
}

TEST(RelationTest, SortAscendingAndDescending) {
  Relation rel = MakeAb();
  rel.SortBy({0});
  EXPECT_EQ(rel.At(0, 0), Value::Int64(1));
  EXPECT_EQ(rel.At(3, 0), Value::Int64(3));
  rel.SortBy({0}, {true});
  EXPECT_EQ(rel.At(0, 0), Value::Int64(3));
}

TEST(RelationTest, SameRowsAsIgnoresOrder) {
  Relation a = MakeAb();
  Relation b = MakeAb();
  b.SortBy({1}, {true});
  EXPECT_TRUE(a.SameRowsAs(b));
}

TEST(RelationTest, SameRowsAsIsMultisetSensitive) {
  Relation a = MakeAb();
  Relation b = Distinct(MakeAb());
  EXPECT_FALSE(a.SameRowsAs(b));  // duplicate counts differ
}

TEST(RelationTest, ZeroArityRowsActAsBoolean) {
  Relation rel{Schema()};  // zero-arity relation
  EXPECT_EQ(rel.NumRows(), 0u);
  rel.AddRow(std::vector<Value>{});
  rel.AddRow(std::vector<Value>{});
  EXPECT_EQ(rel.NumRows(), 2u);
  Relation d = Distinct(rel);
  EXPECT_EQ(d.NumRows(), 1u);
  EXPECT_EQ(Distinct(Relation{Schema()}).NumRows(), 0u);
}

TEST(CatalogTest, PutFindGet) {
  Catalog catalog;
  catalog.Put("Foo", MakeAb());
  EXPECT_TRUE(catalog.Contains("foo"));
  EXPECT_TRUE(catalog.Contains("FOO"));
  const Relation* rel = catalog.Find("foo");
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->NumRows(), 4u);
  EXPECT_FALSE(catalog.Get("bar").ok());
  EXPECT_EQ(catalog.TotalRows(), 4u);
}

TEST(CatalogTest, PutReplaces) {
  Catalog catalog;
  catalog.Put("foo", MakeAb());
  catalog.Put("foo", Distinct(MakeAb()));
  EXPECT_EQ(catalog.Find("foo")->NumRows(), 3u);
}

TEST(CatalogTest, OverlayReadsThroughAndShadowsWithoutCopying) {
  Catalog base;
  base.Put("foo", MakeAb());
  base.Put("bar", Distinct(MakeAb()));
  Catalog overlay(&base);
  // Fallback hands out the parent's own relation, not a copy.
  EXPECT_EQ(overlay.Find("FOO"), base.Find("foo"));
  EXPECT_EQ(overlay.Find("bar"), base.Find("bar"));
  EXPECT_FALSE(overlay.Get("baz").ok());

  // A local Put shadows the parent's relation and leaves the parent alone.
  Relation one{Schema({{"a", ValueType::kInt64}})};
  one.AddRow({Value::Int64(7)});
  overlay.Put("Bar", one);
  ASSERT_NE(overlay.Find("bar"), base.Find("bar"));
  EXPECT_EQ(overlay.Find("bar")->NumRows(), 1u);
  EXPECT_EQ(base.Find("bar")->NumRows(), 3u);
  overlay.Put("derived", one);
  EXPECT_FALSE(base.Contains("derived"));

  // Names is the sorted union, each name once; TotalRows counts the
  // shadowing relation, not the shadowed one.
  EXPECT_EQ(overlay.Names(),
            (std::vector<std::string>{"bar", "derived", "foo"}));
  EXPECT_EQ(overlay.TotalRows(), 4u + 1u + 1u);

  // Overlays stack: the inner one sees both levels, nearest first.
  Catalog inner(&overlay);
  inner.Put("foo", one);
  EXPECT_EQ(inner.Find("bar"), overlay.Find("bar"));
  EXPECT_EQ(inner.Find("foo")->NumRows(), 1u);
  EXPECT_EQ(overlay.Find("foo"), base.Find("foo"));
  EXPECT_EQ(inner.Names(), overlay.Names());
}

}  // namespace
}  // namespace htqo
