/// Additional coverage for substrate corners: alternative CSV delimiters,
/// multi-key grouping, Value ordering laws, and pretty-printing.

#include <gtest/gtest.h>

#include <vector>

#include "analyze/aggregate.h"
#include "table/csv.h"
#include "table/table.h"

namespace dialite {
namespace {

// -------------------------------------------------------------- CSV extras

TEST(CsvDelimiterTest, SemicolonDelimited) {
  CsvOptions opt;
  opt.delimiter = ';';
  auto r = CsvReader::Parse("a;b\n1;x,y\n", "t", opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->at(0, 0).as_int(), 1);
  EXPECT_EQ(r->at(0, 1).as_string(), "x,y");  // comma is data now
  // Round trip with the same delimiter.
  std::string csv = CsvWriter::ToString(*r, opt);
  auto back = CsvReader::Parse(csv, "t2", opt);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(r->SameRowsAs(*back));
}

TEST(CsvDelimiterTest, TabDelimited) {
  CsvOptions opt;
  opt.delimiter = '\t';
  auto r = CsvReader::Parse("a\tb\nBerlin\t42\n", "t", opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->at(0, 0).as_string(), "Berlin");
  EXPECT_EQ(r->at(0, 1).as_int(), 42);
}

TEST(CsvHeaderTrimTest, HeaderWhitespaceTrimmed) {
  auto r = CsvReader::Parse("  a  , b \n1,2\n", "t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().column(0).name, "a");
  EXPECT_EQ(r->schema().column(1).name, "b");
}

// ------------------------------------------------------- aggregate extras

TEST(AggregateMultiKeyTest, GroupByTwoColumns) {
  Table t("t", Schema::FromNames({"g1", "g2", "v"}));
  (void)t.AddRow({Value::String("a"), Value::String("x"), Value::Int(1)});
  (void)t.AddRow({Value::String("a"), Value::String("y"), Value::Int(2)});
  (void)t.AddRow({Value::String("a"), Value::String("x"), Value::Int(3)});
  (void)t.AddRow({Value::String("b"), Value::String("x"), Value::Int(4)});
  auto r = Aggregate(t, {"g1", "g2"}, {{AggFn::kSum, "v", "s"}});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 3u);
  // Sorted: (a,x)=4, (a,y)=2, (b,x)=4.
  EXPECT_EQ(r->at(0, 0).as_string(), "a");
  EXPECT_EQ(r->at(0, 1).as_string(), "x");
  EXPECT_DOUBLE_EQ(r->at(0, 2).as_double(), 4.0);
  EXPECT_DOUBLE_EQ(r->at(1, 2).as_double(), 2.0);
  EXPECT_EQ(r->at(2, 0).as_string(), "b");
}

TEST(AggregateMultiKeyTest, NonNumericCellsSkippedInNumericAggs) {
  Table t("t", Schema::FromNames({"v"}));
  (void)t.AddRow({Value::Int(10)});
  (void)t.AddRow({Value::String("not a number at all")});
  (void)t.AddRow({Value::Int(20)});
  auto r = Aggregate(t, {}, {{AggFn::kAvg, "v", ""}, {AggFn::kCount, "v", ""}});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->at(0, 0).as_double(), 15.0);
  EXPECT_EQ(r->at(0, 1).as_int(), 3);  // count counts non-null, not numeric
}

// ------------------------------------------------------ Value order laws

TEST(ValueOrderTest, StrictWeakOrderingSpotChecks) {
  std::vector<Value> vals = {Value::Null(),        Value::ProducedNull(),
                             Value::Int(-5),       Value::Int(0),
                             Value::Double(0.5),   Value::Int(3),
                             Value::String(""),    Value::String("a"),
                             Value::String("b")};
  // Irreflexivity and antisymmetry over the whole set.
  for (const Value& a : vals) {
    EXPECT_FALSE(a < a);
    for (const Value& b : vals) {
      EXPECT_FALSE(a < b && b < a);
    }
  }
  // Transitivity across the category boundaries.
  EXPECT_TRUE(Value::Null() < Value::Int(-5));
  EXPECT_TRUE(Value::Int(-5) < Value::String(""));
  EXPECT_TRUE(Value::Null() < Value::String(""));
}

TEST(ValueOrderTest, SortingMixedVectorIsStablyOrdered) {
  std::vector<Value> vals = {Value::String("zebra"), Value::Int(7),
                             Value::Null(), Value::Double(2.5),
                             Value::String("apple"), Value::ProducedNull()};
  std::sort(vals.begin(), vals.end());
  EXPECT_TRUE(vals[0].is_null());
  EXPECT_TRUE(vals[1].is_null());
  EXPECT_DOUBLE_EQ(vals[2].as_double(), 2.5);
  EXPECT_EQ(vals[3].as_int(), 7);
  EXPECT_EQ(vals[4].as_string(), "apple");
  EXPECT_EQ(vals[5].as_string(), "zebra");
}

// -------------------------------------------------------- pretty printing

TEST(PrettyPrintTest, TruncationNotice) {
  Table t("t", Schema::FromNames({"v"}));
  for (int i = 0; i < 10; ++i) (void)t.AddRow({Value::Int(i)});
  std::string s = t.ToPrettyString(/*max_rows=*/3);
  EXPECT_NE(s.find("7 more rows"), std::string::npos);
}

TEST(PrettyPrintTest, UnnamedColumnPlaceholder) {
  Table t("t", Schema::FromNames({""}));
  (void)t.AddRow({Value::Int(1)});
  EXPECT_NE(t.ToPrettyString().find("(unnamed)"), std::string::npos);
}

}  // namespace
}  // namespace dialite
