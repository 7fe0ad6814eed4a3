#include <gtest/gtest.h>

#include "table/schema.h"
#include "table/table.h"
#include "table/table_builder.h"
#include "table/value.h"

namespace dialite {
namespace {

// ---------------------------------------------------------------- Value

TEST(ValueTest, DefaultIsMissingNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_TRUE(v.is_missing_null());
  EXPECT_FALSE(v.is_produced_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
}

TEST(ValueTest, ProducedNullKind) {
  Value v = Value::ProducedNull();
  EXPECT_TRUE(v.is_null());
  EXPECT_TRUE(v.is_produced_null());
  EXPECT_EQ(v.ToDisplayString(), "⊥");
  EXPECT_EQ(Value::Null().ToDisplayString(), "±");
}

TEST(ValueTest, TypedPayloads) {
  EXPECT_EQ(Value::Int(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).as_double(), 2.5);
  EXPECT_EQ(Value::String("x").as_string(), "x");
}

TEST(ValueTest, NullNeverEqualsValueWise) {
  // Integration semantics: null matches nothing, not even another null.
  EXPECT_FALSE(Value::Null().EqualsValue(Value::Null()));
  EXPECT_FALSE(Value::Null().EqualsValue(Value::Int(1)));
  EXPECT_FALSE(Value::ProducedNull().EqualsValue(Value::Null()));
  EXPECT_TRUE(Value::Int(1).EqualsValue(Value::Int(1)));
  EXPECT_FALSE(Value::Int(1).EqualsValue(Value::Int(2)));
}

TEST(ValueTest, IdenticalTreatsNullsAlike) {
  // Physical equality: null-kind is bookkeeping, not data.
  EXPECT_TRUE(Value::Null().Identical(Value::ProducedNull()));
  EXPECT_TRUE(Value::String("a").Identical(Value::String("a")));
  EXPECT_FALSE(Value::String("a").Identical(Value::String("b")));
}

TEST(ValueTest, IntDoubleCrossCompare) {
  EXPECT_TRUE(Value::Int(5).Identical(Value::Double(5.0)));
  EXPECT_TRUE(Value::Int(5).EqualsValue(Value::Double(5.0)));
  EXPECT_FALSE(Value::Int(5).Identical(Value::Double(5.5)));
  // Hash must agree with Identical.
  EXPECT_EQ(Value::Int(5).Hash(), Value::Double(5.0).Hash());
}

TEST(ValueTest, AsNumeric) {
  double d = 0.0;
  EXPECT_TRUE(Value::Int(3).AsNumeric(&d));
  EXPECT_DOUBLE_EQ(d, 3.0);
  EXPECT_TRUE(Value::Double(1.5).AsNumeric(&d));
  EXPECT_DOUBLE_EQ(d, 1.5);
  EXPECT_TRUE(Value::String("63%").AsNumeric(&d) == false);
  EXPECT_TRUE(Value::String("2.68").AsNumeric(&d));
  EXPECT_DOUBLE_EQ(d, 2.68);
  EXPECT_FALSE(Value::Null().AsNumeric(&d));
  EXPECT_FALSE(Value::String("Berlin").AsNumeric(&d));
  EXPECT_TRUE(Value::String(" 42 ").AsNumeric(&d));
  EXPECT_DOUBLE_EQ(d, 42.0);
}

TEST(ValueTest, OrderingNullsFirstNumbersBeforeStrings) {
  EXPECT_TRUE(Value::Null() < Value::Int(0));
  EXPECT_TRUE(Value::Int(2) < Value::Int(3));
  EXPECT_TRUE(Value::Int(7) < Value::String("a"));
  EXPECT_TRUE(Value::String("a") < Value::String("b"));
  EXPECT_FALSE(Value::Null() < Value::Null());
}

TEST(ValueTest, CsvAndDisplayStrings) {
  EXPECT_EQ(Value::Null().ToCsvString(), "");
  EXPECT_EQ(Value::Int(12).ToCsvString(), "12");
  EXPECT_EQ(Value::Double(0.25).ToCsvString(), "0.25");
  EXPECT_EQ(Value::String("Boston").ToCsvString(), "Boston");
}

// ---------------------------------------------------------------- Schema

TEST(SchemaTest, FromNamesAndLookup) {
  Schema s = Schema::FromNames({"Country", "City", "Rate"});
  EXPECT_EQ(s.num_columns(), 3u);
  EXPECT_EQ(s.IndexOf("City"), 1u);
  EXPECT_EQ(s.IndexOf("missing"), Schema::npos);
}

TEST(SchemaTest, DuplicateNamesFirstWins) {
  Schema s = Schema::FromNames({"a", "a", "b"});
  EXPECT_EQ(s.IndexOf("a"), 0u);
}

TEST(SchemaTest, AddColumn) {
  Schema s = Schema::FromNames({"a"});
  size_t idx = s.AddColumn(ColumnDef{"b", ValueType::kInt});
  EXPECT_EQ(idx, 1u);
  EXPECT_EQ(s.IndexOf("b"), 1u);
  EXPECT_EQ(s.column(1).type, ValueType::kInt);
}

TEST(SchemaTest, Equality) {
  EXPECT_TRUE(Schema::FromNames({"a", "b"}) == Schema::FromNames({"a", "b"}));
  EXPECT_FALSE(Schema::FromNames({"a"}) == Schema::FromNames({"a", "b"}));
}

// ---------------------------------------------------------------- Table

Table MakeCityTable() {
  Table t("t", Schema::FromNames({"Country", "City", "Rate"}));
  EXPECT_TRUE(t.AddRow({Value::String("Germany"), Value::String("Berlin"),
                        Value::Int(63)})
                  .ok());
  EXPECT_TRUE(t.AddRow({Value::String("Spain"), Value::String("Barcelona"),
                        Value::Int(82)})
                  .ok());
  EXPECT_TRUE(
      t.AddRow({Value::String("Mexico"), Value::String("Mexico City"),
                Value::Null()})
          .ok());
  return t;
}

TEST(TableTest, AddRowChecksWidth) {
  Table t("t", Schema::FromNames({"a", "b"}));
  EXPECT_FALSE(t.AddRow({Value::Int(1)}).ok());
  EXPECT_TRUE(t.AddRow({Value::Int(1), Value::Int(2)}).ok());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, ColumnValuesAndDistinct) {
  Table t = MakeCityTable();
  EXPECT_EQ(ColumnMaterialize(t.column(1)).size(), 3u);
  // Distinct skips nulls.
  EXPECT_EQ(ColumnDistinct(t.column(2)).size(), 2u);
}

TEST(TableTest, ColumnTokenSetLowercasesAndDedups) {
  Table t("t", Schema::FromNames({"c"}));
  ASSERT_TRUE(t.AddRow({Value::String("Berlin")}).ok());
  ASSERT_TRUE(t.AddRow({Value::String("berlin")}).ok());
  ASSERT_TRUE(t.AddRow({Value::Null()}).ok());
  ASSERT_TRUE(t.AddRow({Value::String("Boston")}).ok());
  std::vector<std::string> toks = ColumnTokens(t.column(0));
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0], "berlin");
  EXPECT_EQ(toks[1], "boston");
}

TEST(TableTest, ProjectColumnsKeepsData) {
  Table t = MakeCityTable();
  Table p = t.ProjectColumns({1, 2}, "proj");
  EXPECT_EQ(p.num_columns(), 2u);
  EXPECT_EQ(p.num_rows(), 3u);
  EXPECT_EQ(p.schema().column(0).name, "City");
  EXPECT_EQ(p.at(0, 0).as_string(), "Berlin");
}

TEST(TableTest, NullFraction) {
  Table t = MakeCityTable();
  EXPECT_NEAR(t.NullFraction(), 1.0 / 9.0, 1e-12);
  Table empty("e");
  EXPECT_DOUBLE_EQ(empty.NullFraction(), 0.0);
}

TEST(TableTest, RefreshColumnTypes) {
  Table t("t", Schema::FromNames({"s", "i", "m", "n"}));
  ASSERT_TRUE(t.AddRow({Value::String("a"), Value::Int(1), Value::Int(1),
                        Value::Null()})
                  .ok());
  ASSERT_TRUE(t.AddRow({Value::String("b"), Value::Int(2),
                        Value::Double(2.5), Value::Null()})
                  .ok());
  t.RefreshColumnTypes();
  EXPECT_EQ(t.schema().column(0).type, ValueType::kString);
  EXPECT_EQ(t.schema().column(1).type, ValueType::kInt);
  EXPECT_EQ(t.schema().column(2).type, ValueType::kDouble);  // widened
  EXPECT_EQ(t.schema().column(3).type, ValueType::kNull);    // all-null
}

TEST(TableTest, ProvenanceStampAndCarry) {
  Table t = MakeCityTable();
  t.StampProvenance("t", 1);
  ASSERT_TRUE(t.has_provenance());
  EXPECT_EQ(t.provenance(0), std::vector<std::string>{"t1"});
  EXPECT_EQ(t.provenance(2), std::vector<std::string>{"t3"});
  Table p = t.ProjectColumns({0}, "p");
  ASSERT_TRUE(p.has_provenance());
  EXPECT_EQ(p.provenance(1), std::vector<std::string>{"t2"});
}

TEST(TableTest, SortRowsLexicographic) {
  Table t("t", Schema::FromNames({"a"}));
  ASSERT_TRUE(t.AddRow({Value::String("c")}).ok());
  ASSERT_TRUE(t.AddRow({Value::String("a")}).ok());
  ASSERT_TRUE(t.AddRow({Value::Null()}).ok());
  t.SortRowsLexicographic();
  EXPECT_TRUE(t.at(0, 0).is_null());
  EXPECT_EQ(t.at(1, 0).as_string(), "a");
  EXPECT_EQ(t.at(2, 0).as_string(), "c");
}

TEST(TableTest, SameRowsAsIsOrderInsensitive) {
  Table a("a", Schema::FromNames({"x", "y"}));
  ASSERT_TRUE(a.AddRow({Value::Int(1), Value::String("p")}).ok());
  ASSERT_TRUE(a.AddRow({Value::Int(2), Value::Null()}).ok());
  Table b("b", Schema::FromNames({"x", "y"}));
  ASSERT_TRUE(b.AddRow({Value::Int(2), Value::ProducedNull()}).ok());
  ASSERT_TRUE(b.AddRow({Value::Int(1), Value::String("p")}).ok());
  EXPECT_TRUE(a.SameRowsAs(b));
  Table c("c", Schema::FromNames({"x", "y"}));
  ASSERT_TRUE(c.AddRow({Value::Int(1), Value::String("p")}).ok());
  ASSERT_TRUE(c.AddRow({Value::Int(3), Value::Null()}).ok());
  EXPECT_FALSE(a.SameRowsAs(c));
}

TEST(TableTest, SameRowsAsHandlesDuplicates) {
  Table a("a", Schema::FromNames({"x"}));
  ASSERT_TRUE(a.AddRow({Value::Int(1)}).ok());
  ASSERT_TRUE(a.AddRow({Value::Int(1)}).ok());
  Table b("b", Schema::FromNames({"x"}));
  ASSERT_TRUE(b.AddRow({Value::Int(1)}).ok());
  ASSERT_TRUE(b.AddRow({Value::Int(2)}).ok());
  EXPECT_FALSE(a.SameRowsAs(b));
}

TEST(TableTest, AddColumnFills) {
  Table t = MakeCityTable();
  size_t idx = t.AddColumn(ColumnDef{"new", ValueType::kNull},
                           Value::ProducedNull());
  EXPECT_EQ(idx, 3u);
  EXPECT_EQ(t.num_columns(), 4u);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_TRUE(t.at(r, 3).is_produced_null());
  }
}

TEST(TableTest, PrettyStringContainsHeaderAndNullGlyphs) {
  Table t = MakeCityTable();
  std::string s = t.ToPrettyString();
  EXPECT_NE(s.find("Country"), std::string::npos);
  EXPECT_NE(s.find("Berlin"), std::string::npos);
  EXPECT_NE(s.find("±"), std::string::npos);
}

// ---------------------------------------------------------- TableBuilder

/// The columnar bulk-ingest path must be observably identical to AddRow —
/// same cells, same inferred types, same dictionary id assignment order.
TEST(TableBuilderTest, EquivalentToAddRow) {
  Schema schema = Schema::FromNames({"name", "pop", "rate", "note"});
  Table by_rows("t", schema);
  ASSERT_TRUE(by_rows
                  .AddRow({Value::String("Berlin"), Value::Int(3645000),
                           Value::Double(0.62), Value::String("capital")})
                  .ok());
  ASSERT_TRUE(by_rows
                  .AddRow({Value::String("Boston"), Value::Int(684379),
                           Value::Null(), Value::String("capital")})
                  .ok());
  ASSERT_TRUE(by_rows
                  .AddRow({Value::Null(), Value::Int(0), Value::Double(1.0),
                           Value::String("Berlin")})
                  .ok());
  by_rows.RefreshColumnTypes();

  Table by_builder("t", schema);
  TableBuilder builder(&by_builder);
  builder.ReserveRows(3);
  builder.AppendString(0, "Berlin");
  builder.AppendInt(1, 3645000);
  builder.AppendDouble(2, 0.62);
  builder.AppendString(3, "capital");
  ASSERT_TRUE(builder.FinishRow().ok());
  builder.AppendString(0, "Boston");
  builder.AppendInt(1, 684379);
  builder.AppendNull(2, NullKind::kMissing);
  builder.AppendString(3, "capital");
  ASSERT_TRUE(builder.FinishRow().ok());
  builder.AppendNull(0, NullKind::kMissing);
  builder.AppendInt(1, 0);
  builder.AppendDouble(2, 1.0);
  builder.AppendString(3, "Berlin");
  ASSERT_TRUE(builder.FinishRow().ok());
  by_builder.RefreshColumnTypes();

  ASSERT_EQ(by_builder.num_rows(), by_rows.num_rows());
  EXPECT_TRUE(by_builder.SameRowsAs(by_rows));
  for (size_t c = 0; c < by_rows.num_columns(); ++c) {
    EXPECT_EQ(by_builder.schema().column(c).type, by_rows.schema().column(c).type);
    for (size_t r = 0; r < by_rows.num_rows(); ++r) {
      EXPECT_TRUE(by_builder.at(r, c).Identical(by_rows.at(r, c)))
          << "cell (" << r << ", " << c << ")";
    }
  }
  // Interning happened in the same order → same dictionary ids/contents.
  ASSERT_EQ(by_builder.dictionary().size(), by_rows.dictionary().size());
  for (uint32_t id = 0; id < by_rows.dictionary().size(); ++id) {
    EXPECT_EQ(by_builder.dictionary().view(id), by_rows.dictionary().view(id));
  }
}

TEST(TableBuilderTest, FinishRowRejectsRaggedAppends) {
  Table t("t", Schema::FromNames({"a", "b"}));
  TableBuilder builder(&t);
  builder.AppendInt(0, 1);
  Status s = builder.FinishRow();  // column b got no cell
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  builder.AppendInt(1, 2);
  EXPECT_TRUE(builder.FinishRow().ok());
  EXPECT_EQ(t.num_rows(), 1u);
}

}  // namespace
}  // namespace dialite
