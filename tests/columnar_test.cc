// Layout-invariance tests for the columnar Table storage: the physical
// representation (typed lanes + interned strings + null map) must be
// unobservable through every public surface — CSV bytes, pretty printing,
// hashing.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "lake/paper_fixtures.h"
#include "table/column_view.h"
#include "table/csv.h"
#include "table/dictionary.h"
#include "table/table.h"

namespace dialite {
namespace {

// ---------------------------------------------------------------------------
// CSV round-trip byte equality on the paper fixtures.

std::vector<Table> PaperTables() {
  std::vector<Table> out;
  out.push_back(paper::MakeT1());
  out.push_back(paper::MakeT2());
  out.push_back(paper::MakeT3());
  out.push_back(paper::MakeT4());
  out.push_back(paper::MakeT5());
  out.push_back(paper::MakeT6());
  out.push_back(paper::MakeFig3Expected());
  return out;
}

TEST(ColumnarCsvTest, PaperFixturesRoundTripByteEqual) {
  for (const Table& t : PaperTables()) {
    const std::string csv = CsvWriter::ToString(t);
    Result<Table> reparsed = CsvReader::Parse(csv, t.name());
    ASSERT_TRUE(reparsed.ok()) << t.name();
    EXPECT_EQ(CsvWriter::ToString(*reparsed), csv) << t.name();
  }
}

// ---------------------------------------------------------------------------
// Row-API construction vs column-major construction must be observably
// identical: SameRowsAs, pretty printing, and per-cell hashes all agree.

Value RandomValue(std::mt19937_64* rng) {
  switch ((*rng)() % 6) {
    case 0:
      return Value::Null(NullKind::kMissing);
    case 1:
      return Value::ProducedNull();
    case 2:
      return Value::Int(static_cast<int64_t>((*rng)() % 1000) - 500);
    case 3:
      return Value::Double(static_cast<double>((*rng)() % 1000) / 8.0);
    case 4:
      return Value::String("city_" + std::to_string((*rng)() % 20));
    default:
      // Strings that also parse as numbers, and the empty-ish edge.
      return Value::String(std::to_string((*rng)() % 50));
  }
}

TEST(ColumnarEquivalenceTest, RowApiVsFromColumnsProperty) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t ncols = 1 + rng() % 4;
    const size_t nrows = rng() % 30;
    std::vector<std::string> names;
    for (size_t c = 0; c < ncols; ++c) names.push_back("c" + std::to_string(c));
    Schema schema = Schema::FromNames(names);

    std::vector<std::vector<Value>> columns(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      for (size_t r = 0; r < nrows; ++r) columns[c].push_back(RandomValue(&rng));
    }

    Table by_rows("t", schema);
    for (size_t r = 0; r < nrows; ++r) {
      Row row;
      for (size_t c = 0; c < ncols; ++c) row.push_back(columns[c][r]);
      ASSERT_TRUE(by_rows.AddRow(std::move(row)).ok());
    }
    Result<Table> by_cols = Table::FromColumns("t", schema, columns);
    ASSERT_TRUE(by_cols.ok());

    EXPECT_TRUE(by_rows.SameRowsAs(*by_cols)) << "trial " << trial;
    EXPECT_TRUE(by_cols->SameRowsAs(by_rows)) << "trial " << trial;
    EXPECT_EQ(by_rows.ToPrettyString(), by_cols->ToPrettyString());
    EXPECT_EQ(CsvWriter::ToString(by_rows), CsvWriter::ToString(*by_cols));
    for (size_t c = 0; c < ncols; ++c) {
      const ColumnView a = by_rows.column(c);
      const ColumnView b = by_cols->column(c);
      for (size_t r = 0; r < nrows; ++r) {
        EXPECT_EQ(a.HashAt(r), b.HashAt(r));
        EXPECT_EQ(a.HashAt(r), by_rows.at(r, c).Hash());
      }
    }
  }
}

TEST(ColumnarEquivalenceTest, FromColumnsRejectsRaggedInput) {
  Schema schema = Schema::FromNames({"a", "b"});
  std::vector<std::vector<Value>> ragged = {{Value::Int(1), Value::Int(2)},
                                            {Value::Int(3)}};
  EXPECT_FALSE(Table::FromColumns("t", schema, ragged).ok());
  std::vector<std::vector<Value>> wrong_width = {{Value::Int(1)}};
  EXPECT_FALSE(Table::FromColumns("t", schema, wrong_width).ok());
}

// ---------------------------------------------------------------------------
// Dictionary interning.

TEST(StringDictionaryTest, InternDedupsAndKeepsFirstInternOrder) {
  StringDictionary dict;
  const uint32_t oslo = dict.Intern("Oslo");
  const uint32_t dallas = dict.Intern("Dallas");
  EXPECT_EQ(oslo, 0u);
  EXPECT_EQ(dallas, 1u);
  EXPECT_EQ(dict.Intern("Oslo"), oslo);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.view(oslo), "Oslo");
  EXPECT_EQ(dict.view(dallas), "Dallas");
  EXPECT_EQ(dict.Find("Oslo"), oslo);
  EXPECT_EQ(dict.Find("Bergen"), StringDictionary::kNpos);
}

TEST(StringDictionaryTest, CopyRebuildsIndexAgainstOwnStorage) {
  StringDictionary dict;
  dict.Intern("alpha");
  dict.Intern("beta");
  StringDictionary copy = dict;
  dict.Intern("gamma");  // must not disturb the copy
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.Find("alpha"), 0u);
  EXPECT_EQ(copy.Intern("beta"), 1u);
  EXPECT_EQ(copy.Intern("delta"), 2u);
  EXPECT_EQ(dict.Find("delta"), StringDictionary::kNpos);
}

TEST(ColumnarStorageTest, TableDictionarySharedAcrossColumns) {
  Table t("t", Schema::FromNames({"a", "b"}));
  ASSERT_TRUE(t.AddRow({Value::String("x"), Value::String("x")}).ok());
  ASSERT_TRUE(t.AddRow({Value::String("y"), Value::String("x")}).ok());
  EXPECT_EQ(t.dictionary().size(), 2u);
  EXPECT_EQ(t.column(0).string_id(0), t.column(1).string_id(0));
  EXPECT_EQ(t.column(0).string_at(1), "y");
}

// ---------------------------------------------------------------------------
// Null kinds survive the store.

TEST(ColumnarStorageTest, NullKindsPreserved) {
  Table t("t", Schema::FromNames({"a"}));
  ASSERT_TRUE(t.AddRow({Value::Null(NullKind::kMissing)}).ok());
  ASSERT_TRUE(t.AddRow({Value::ProducedNull()}).ok());
  ASSERT_TRUE(t.AddRow({Value::Int(3)}).ok());
  const ColumnView col = t.column(0);
  EXPECT_EQ(col.kind(0), CellKind::kMissingNull);
  EXPECT_EQ(col.kind(1), CellKind::kProducedNull);
  EXPECT_EQ(col.kind(2), CellKind::kInt);
  EXPECT_TRUE(t.at(0, 0).is_missing_null());
  EXPECT_TRUE(t.at(1, 0).is_produced_null());
  EXPECT_EQ(col.DisplayStringAt(0), Value::Null(NullKind::kMissing).ToDisplayString());
  EXPECT_EQ(col.DisplayStringAt(1), Value::ProducedNull().ToDisplayString());
}

TEST(ColumnarStorageTest, SetRewritesCellAcrossTypes) {
  Table t("t", Schema::FromNames({"a"}));
  ASSERT_TRUE(t.AddRow({Value::Int(1)}).ok());
  t.set(0, 0, Value::String("now a string"));
  EXPECT_EQ(t.at(0, 0), Value::String("now a string"));
  t.set(0, 0, Value::Double(2.5));
  EXPECT_EQ(t.at(0, 0), Value::Double(2.5));
  t.set(0, 0, Value::ProducedNull());
  EXPECT_TRUE(t.at(0, 0).is_produced_null());
}

// ---------------------------------------------------------------------------
// ColumnView per-cell operations match the Value reference implementation.

TEST(ColumnViewTest, PerCellOpsMatchValueMethods) {
  Table t("t", Schema::FromNames({"a"}));
  const std::vector<Value> cells = {
      Value::Int(42),          Value::Double(5.0),
      Value::Double(2.75),     Value::String("Quebec City"),
      Value::String("17"),     Value::Null(NullKind::kMissing),
      Value::ProducedNull(),   Value::Double(-0.0),
      Value::Int(-7),          Value::String(""),
  };
  for (const Value& v : cells) ASSERT_TRUE(t.AddRow({v}).ok());
  const ColumnView col = t.column(0);
  for (size_t r = 0; r < cells.size(); ++r) {
    const Value& v = cells[r];
    EXPECT_EQ(col.CsvStringAt(r), v.ToCsvString()) << r;
    EXPECT_EQ(col.DisplayStringAt(r), v.ToDisplayString()) << r;
    EXPECT_EQ(col.HashAt(r), v.Hash()) << r;
    EXPECT_EQ(col.HashAt(r, 99), v.Hash(99)) << r;
    double dv = 0.0;
    double dc = 0.0;
    EXPECT_EQ(col.AsNumericAt(r, &dc), v.AsNumeric(&dv)) << r;
    if (v.AsNumeric(&dv)) {
      EXPECT_EQ(dc, dv) << r;
    }
    EXPECT_EQ(col.value_at(r), v) << r;
  }
}

TEST(ColumnViewTest, CellsIdenticalCrossNumericAndNulls) {
  Table t("t", Schema::FromNames({"a", "b"}));
  ASSERT_TRUE(t.AddRow({Value::Int(5), Value::Double(5.0)}).ok());
  ASSERT_TRUE(
      t.AddRow({Value::Null(NullKind::kMissing), Value::ProducedNull()}).ok());
  ASSERT_TRUE(t.AddRow({Value::String("x"), Value::String("x")}).ok());
  ASSERT_TRUE(t.AddRow({Value::Int(5), Value::Int(6)}).ok());
  const ColumnView a = t.column(0);
  const ColumnView b = t.column(1);
  EXPECT_TRUE(CellsIdentical(a, 0, b, 0));   // 5 == 5.0
  EXPECT_TRUE(CellsIdentical(a, 1, b, 1));   // nulls of both kinds identical
  EXPECT_TRUE(CellsIdentical(a, 2, b, 2));   // same interned string
  EXPECT_FALSE(CellsIdentical(a, 3, b, 3));  // 5 != 6
  EXPECT_FALSE(CellsEqualValue(a, 1, b, 1));  // EqualsValue is non-null only
  EXPECT_TRUE(CellsEqualValue(a, 0, b, 0));
}

// ---------------------------------------------------------------------------
// Projection re-interns into a minimal dictionary.

TEST(ColumnarStorageTest, ProjectColumnsReinternsDictionary) {
  Table t("t", Schema::FromNames({"keep", "drop"}));
  ASSERT_TRUE(t.AddRow({Value::String("kept"), Value::String("dropped")}).ok());
  ASSERT_TRUE(t.AddRow({Value::String("kept"), Value::String("junk")}).ok());
  EXPECT_EQ(t.dictionary().size(), 3u);
  Table p = t.ProjectColumns({0}, "p");
  EXPECT_EQ(p.dictionary().size(), 1u);
  EXPECT_EQ(p.at(0, 0), Value::String("kept"));
  EXPECT_EQ(p.at(1, 0), Value::String("kept"));
}

// ---------------------------------------------------------------------------
// Sorting reorders the typed lanes coherently (values + provenance).

TEST(ColumnarStorageTest, SortRowsReordersLanesAndProvenance) {
  Table t("t", Schema::FromNames({"a", "b"}));
  ASSERT_TRUE(t.AddRow({Value::String("z"), Value::Int(1)}, {"t3"}).ok());
  ASSERT_TRUE(t.AddRow({Value::Int(2), Value::String("y")}, {"t1"}).ok());
  ASSERT_TRUE(t.AddRow({Value::Null(), Value::Double(0.5)}, {"t2"}).ok());
  t.SortRowsLexicographic();
  // Value order: nulls < numbers < strings.
  EXPECT_TRUE(t.at(0, 0).is_null());
  EXPECT_EQ(t.at(1, 0), Value::Int(2));
  EXPECT_EQ(t.at(2, 0), Value::String("z"));
  EXPECT_EQ(t.provenance(0), std::vector<std::string>{"t2"});
  EXPECT_EQ(t.provenance(1), std::vector<std::string>{"t1"});
  EXPECT_EQ(t.provenance(2), std::vector<std::string>{"t3"});
}

}  // namespace
}  // namespace dialite
