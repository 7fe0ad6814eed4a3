#ifndef DIALITE_TABLE_TABLE_H_
#define DIALITE_TABLE_TABLE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "table/column_store.h"
#include "table/column_view.h"
#include "table/dictionary.h"
#include "table/schema.h"
#include "table/value.h"

namespace dialite {

/// One row of cells. Rows always have exactly schema.num_columns() cells.
using Row = std::vector<Value>;

/// A named relation: schema + cells + optional per-row provenance.
///
/// Storage is columnar: each column keeps a kind tag and a packed null map
/// per cell, with non-null payloads in typed lanes (int64 / double / 32-bit
/// id into a table-level interned-string dictionary). Hot paths read columns
/// through zero-copy ColumnView handles (`column(c)`); the Value/Row API
/// (`at`, `row`, `AddRow`) is a thin materializing boundary kept for
/// ergonomics and compatibility — `at()` and `row()` build Values on demand
/// and therefore return by value.
///
/// Provenance carries the source-tuple labels the paper prints in its "TIDs"
/// column (e.g. {t1, t7} for an integrated fact assembled from two source
/// tuples). Input tables get singleton provenance assigned by the loader or
/// by StampProvenance(); integration operators union the provenance of the
/// tuples they merge.
class Table {
 public:
  Table() = default;
  explicit Table(std::string name) : name_(std::move(name)) {}
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {
    cols_.resize(schema_.num_columns());
  }

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const Schema& schema() const { return schema_; }
  /// For column renames/retypes only; add columns through AddColumn so the
  /// columnar storage stays in sync with the schema width.
  Schema& mutable_schema() { return schema_; }

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.num_columns(); }

  /// Zero-copy read handle over column `c`. Valid until the table is
  /// mutated or destroyed.
  ColumnView column(size_t c) const {
    return ColumnView(&cols_[c], &dict_);
  }

  /// The table-level interned-string pool backing string cells.
  const StringDictionary& dictionary() const { return dict_; }

  /// Raw columnar storage of column `c` (the snapshot writer's view; prefer
  /// column() everywhere else).
  const ColumnData& column_data(size_t c) const { return cols_[c]; }

  /// Materializes row `r`. Returns by value (cells are decoded from the
  /// column store); bind to `const Row&` or a local, and prefer column()
  /// views in loops.
  Row row(size_t r) const;
  /// Materializes every row — boundary/debug use only.
  std::vector<Row> rows() const;
  /// Materializes cell (r, c). Returns by value; see row().
  Value at(size_t r, size_t c) const { return cols_[c].ValueAt(r, dict_); }
  void set(size_t r, size_t c, Value v) { cols_[c].Set(r, v, &dict_); }

  /// Appends a row; it must match the schema width.
  Status AddRow(Row row);
  /// Appends a row together with its provenance labels.
  Status AddRow(Row row, std::vector<std::string> provenance);

  /// Appends a column filled with `fill` for existing rows; returns index.
  size_t AddColumn(ColumnDef def, const Value& fill);

  /// Builds a table column-major: `columns[c]` holds column c's cells, all
  /// equally long and matching the schema width. The fast construction path
  /// for columnar producers; observably identical to AddRow-ing the
  /// transposed rows.
  static Result<Table> FromColumns(std::string name, Schema schema,
                                   const std::vector<std::vector<Value>>& columns);

  /// Assembles a table whose columns/dictionary may be *borrowed* — backed
  /// by spans into externally owned storage (an mmap'd snapshot section).
  /// `anchor` pins that storage for the table's lifetime and travels with
  /// every copy; mutation privatizes exactly the touched lanes (see
  /// lane.h). The snapshot loader's entry point; not for general use.
  static Table FromBorrowedParts(std::string name, Schema schema,
                                 StringDictionary dict,
                                 std::vector<ColumnData> cols, size_t num_rows,
                                 std::vector<std::vector<std::string>> provenance,
                                 std::shared_ptr<const void> anchor) {
    Table t;
    t.name_ = std::move(name);
    t.schema_ = std::move(schema);
    t.dict_ = std::move(dict);
    t.cols_ = std::move(cols);
    t.num_rows_ = num_rows;
    t.provenance_ = std::move(provenance);
    t.storage_anchor_ = std::move(anchor);
    return t;
  }

  /// Non-null while any column or the dictionary borrows snapshot storage.
  const std::shared_ptr<const void>& storage_anchor() const {
    return storage_anchor_;
  }

  [[nodiscard]] bool has_provenance() const { return !provenance_.empty(); }
  const std::vector<std::string>& provenance(size_t r) const {
    return provenance_[r];
  }
  const std::vector<std::vector<std::string>>& provenance() const {
    return provenance_;
  }

  /// Gives every row the singleton provenance "<prefix><row-index+start>"
  /// (e.g. prefix "t", start 1 → t1, t2, ...), matching the paper's TIDs.
  void StampProvenance(const std::string& prefix, size_t start = 1);

  /// New table containing only the given column indices (provenance kept).
  Table ProjectColumns(const std::vector<size_t>& indices,
                       std::string new_name) const;

  /// Fraction of cells that are null, in [0, 1]. 0 for an empty table.
  double NullFraction() const;

  /// Infers per-column types from current cell payloads (kNull if a column
  /// is entirely null). Does not rewrite cells.
  void RefreshColumnTypes();

  /// Sorts rows by lexicographic Value order (provenance follows rows);
  /// makes printed outputs deterministic.
  void SortRowsLexicographic();

  /// Row multiset equality with EqualsValue-style cell comparison except
  /// nulls compare identical (physical table equality, order-insensitive).
  [[nodiscard]] bool SameRowsAs(const Table& other) const;

  /// Pretty-prints schema + rows (display strings: ± / ⊥ for nulls) with an
  /// optional leading TIDs provenance column, mirroring the paper's figures.
  std::string ToPrettyString(size_t max_rows = 50) const;

 private:
  friend class TableBuilder;  ///< columnar bulk ingest (table_builder.h)

  std::string name_;
  Schema schema_;
  StringDictionary dict_;
  std::vector<ColumnData> cols_;
  size_t num_rows_ = 0;
  std::vector<std::vector<std::string>> provenance_;
  /// Pins mmap'd snapshot storage backing borrowed lanes/dictionary; null
  /// for fully owned tables. Copied with the table (lanes copy their spans).
  std::shared_ptr<const void> storage_anchor_;
};

}  // namespace dialite

#endif  // DIALITE_TABLE_TABLE_H_
