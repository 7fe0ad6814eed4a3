#ifndef DIALITE_TABLE_COLUMN_VIEW_H_
#define DIALITE_TABLE_COLUMN_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "table/column_store.h"
#include "table/dictionary.h"
#include "table/value.h"

namespace dialite {

/// Zero-copy read handle over one column of a Table: typed lane access plus
/// `string_view` access to interned string cells. Views borrow the table's
/// storage — they are valid while the owning Table is alive and its shape is
/// not mutated (AddRow/AddColumn/Set/Sort invalidate outstanding views).
///
/// Every per-cell operation here (render, hash, compare, numeric parse) is
/// defined to produce bit-for-bit the same result as materializing the cell
/// into a Value and calling the corresponding Value method; the Value path
/// stays the semantic reference.
class ColumnView {
 public:
  ColumnView() = default;
  ColumnView(const ColumnData* col, const StringDictionary* dict)
      : col_(col), dict_(dict) {}

  size_t size() const { return col_->size(); }

  CellKind kind(size_t r) const { return col_->kind(r); }
  [[nodiscard]] bool is_null(size_t r) const { return col_->is_null(r); }

  int64_t int_at(size_t r) const { return col_->int_at(r); }
  double double_at(size_t r) const { return col_->double_at(r); }
  uint32_t string_id(size_t r) const { return col_->string_id(r); }
  std::string_view string_at(size_t r) const {
    return dict_->view(col_->string_id(r));
  }

  const ColumnData& data() const { return *col_; }
  const StringDictionary& dictionary() const { return *dict_; }

  /// Materializes cell `r` as a Value (the slow boundary, not the hot path).
  Value value_at(size_t r) const { return col_->ValueAt(r, *dict_); }

  /// Rendering identical to Value::ToCsvString (nulls -> "").
  std::string CsvStringAt(size_t r) const;
  /// Buffer size CsvViewAt needs (FormatDoubleTo's).
  static constexpr size_t kCsvBufferSize = 64;
  /// CsvStringAt without allocating: a string cell views its dictionary
  /// entry, a number renders into `buf` (kCsvBufferSize chars).
  std::string_view CsvViewAt(size_t r, char* buf) const;
  /// Rendering identical to Value::ToDisplayString ("±" / "⊥" for nulls).
  std::string DisplayStringAt(size_t r) const;

  /// Numeric view identical to Value::AsNumeric (string cells parsed;
  /// false leaves *out untouched).
  [[nodiscard]] bool AsNumericAt(size_t r, double* out) const;

  /// Hash identical to Value::Hash on the materialized cell.
  uint64_t HashAt(size_t r, uint64_t seed = 0) const;

 private:
  const ColumnData* col_ = nullptr;
  const StringDictionary* dict_ = nullptr;
};

/// A (column, row) pair — the cheap cell handle for code that passes single
/// cells around without materializing Values.
struct CellRef {
  ColumnView col;
  size_t row = 0;

  CellKind kind() const { return col.kind(row); }
  [[nodiscard]] bool is_null() const { return col.is_null(row); }
  Value Materialize() const { return col.value_at(row); }
};

/// Cell comparisons across (possibly different) tables, identical to the
/// Value operations of the same names. String cells from the same dictionary
/// compare by id; otherwise by bytes.

/// Value::Identical: nulls of any kind match each other; int/double
/// cross-compare numerically.
[[nodiscard]] bool CellsIdentical(const ColumnView& a, size_t ra, const ColumnView& b,
                    size_t rb);

/// Value::EqualsValue: both non-null and Identical.
[[nodiscard]] bool CellsEqualValue(const ColumnView& a, size_t ra, const ColumnView& b,
                     size_t rb);

/// Value::operator<: nulls < numbers (numeric order) < strings (byte order).
[[nodiscard]] bool CellLess(const ColumnView& a, size_t ra, const ColumnView& b, size_t rb);

/// Column scans over a view, for callers that need the values as a list.

/// Every cell of the column as a Value, in row order.
std::vector<Value> ColumnMaterialize(const ColumnView& col);

/// Distinct non-null values under Value::Identical, first-occurrence
/// order. Dictionary ids make the string dedup a flat bitmap instead of
/// hashing.
std::vector<Value> ColumnDistinct(const ColumnView& col);

/// ColumnDistinct rendered through Value::ToCsvString, without
/// materializing Values.
std::vector<std::string> ColumnDistinctCsv(const ColumnView& col);

/// The column's token set, which joinability search and sketching use:
/// distinct non-empty ToLowerAscii(Trim(csv-render)) tokens of non-null
/// cells, first-occurrence order. A per-cell identity prefilter (dict id /
/// int value / double bits) skips re-rendering repeated cells.
std::vector<std::string> ColumnTokens(const ColumnView& col);

}  // namespace dialite

#endif  // DIALITE_TABLE_COLUMN_VIEW_H_
