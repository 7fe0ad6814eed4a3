#ifndef DIALITE_TABLE_TABLE_BUILDER_H_
#define DIALITE_TABLE_TABLE_BUILDER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "table/table.h"

namespace dialite {

/// Columnar bulk-ingest handle over one Table: appends cells straight into
/// the typed column lanes, interning string payloads from string_views — no
/// per-cell Value materialization and no Row temporaries. The fast path for
/// streaming producers (the CSV reader); observably identical to AddRow-ing
/// the same cells, including dictionary id assignment order.
///
/// Contract: append exactly one cell to every column, then FinishRow().
/// The table must outlive the builder and must not be mutated through any
/// other API while a row is in flight.
class TableBuilder {
 public:
  /// `table` must outlive this builder.
  explicit TableBuilder(Table* table) : table_(table) {}

  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  /// Pre-allocates lane capacity for `rows` additional rows in every column.
  void ReserveRows(size_t rows);

  void AppendNull(size_t c, NullKind k) { table_->cols_[c].AppendNull(k); }
  void AppendInt(size_t c, int64_t v) { table_->cols_[c].AppendInt(v); }
  void AppendDouble(size_t c, double v) { table_->cols_[c].AppendDouble(v); }
  /// Interns `s` into the table's dictionary and appends the id.
  void AppendString(size_t c, std::string_view s) {
    table_->cols_[c].AppendStringId(table_->dict_.Intern(s));
  }

  /// Commits the in-flight row. Internal error if any column did not
  /// receive exactly one cell since the last commit.
  [[nodiscard]] Status FinishRow();
  /// FinishRow, giving the row `provenance` as AddRow(row, provenance)
  /// does.
  [[nodiscard]] Status FinishRow(std::vector<std::string> provenance);

 private:
  /// OK iff every column received exactly one cell since the last commit.
  Status CheckRow() const;

  Table* table_;
};

}  // namespace dialite

#endif  // DIALITE_TABLE_TABLE_BUILDER_H_
