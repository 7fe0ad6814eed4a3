#include "table/table_builder.h"

#include <string>
#include <utility>

namespace dialite {

void TableBuilder::ReserveRows(size_t rows) {
  for (ColumnData& col : table_->cols_) col.Reserve(col.size() + rows);
}

Status TableBuilder::CheckRow() const {
  const size_t want = table_->num_rows_ + 1;
  for (size_t c = 0; c < table_->cols_.size(); ++c) {
    if (table_->cols_[c].size() != want) {
      return Status::Internal(
          "TableBuilder: column " + std::to_string(c) + " has " +
          std::to_string(table_->cols_[c].size()) + " cells at row commit, " +
          "expected " + std::to_string(want));
    }
  }
  return Status::OK();
}

Status TableBuilder::FinishRow() {
  DIALITE_RETURN_IF_ERROR(CheckRow());
  ++table_->num_rows_;
  // Mirror AddRow: tables that already track provenance get an empty entry.
  if (!table_->provenance_.empty()) table_->provenance_.emplace_back();
  return Status::OK();
}

Status TableBuilder::FinishRow(std::vector<std::string> provenance) {
  DIALITE_RETURN_IF_ERROR(CheckRow());
  // Mirror AddRow(row, provenance): earlier rows without any get empty
  // entries.
  if (table_->provenance_.size() < table_->num_rows_) {
    table_->provenance_.resize(table_->num_rows_);
  }
  ++table_->num_rows_;
  table_->provenance_.push_back(std::move(provenance));
  return Status::OK();
}

}  // namespace dialite
