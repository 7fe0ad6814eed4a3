#include "table/table.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "common/string_util.h"

namespace dialite {

Row Table::row(size_t r) const {
  Row out;
  out.reserve(cols_.size());
  for (const ColumnData& col : cols_) out.push_back(col.ValueAt(r, dict_));
  return out;
}

std::vector<Row> Table::rows() const {
  std::vector<Row> out;
  out.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) out.push_back(row(r));
  return out;
}

Status Table::AddRow(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " cells, schema has " +
        std::to_string(schema_.num_columns()));
  }
  for (size_t c = 0; c < row.size(); ++c) cols_[c].Append(row[c], &dict_);
  ++num_rows_;
  if (!provenance_.empty()) provenance_.emplace_back();
  return Status::OK();
}

Status Table::AddRow(Row row, std::vector<std::string> provenance) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " cells, schema has " +
        std::to_string(schema_.num_columns()));
  }
  if (provenance_.size() < num_rows_) provenance_.resize(num_rows_);
  for (size_t c = 0; c < row.size(); ++c) cols_[c].Append(row[c], &dict_);
  ++num_rows_;
  provenance_.push_back(std::move(provenance));
  return Status::OK();
}

size_t Table::AddColumn(ColumnDef def, const Value& fill) {
  size_t idx = schema_.AddColumn(std::move(def));
  cols_.emplace_back();
  ColumnData& col = cols_.back();
  for (size_t r = 0; r < num_rows_; ++r) col.Append(fill, &dict_);
  return idx;
}

Result<Table> Table::FromColumns(std::string name, Schema schema,
                                 const std::vector<std::vector<Value>>& columns) {
  if (columns.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        "got " + std::to_string(columns.size()) + " columns, schema has " +
        std::to_string(schema.num_columns()));
  }
  Table out(std::move(name), std::move(schema));
  size_t rows = columns.empty() ? 0 : columns[0].size();
  for (const std::vector<Value>& col : columns) {
    if (col.size() != rows) {
      return Status::InvalidArgument(
          "ragged columns: " + std::to_string(col.size()) + " vs " +
          std::to_string(rows) + " cells");
    }
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    for (const Value& v : columns[c]) out.cols_[c].Append(v, &out.dict_);
  }
  out.num_rows_ = rows;
  return out;
}

void Table::StampProvenance(const std::string& prefix, size_t start) {
  provenance_.assign(num_rows_, {});
  for (size_t i = 0; i < num_rows_; ++i) {
    provenance_[i] = {prefix + std::to_string(start + i)};
  }
}

Table Table::ProjectColumns(const std::vector<size_t>& indices,
                            std::string new_name) const {
  std::vector<ColumnDef> cols;
  cols.reserve(indices.size());
  for (size_t i : indices) cols.push_back(schema_.column(i));
  Table out(std::move(new_name), Schema(std::move(cols)));
  // Copy columns lane-wise, re-interning string ids into the projection's
  // own (smaller) dictionary via a shared old-id -> new-id remap.
  std::vector<uint32_t> remap(dict_.size(), StringDictionary::kNpos);
  for (size_t j = 0; j < indices.size(); ++j) {
    const ColumnData& src = cols_[indices[j]];
    ColumnData& dst = out.cols_[j];
    for (size_t r = 0; r < num_rows_; ++r) {
      switch (src.kind(r)) {
        case CellKind::kMissingNull:
          dst.AppendNull(NullKind::kMissing);
          break;
        case CellKind::kProducedNull:
          dst.AppendNull(NullKind::kProduced);
          break;
        case CellKind::kInt:
          dst.AppendInt(src.int_at(r));
          break;
        case CellKind::kDouble:
          dst.AppendDouble(src.double_at(r));
          break;
        case CellKind::kString: {
          uint32_t id = src.string_id(r);
          if (remap[id] == StringDictionary::kNpos) {
            remap[id] = out.dict_.Intern(dict_.view(id));
          }
          dst.AppendStringId(remap[id]);
          break;
        }
      }
    }
  }
  out.num_rows_ = num_rows_;
  if (has_provenance()) out.provenance_ = provenance_;
  return out;
}

double Table::NullFraction() const {
  size_t cells = num_rows() * num_columns();
  if (cells == 0) return 0.0;
  size_t nulls = 0;
  for (const ColumnData& col : cols_) nulls += col.CountNulls();
  return static_cast<double>(nulls) / static_cast<double>(cells);
}

void Table::RefreshColumnTypes() {
  for (size_t c = 0; c < num_columns(); ++c) {
    bool has_int = false;
    bool has_double = false;
    bool has_string = false;
    const std::span<const uint8_t> tags = cols_[c].tags();
    for (uint8_t t : tags) {
      switch (static_cast<CellKind>(t)) {
        case CellKind::kInt:
          has_int = true;
          break;
        case CellKind::kDouble:
          has_double = true;
          break;
        case CellKind::kString:
          has_string = true;
          break;
        default:
          break;
      }
      if (has_string) break;
    }
    // Same widening as the row-major scan: any string degrades the column to
    // string; int+double widens to double.
    ValueType t = ValueType::kNull;
    if (has_string) {
      t = ValueType::kString;
    } else if (has_int && has_double) {
      t = ValueType::kDouble;
    } else if (has_int) {
      t = ValueType::kInt;
    } else if (has_double) {
      t = ValueType::kDouble;
    }
    schema_.column(c).type = t;
  }
}

void Table::SortRowsLexicographic() {
  std::vector<size_t> order(num_rows_);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<ColumnView> views;
  views.reserve(cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) views.push_back(column(c));
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (const ColumnView& v : views) {
      if (CellLess(v, a, v, b)) return true;
      if (CellLess(v, b, v, a)) return false;
    }
    return a < b;  // stable tiebreak
  });
  for (ColumnData& col : cols_) col.Reorder(order);
  if (has_provenance()) {
    std::vector<std::vector<std::string>> new_prov;
    new_prov.reserve(num_rows_);
    for (size_t i : order) new_prov.push_back(std::move(provenance_[i]));
    provenance_ = std::move(new_prov);
  }
}

bool Table::SameRowsAs(const Table& other) const {
  if (num_rows() != other.num_rows() || num_columns() != other.num_columns()) {
    return false;
  }
  std::vector<ColumnView> mine;
  std::vector<ColumnView> theirs;
  for (size_t c = 0; c < num_columns(); ++c) {
    mine.push_back(column(c));
    theirs.push_back(other.column(c));
  }
  auto key = [](const std::vector<ColumnView>& views, size_t r) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const ColumnView& v : views) h = HashCombine(h, v.HashAt(r));
    return h;
  };
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  for (size_t r = 0; r < num_rows_; ++r) buckets[key(mine, r)].push_back(r);
  for (size_t r = 0; r < other.num_rows(); ++r) {
    auto it = buckets.find(key(theirs, r));
    if (it == buckets.end()) return false;
    bool matched = false;
    std::vector<size_t>& cands = it->second;
    for (size_t i = 0; i < cands.size(); ++i) {
      const size_t cand = cands[i];
      bool same = true;
      for (size_t c = 0; c < num_columns(); ++c) {
        if (!CellsIdentical(mine[c], cand, theirs[c], r)) {
          same = false;
          break;
        }
      }
      if (same) {
        cands.erase(cands.begin() + static_cast<long>(i));
        matched = true;
        break;
      }
    }
    if (!matched) return false;
  }
  return true;
}

std::string Table::ToPrettyString(size_t max_rows) const {
  // Compute column widths over header + shown rows.
  const bool prov = has_provenance();
  std::vector<std::string> headers;
  if (prov) headers.push_back("TIDs");
  for (const ColumnDef& c : schema_.columns()) {
    headers.push_back(c.name.empty() ? "(unnamed)" : c.name);
  }
  std::vector<std::vector<std::string>> cells;
  size_t shown = std::min(max_rows, num_rows_);
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> line;
    if (prov) {
      std::string p = "{";
      for (size_t i = 0; i < provenance_[r].size(); ++i) {
        if (i > 0) p += ", ";
        p += provenance_[r][i];
      }
      p += "}";
      line.push_back(std::move(p));
    }
    for (size_t c = 0; c < num_columns(); ++c) {
      line.push_back(column(c).DisplayStringAt(r));
    }
    cells.push_back(std::move(line));
  }
  std::vector<size_t> widths(headers.size(), 0);
  for (size_t i = 0; i < headers.size(); ++i) widths[i] = headers[i].size();
  for (const auto& line : cells) {
    for (size_t i = 0; i < line.size(); ++i) {
      widths[i] = std::max(widths[i], line[i].size());
    }
  }
  std::ostringstream os;
  os << "Table '" << name_ << "' (" << num_rows() << " rows x "
     << num_columns() << " cols)\n";
  auto emit_line = [&](const std::vector<std::string>& line) {
    os << "| ";
    for (size_t i = 0; i < line.size(); ++i) {
      os << line[i] << std::string(widths[i] - std::min(widths[i], line[i].size()), ' ')
         << " | ";
    }
    os << "\n";
  };
  emit_line(headers);
  os << "|";
  for (size_t w : widths) os << std::string(w + 2, '-') << "-|";
  os << "\n";
  for (const auto& line : cells) emit_line(line);
  if (shown < num_rows_) {
    os << "... (" << (num_rows_ - shown) << " more rows)\n";
  }
  return os.str();
}

}  // namespace dialite
