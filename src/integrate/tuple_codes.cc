#include "integrate/tuple_codes.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace dialite {

void FlatIdSet::Reserve(size_t expected) {
  size_t capacity = 16;
  while (capacity < 2 * expected) capacity *= 2;
  if (capacity > slots_.size()) Rehash(capacity);
}

void FlatIdSet::InsertId(uint64_t hash, uint32_t id) {
  if (2 * (size_ + 1) > slots_.size()) {
    Rehash(std::max<size_t>(16, 2 * slots_.size()));
  }
  const uint32_t tag = Tag(hash);
  size_t i = tag & mask_;
  while (slots_[i].id != kNone) i = (i + 1) & mask_;
  slots_[i] = {tag, id};
  ++size_;
}

void FlatIdSet::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  for (const Slot& s : old) {
    if (s.id == kNone) continue;
    size_t i = s.tag & mask_;
    while (slots_[i].id != kNone) i = (i + 1) & mask_;
    slots_[i] = s;
  }
}

std::vector<uint32_t> TupleCodec::EncodeUnion(
    const std::vector<const Table*>& tables,
    const std::vector<std::vector<size_t>>& column_ids, size_t width) {
  // Column-major: every (table, column) feeding union column 0 in table
  // order, then union column 1, ... A class's code in a column is then
  // settled before the next column starts, and its representative is the
  // cell with the lowest union row (the lowest column on a tie, which the
  // column order visits first).
  struct Feed {
    size_t id;
    size_t table;
    size_t column;
  };
  std::vector<Feed> feeds;
  std::vector<size_t> first_row(tables.size());
  size_t rows = 0;
  for (size_t t = 0; t < tables.size(); ++t) {
    first_row[t] = rows;
    rows += tables[t]->num_rows();
    for (size_t c = 0; c < column_ids[t].size(); ++c) {
      feeds.push_back({column_ids[t][c], t, c});
    }
  }
  std::stable_sort(feeds.begin(), feeds.end(),
                   [](const Feed& a, const Feed& b) { return a.id < b.id; });
  std::vector<uint32_t> out(rows * width, kProducedNullCode);
  // Per table: dictionary id -> string class, filled on first sight.
  std::vector<std::vector<uint32_t>> string_classes(tables.size());
  for (const Feed& f : feeds) {
    const ColumnView col = tables[f.table]->column(f.column);
    uint32_t* cell = out.data() + first_row[f.table] * width + f.id;
    for (size_t r = 0; r < col.size(); ++r, cell += width) {
      const size_t row = first_row[f.table] + r;
      uint32_t cls = 0;
      switch (col.kind(r)) {
        case CellKind::kProducedNull:
          continue;
        case CellKind::kMissingNull:
          *cell = kMissingNullCode;
          continue;
        case CellKind::kString:
          cls = StringClass(col, r, &string_classes[f.table]);
          break;
        case CellKind::kInt: {
          const int64_t v = col.int_at(r);
          cls = NumericClass(&ints_, static_cast<uint64_t>(v));
          ValueClass& vc = classes_[cls];
          if (row < vc.row) {
            vc.row = row;
            vc.kind = CellKind::kInt;
            vc.int_value = v;
          }
          break;
        }
        case CellKind::kDouble: {
          const double d = col.double_at(r);
          if (d != d) {
            // NaN: Identical(NaN, NaN) is false, so every occurrence is its
            // own equivalence class.
            cls = static_cast<uint32_t>(classes_.size());
            classes_.push_back({});
            classes_.back().kind = CellKind::kDouble;
            classes_.back().double_value = d;
            break;
          }
          // Doubles that equal an int64 share that integer's class
          // (Identical cross-compares 5 == 5.0; this also folds -0.0 into
          // 0). The range guard keeps the cast defined.
          bool integral = false;
          int64_t i = 0;
          if (d >= -9223372036854775808.0 && d < 9223372036854775808.0) {
            i = static_cast<int64_t>(d);
            integral = static_cast<double>(i) == d;
          }
          uint64_t bits;
          std::memcpy(&bits, &d, sizeof(bits));
          cls = integral
                    ? NumericClass(&ints_, static_cast<uint64_t>(i))
                    : NumericClass(&doubles_, bits);
          ValueClass& vc = classes_[cls];
          if (row < vc.row) {
            vc.row = row;
            vc.kind = CellKind::kDouble;
            vc.double_value = d;
          }
          break;
        }
      }
      *cell = CodeOf(cls, f.id);
    }
  }
  return out;
}

std::vector<uint32_t> TupleCodec::EncodeTable(const Table& t) {
  std::vector<size_t> ids(t.num_columns());
  for (size_t c = 0; c < ids.size(); ++c) ids[c] = c;
  return EncodeUnion({&t}, {ids}, t.num_columns());
}

uint32_t TupleCodec::StringClass(const ColumnView& col, size_t r,
                                 std::vector<uint32_t>* by_id) {
  if (by_id->empty()) by_id->assign(col.dictionary().size(), FlatIdSet::kNone);
  uint32_t& cls = (*by_id)[col.string_id(r)];
  if (cls != FlatIdSet::kNone) return cls;
  const std::string_view s = col.string_at(r);
  const uint64_t hash = HashString(s);
  cls = strings_.FindId(hash, [&](uint32_t k) { return classes_[k].text == s; });
  if (cls == FlatIdSet::kNone) {
    cls = static_cast<uint32_t>(classes_.size());
    classes_.push_back({});
    classes_.back().text = s;
    strings_.InsertId(hash, cls);
  }
  return cls;
}

uint32_t TupleCodec::NumericClass(FlatIdSet* set, uint64_t key) {
  const uint64_t hash = Mix64(key);
  uint32_t cls =
      set->FindId(hash, [&](uint32_t k) { return classes_[k].key == key; });
  if (cls == FlatIdSet::kNone) {
    cls = static_cast<uint32_t>(classes_.size());
    classes_.push_back({});
    classes_.back().key = key;
    set->InsertId(hash, cls);
  }
  return cls;
}

uint32_t TupleCodec::CodeOf(uint32_t cls, size_t column) {
  ValueClass& vc = classes_[cls];
  if (vc.coded_column != column + 1) {
    vc.coded_column = column + 1;
    vc.code = static_cast<uint32_t>(class_of_.size());
    class_of_.push_back(cls);
  }
  return vc.code;
}

Value TupleCodec::Decode(uint32_t code) const {
  if (code == kProducedNullCode) return Value::ProducedNull();
  if (code == kMissingNullCode) return Value::Null(NullKind::kMissing);
  const ValueClass& vc = classes_[class_of_[code]];
  switch (vc.kind) {
    case CellKind::kInt:
      return Value::Int(vc.int_value);
    case CellKind::kDouble:
      return Value::Double(vc.double_value);
    default:
      return Value::String(std::string(vc.text));
  }
}

void TupleCodec::AppendTo(uint32_t code, size_t c, TableBuilder* out) const {
  if (code == kProducedNullCode) return out->AppendNull(c, NullKind::kProduced);
  if (code == kMissingNullCode) return out->AppendNull(c, NullKind::kMissing);
  const ValueClass& vc = classes_[class_of_[code]];
  switch (vc.kind) {
    case CellKind::kInt:
      return out->AppendInt(c, vc.int_value);
    case CellKind::kDouble:
      return out->AppendDouble(c, vc.double_value);
    default:
      return out->AppendString(c, vc.text);
  }
}

}  // namespace dialite
