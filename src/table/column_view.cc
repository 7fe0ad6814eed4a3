#include "table/column_view.h"

#include <charconv>
#include <cstring>
#include <unordered_set>

#include "common/hash.h"
#include "common/string_util.h"

namespace dialite {

std::string ColumnView::CsvStringAt(size_t r) const {
  char buf[kCsvBufferSize];
  return std::string(CsvViewAt(r, buf));
}

static_assert(ColumnView::kCsvBufferSize >= kFormatDoubleBufferSize);

std::string_view ColumnView::CsvViewAt(size_t r, char* buf) const {
  switch (kind(r)) {
    case CellKind::kMissingNull:
    case CellKind::kProducedNull:
      return "";
    case CellKind::kInt: {
      // std::to_string's spelling.
      const std::to_chars_result res =
          std::to_chars(buf, buf + kCsvBufferSize, int_at(r));
      return std::string_view(buf, static_cast<size_t>(res.ptr - buf));
    }
    case CellKind::kDouble:
      return FormatDoubleTo(double_at(r), buf);
    case CellKind::kString:
      return string_at(r);
  }
  return "";
}

std::string ColumnView::DisplayStringAt(size_t r) const {
  switch (kind(r)) {
    case CellKind::kMissingNull:
      return "±";
    case CellKind::kProducedNull:
      return "⊥";
    default:
      return CsvStringAt(r);
  }
}

bool ColumnView::AsNumericAt(size_t r, double* out) const {
  switch (kind(r)) {
    case CellKind::kMissingNull:
    case CellKind::kProducedNull:
      return false;
    case CellKind::kInt:
      *out = static_cast<double>(int_at(r));
      return true;
    case CellKind::kDouble:
      *out = double_at(r);
      return true;
    case CellKind::kString:
      // Strict finite-decimal grammar shared with Value::AsNumeric and CSV
      // inference — "0x1A"/"inf"/"nan" are text, not numbers.
      return ParseStrictNumeric(string_at(r), out);
  }
  return false;
}

uint64_t ColumnView::HashAt(size_t r, uint64_t seed) const {
  // Mirrors Value::Hash constant for constant.
  switch (kind(r)) {
    case CellKind::kMissingNull:
    case CellKind::kProducedNull:
      return HashUint64(0x6e756c6cULL, seed);
    case CellKind::kInt:
      return HashUint64(static_cast<uint64_t>(int_at(r)) ^ 0x1a2b3c4dULL, seed);
    case CellKind::kDouble: {
      double d = double_at(r);
      int64_t i = static_cast<int64_t>(d);
      if (static_cast<double>(i) == d) {
        return HashUint64(static_cast<uint64_t>(i) ^ 0x1a2b3c4dULL, seed);
      }
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      return HashUint64(bits ^ 0x5e6f7a8bULL, seed);
    }
    case CellKind::kString:
      return HashString(string_at(r), seed ^ 0x9c8d7e6fULL);
  }
  return 0;
}

namespace {

bool KindIsNumber(CellKind k) {
  return k == CellKind::kInt || k == CellKind::kDouble;
}

double NumberAt(const ColumnView& v, size_t r) {
  return v.kind(r) == CellKind::kInt ? static_cast<double>(v.int_at(r))
                                     : v.double_at(r);
}

}  // namespace

bool CellsIdentical(const ColumnView& a, size_t ra, const ColumnView& b,
                    size_t rb) {
  const CellKind ka = a.kind(ra);
  const CellKind kb = b.kind(rb);
  const bool na = CellKindIsNull(ka);
  const bool nb = CellKindIsNull(kb);
  if (na || nb) return na && nb;
  if (ka == CellKind::kString || kb == CellKind::kString) {
    if (ka != kb) return false;
    if (&a.dictionary() == &b.dictionary()) {
      return a.string_id(ra) == b.string_id(rb);
    }
    return a.string_at(ra) == b.string_at(rb);
  }
  if (ka == CellKind::kInt && kb == CellKind::kInt) {
    return a.int_at(ra) == b.int_at(rb);
  }
  // Double/double and int/double both compare numerically, like
  // Value::Identical.
  return NumberAt(a, ra) == NumberAt(b, rb);
}

bool CellsEqualValue(const ColumnView& a, size_t ra, const ColumnView& b,
                     size_t rb) {
  if (a.is_null(ra) || b.is_null(rb)) return false;
  return CellsIdentical(a, ra, b, rb);
}

bool CellLess(const ColumnView& a, size_t ra, const ColumnView& b, size_t rb) {
  const CellKind ka = a.kind(ra);
  const CellKind kb = b.kind(rb);
  const bool na = CellKindIsNull(ka);
  const bool nb = CellKindIsNull(kb);
  if (na != nb) return na;
  if (na) return false;
  const bool a_num = KindIsNumber(ka);
  const bool b_num = KindIsNumber(kb);
  if (a_num != b_num) return a_num;
  if (a_num) return NumberAt(a, ra) < NumberAt(b, rb);
  return a.string_at(ra) < b.string_at(rb);
}

std::vector<Value> ColumnMaterialize(const ColumnView& col) {
  std::vector<Value> out;
  const size_t n = col.size();
  out.reserve(n);
  for (size_t r = 0; r < n; ++r) out.push_back(col.value_at(r));
  return out;
}

namespace {

/// Shared distinct-scan driver: calls `emit(r)` at the first occurrence of
/// each Identical-equivalence class, in row order. String classes dedup by
/// dictionary id (flat bitmap); numeric classes go through the same
/// Value-keyed set the row-major implementation used, so int/double
/// cross-equality (5 vs 5.0) and NaN behaviour match it exactly.
template <typename Emit>
void ForEachDistinct(const ColumnView& col, Emit&& emit) {
  const size_t n = col.size();
  std::vector<uint8_t> seen_ids;
  std::unordered_set<Value, ValueHash> seen_numeric;
  for (size_t r = 0; r < n; ++r) {
    switch (col.kind(r)) {
      case CellKind::kMissingNull:
      case CellKind::kProducedNull:
        break;
      case CellKind::kString: {
        const uint32_t id = col.string_id(r);
        if (seen_ids.size() <= id) seen_ids.resize(col.dictionary().size(), 0);
        if (seen_ids[id]) break;
        seen_ids[id] = 1;
        emit(r);
        break;
      }
      case CellKind::kInt:
        if (seen_numeric.insert(Value::Int(col.int_at(r))).second) emit(r);
        break;
      case CellKind::kDouble:
        if (seen_numeric.insert(Value::Double(col.double_at(r))).second) {
          emit(r);
        }
        break;
    }
  }
}

}  // namespace

std::vector<Value> ColumnDistinct(const ColumnView& col) {
  std::vector<Value> out;
  ForEachDistinct(col, [&](size_t r) { out.push_back(col.value_at(r)); });
  return out;
}

std::vector<std::string> ColumnDistinctCsv(const ColumnView& col) {
  std::vector<std::string> out;
  ForEachDistinct(col, [&](size_t r) { out.push_back(col.CsvStringAt(r)); });
  return out;
}

std::vector<std::string> ColumnTokens(const ColumnView& col) {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen_tokens;
  // Identity prefilter: a repeated cell always yields the token its first
  // occurrence yielded, so skipping it cannot change the result set or its
  // first-occurrence order.
  std::vector<uint8_t> seen_ids;
  std::unordered_set<int64_t> seen_ints;
  std::unordered_set<uint64_t> seen_double_bits;
  const size_t n = col.size();
  for (size_t r = 0; r < n; ++r) {
    std::string tok;
    switch (col.kind(r)) {
      case CellKind::kMissingNull:
      case CellKind::kProducedNull:
        continue;
      case CellKind::kString: {
        const uint32_t id = col.string_id(r);
        if (seen_ids.size() <= id) seen_ids.resize(col.dictionary().size(), 0);
        if (seen_ids[id]) continue;
        seen_ids[id] = 1;
        tok = ToLowerAscii(TrimView(col.string_at(r)));
        break;
      }
      case CellKind::kInt: {
        const int64_t v = col.int_at(r);
        if (!seen_ints.insert(v).second) continue;
        // std::to_string of an int is digits and '-' only: trim/lowercase
        // are identity on it.
        tok = std::to_string(v);
        break;
      }
      case CellKind::kDouble: {
        const double d = col.double_at(r);
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        if (!seen_double_bits.insert(bits).second) continue;
        tok = ToLowerAscii(TrimView(FormatDouble(d)));
        break;
      }
    }
    if (tok.empty()) continue;
    if (seen_tokens.insert(tok).second) out.push_back(std::move(tok));
  }
  return out;
}

}  // namespace dialite
