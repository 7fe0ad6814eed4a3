#ifndef DIALITE_INTEGRATE_TUPLE_CODES_H_
#define DIALITE_INTEGRATE_TUPLE_CODES_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "table/table.h"
#include "table/table_builder.h"

namespace dialite {

/// Dense 32-bit cell codes for full-disjunction computation.
///
/// A codec encodes one outer union straight from its input tables' column
/// lanes, without materializing the union:
///   0  (kProducedNullCode)  produced null ⊥, and every cell a table lacks
///   1  (kMissingNullCode)   missing null ±
///   ≥2                      one code per (union column, Identical-
///                           equivalence class of non-null values): int 5
///                           and double 5.0 of one column share a code, and
///                           equal strings share one across the input
///                           tables' dictionaries
///
/// Codes are dense, and a code names its column, so FD's flat candidate
/// index is keyed by the code itself. Cell agreement, complementation,
/// subsumption, merge, and tuple identity become integer comparisons within
/// a column; codes decode back to cells only at the output boundary. A code
/// decodes to its value class's union-wide first-seen cell in row-major
/// order, whichever column that cell is in (so 5.0 decodes to int 5 when an
/// int 5 came first). NaN cells get a fresh code per occurrence, matching
/// Identical()'s NaN ≠ NaN.
constexpr uint32_t kProducedNullCode = 0;
constexpr uint32_t kMissingNullCode = 1;

inline bool CodeIsNull(uint32_t code) { return code <= kMissingNullCode; }

/// Open-addressing hash set of 32-bit ids (pool indices, value classes)
/// under caller-computed hashes and caller-defined equality: FD's tuple
/// dedup and the codec's value lookups. Linear probing over a power-of-two
/// table at most half full; each slot keeps 32 bits of its id's hash, so a
/// probe compares ids only on a hash match.
class FlatIdSet {
 public:
  static constexpr uint32_t kNone = 0xffffffffu;

  /// Sizes the table for `expected` ids without growing.
  void Reserve(size_t expected);

  /// The stored id with hash `hash` for which `same(id)` holds, or kNone.
  template <typename Same>
  uint32_t FindId(uint64_t hash, const Same& same) const {
    if (slots_.empty()) return kNone;
    const uint32_t tag = Tag(hash);
    for (size_t i = tag & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.tag == tag && same(s.id)) return s.id;
    }
  }

  /// Adds `id` under `hash`; the caller has checked that it is absent.
  void InsertId(uint64_t hash, uint32_t id);

 private:
  struct Slot {
    uint32_t tag = 0;
    uint32_t id = kNone;
  };
  static uint32_t Tag(uint64_t hash) {
    return static_cast<uint32_t>(hash >> 32) ^ static_cast<uint32_t>(hash);
  }
  void Rehash(size_t capacity);

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

/// Encoder + decode table of one outer union.
class TupleCodec {
 public:
  /// Encodes the outer union of `tables` over `width` columns: column c of
  /// tables[t] lands in union column column_ids[t][c] (at most one column
  /// of a table per union column), and every other cell is a produced
  /// null. Returns the row-major codes, the tables' rows in order. May be
  /// called once per codec; string codes view the tables' dictionaries, so
  /// the tables must outlive the codec.
  std::vector<uint32_t> EncodeUnion(
      const std::vector<const Table*>& tables,
      const std::vector<std::vector<size_t>>& column_ids, size_t width);

  /// EncodeUnion of `t` alone, column c to union column c.
  std::vector<uint32_t> EncodeTable(const Table& t);

  /// Codes handed out, the two null codes included.
  size_t num_codes() const { return class_of_.size(); }

  /// The cell `code` decodes to, materialized (tests and fuzzing).
  Value Decode(uint32_t code) const;

  /// Appends the cell `code` decodes to as column `c` of `out`'s row in
  /// flight.
  void AppendTo(uint32_t code, size_t c, TableBuilder* out) const;

 private:
  /// One Identical-equivalence class of non-null values and its
  /// representative, the class's first cell in row-major union order.
  struct ValueClass {
    uint64_t key = 0;       ///< lookup key: int64 value or double bits
    std::string_view text;  ///< string classes
    CellKind kind = CellKind::kString;  ///< the representative's kind
    int64_t int_value = 0;
    double double_value = 0;
    /// The representative's union row (numeric classes).
    size_t row = std::numeric_limits<size_t>::max();
    size_t coded_column = 0;  ///< 1 + the union column last coded
    uint32_t code = 0;        ///< the class's code in that column
  };

  uint32_t StringClass(const ColumnView& col, size_t r,
                       std::vector<uint32_t>* by_id);
  uint32_t NumericClass(FlatIdSet* set, uint64_t key);
  uint32_t CodeOf(uint32_t cls, size_t column);

  std::vector<ValueClass> classes_;
  std::vector<uint32_t> class_of_ = {0, 0};  // code -> class (≥2 only)
  FlatIdSet strings_;  // classes by bytes
  FlatIdSet ints_;     // classes of ints and integral doubles, by int64
  FlatIdSet doubles_;  // classes of other non-NaN doubles, by bits
};

/// Tuple operations on raw code spans — the integer forms of
/// TuplesComplement / TupleSubsumedBy / MergeTuples / row identity.

/// TuplesComplement: equal codes wherever both non-null, sharing ≥1 such
/// attribute.
inline bool CodedComplement(const uint32_t* a, const uint32_t* b,
                            size_t width) {
  bool shared = false;
  for (size_t c = 0; c < width; ++c) {
    if (CodeIsNull(a[c]) || CodeIsNull(b[c])) continue;
    if (a[c] != b[c]) return false;
    shared = true;
  }
  return shared;
}

/// TupleSubsumedBy: b matches a's every non-null attribute.
inline bool CodedSubsumedBy(const uint32_t* a, const uint32_t* b,
                            size_t width) {
  for (size_t c = 0; c < width; ++c) {
    if (CodeIsNull(a[c])) continue;
    if (a[c] != b[c]) return false;
  }
  return true;
}

/// MergeTuples: non-null codes win; for two nulls, missing (1) outranks
/// produced (0) — exactly max() on the null codes.
inline void CodedMerge(const uint32_t* a, const uint32_t* b, size_t width,
                       uint32_t* out) {
  for (size_t c = 0; c < width; ++c) {
    out[c] = !CodeIsNull(a[c]) ? a[c]
             : !CodeIsNull(b[c]) ? b[c]
                                 : (a[c] > b[c] ? a[c] : b[c]);
  }
}

/// Row identity under Value::Identical: nulls of either kind match.
inline bool CodedIdentical(const uint32_t* a, const uint32_t* b,
                           size_t width) {
  for (size_t c = 0; c < width; ++c) {
    if (a[c] != b[c] && !(CodeIsNull(a[c]) && CodeIsNull(b[c]))) return false;
  }
  return true;
}

/// Hash consistent with CodedIdentical (both null codes hash alike).
inline uint64_t CodedRowKey(const uint32_t* row, size_t width) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t c = 0; c < width; ++c) {
    h = HashCombine(h, CodeIsNull(row[c]) ? 0 : row[c]);
  }
  return h;
}

}  // namespace dialite

#endif  // DIALITE_INTEGRATE_TUPLE_CODES_H_
