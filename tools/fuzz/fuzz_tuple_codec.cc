// libFuzzer harness: TupleCodec encode/decode identity over a two-table
// outer union. Builds an arbitrary small table from the fuzz bytes, splits
// its rows into two column-aligned tables (each with its own string
// dictionary, column c of both in union column c), encodes their union,
// and checks the codec's contract:
//
//   - missing nulls map to kMissingNullCode, produced nulls to
//     kProducedNullCode, and nothing else does;
//   - every non-null code decodes to a Value Identical() to the original
//     cell (NaN excepted: it gets a fresh code per occurrence whose decoded
//     payload must still be NaN);
//   - within a column, codes are a bijection on Identical-equivalence
//     classes: two cells share a code iff their values are Identical (again
//     modulo NaN), across the two tables' dictionaries too;
//   - a code names its column: no code appears in two columns;
//   - a code decodes to its class's first cell in row-major union order,
//     whichever column holds it, with that cell's exact type and payload
//     (int 5 stays an int, a first-seen 5.0 a double, -0.0 keeps its sign).
//
// Input layout: byte 0 → column count (1..4); then per cell a tag byte
// (mod 5: missing null, produced null, int, double, string) followed by
// the payload (8 bytes for int/double, 1 length byte + bytes for string).
// The first half of the rows form the first table, the rest the second.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "integrate/tuple_codes.h"
#include "table/schema.h"
#include "table/table.h"
#include "table/value.h"

namespace {

using dialite::ColumnDef;
using dialite::kMissingNullCode;
using dialite::kProducedNullCode;
using dialite::Row;
using dialite::Schema;
using dialite::Table;
using dialite::TupleCodec;
using dialite::Value;

/// Sequential consumer over the fuzz bytes.
struct ByteStream {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  bool Next(uint8_t* out) {
    if (pos >= size) return false;
    *out = data[pos++];
    return true;
  }
  bool Take(void* out, size_t n) {
    if (size - pos < n) return false;
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
  }
};

bool NextValue(ByteStream* in, Value* out) {
  uint8_t tag = 0;
  if (!in->Next(&tag)) return false;
  switch (tag % 5) {
    case 0:
      *out = Value::Null(dialite::NullKind::kMissing);
      return true;
    case 1:
      *out = Value::ProducedNull();
      return true;
    case 2: {
      int64_t i = 0;
      if (!in->Take(&i, sizeof(i))) return false;
      *out = Value::Int(i);
      return true;
    }
    case 3: {
      double d = 0;
      if (!in->Take(&d, sizeof(d))) return false;
      *out = Value::Double(d);
      return true;
    }
    default: {
      uint8_t len = 0;
      if (!in->Next(&len)) return false;
      len = static_cast<uint8_t>(len % 16);
      std::string s(len, '\0');
      if (!in->Take(s.data(), len)) return false;
      *out = Value::String(std::move(s));
      return true;
    }
  }
}

bool IsNaN(const Value& v) {
  return v.is_double() && std::isnan(v.as_double());
}

/// The codec's class of a non-null, non-NaN value: ints and doubles that
/// equal an int64 by that int, other doubles by their bits, strings by
/// their bytes.
std::string ClassKey(const Value& v) {
  if (v.is_string()) return "s" + v.as_string();
  if (v.is_int()) return "i" + std::to_string(v.as_int());
  const double d = v.as_double();
  if (d >= -9223372036854775808.0 && d < 9223372036854775808.0 &&
      static_cast<double>(static_cast<int64_t>(d)) == d) {
    return "i" + std::to_string(static_cast<int64_t>(d));
  }
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return "b" + std::to_string(bits);
}

/// Same type and payload, doubles bit for bit.
bool SameCell(const Value& a, const Value& b) {
  if (a.is_int() && b.is_int()) return a.as_int() == b.as_int();
  if (a.is_string() && b.is_string()) return a.as_string() == b.as_string();
  if (a.is_double() && b.is_double()) {
    const double x = a.as_double();
    const double y = b.as_double();
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  }
  return false;
}

[[noreturn]] void Fail(const char* what, size_t r, size_t c) {
  std::fprintf(stderr, "fuzz_tuple_codec: %s at cell (%zu, %zu)\n", what, r, c);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 2 || size > (16u << 10)) return 0;
  ByteStream in{data, size};
  uint8_t width_byte = 0;
  (void)in.Next(&width_byte);
  const size_t width = 1 + width_byte % 4;

  Schema schema;
  for (size_t c = 0; c < width; ++c) {
    schema.AddColumn(ColumnDef{"c" + std::to_string(c)});
  }
  std::vector<Row> rows;
  constexpr size_t kMaxCells = 4096;
  while (rows.size() * width < kMaxCells) {
    Row row;
    row.reserve(width);
    Value v;
    bool complete = true;
    for (size_t c = 0; c < width; ++c) {
      if (!NextValue(&in, &v)) {
        complete = false;
        break;
      }
      row.push_back(v);
    }
    if (!complete) break;
    rows.push_back(std::move(row));
  }
  Table first("first", schema);
  Table second("second", schema);
  for (size_t r = 0; r < rows.size(); ++r) {
    // Schema width always matches.
    if (!(r < rows.size() / 2 ? first : second).AddRow(rows[r]).ok()) {
      std::abort();
    }
  }

  std::vector<size_t> ids(width);
  for (size_t c = 0; c < width; ++c) ids[c] = c;
  TupleCodec codec;
  const std::vector<uint32_t> codes =
      codec.EncodeUnion({&first, &second}, {ids, ids}, width);
  if (codes.size() != rows.size() * width) {
    std::fprintf(stderr, "fuzz_tuple_codec: code count %zu != cells %zu\n",
                 codes.size(), rows.size() * width);
    std::abort();
  }

  // code -> first original cell of the code and its column; NaN codes
  // must stay unique. class -> first cell of the class, row-major.
  std::vector<const Value*> first_of_code(codec.num_codes(), nullptr);
  std::vector<size_t> column_of_code(codec.num_codes(), width);
  std::unordered_map<std::string, const Value*> first_of_class;
  std::vector<std::unordered_map<std::string, uint32_t>> code_of_class(width);
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < width; ++c) {
      const Value& orig = rows[r][c];
      if (!orig.is_null() && !IsNaN(orig)) {
        first_of_class.emplace(ClassKey(orig), &orig);
      }
    }
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < width; ++c) {
      const Value& orig = rows[r][c];
      const uint32_t code = codes[r * width + c];
      if (code >= codec.num_codes()) Fail("code out of range", r, c);
      if (orig.is_missing_null()) {
        if (code != kMissingNullCode) Fail("missing null got non-± code", r, c);
        continue;
      }
      if (orig.is_produced_null()) {
        if (code != kProducedNullCode) {
          Fail("produced null got non-⊥ code", r, c);
        }
        continue;
      }
      if (dialite::CodeIsNull(code)) Fail("non-null cell got null code", r, c);
      if (column_of_code[code] == width) column_of_code[code] = c;
      if (column_of_code[code] != c) Fail("one code in two columns", r, c);
      const Value decoded = codec.Decode(code);
      if (IsNaN(orig)) {
        // NaN gets a fresh code per occurrence (Identical(NaN, NaN) is
        // false); the decoded payload must still be NaN and the code fresh.
        if (!IsNaN(decoded)) Fail("NaN decoded to non-NaN", r, c);
        if (first_of_code[code] != nullptr) Fail("NaN code reused", r, c);
        first_of_code[code] = &orig;
        continue;
      }
      if (!decoded.Identical(orig)) Fail("decode(encode(v)) != v", r, c);
      const std::string key = ClassKey(orig);
      if (!SameCell(decoded, *first_of_class.at(key))) {
        Fail("code does not decode to its class's first-seen cell", r, c);
      }
      if (code_of_class[c].emplace(key, code).first->second != code) {
        Fail("one class got two codes in a column", r, c);
      }
      if (first_of_code[code] == nullptr) {
        first_of_code[code] = &orig;
      } else if (!first_of_code[code]->Identical(orig)) {
        Fail("one code covers two non-Identical values", r, c);
      }
    }
  }
  return 0;
}
