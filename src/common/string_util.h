#ifndef DIALITE_COMMON_STRING_UTIL_H_
#define DIALITE_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace dialite {

/// Lowercases ASCII characters; non-ASCII bytes pass through untouched.
std::string ToLowerAscii(std::string_view s);

/// Trims ASCII whitespace (space, \t, \r, \n, \f, \v) from both ends.
std::string_view TrimView(std::string_view s);
std::string Trim(std::string_view s);

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` begins with / ends with the given affix.
[[nodiscard]] bool StartsWith(std::string_view s, std::string_view prefix);
[[nodiscard]] bool EndsWith(std::string_view s, std::string_view suffix);

/// Case-insensitive (ASCII) equality.
[[nodiscard]] bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// True if `needle` occurs in `haystack` ignoring ASCII case.
[[nodiscard]] bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

/// Formats a double as the shortest decimal that parses back to exactly
/// the same value ("3.14", "2", "0.5", "2e+134"). Round-trip exactness is
/// load-bearing: CSV writing and value tokenization both render doubles
/// through this function, and a lossy rendering silently corrupts data on
/// a write → reparse cycle.
std::string FormatDouble(double v);

/// Buffer size FormatDoubleTo needs.
inline constexpr size_t kFormatDoubleBufferSize = 64;

/// FormatDouble without allocating: renders into `buf`, which must hold
/// kFormatDoubleBufferSize chars, and returns a view of the spelling
/// (valid while `buf` is).
std::string_view FormatDoubleTo(double v, char* buf);

/// Parses `s` as a finite decimal literal: optional sign, digits with an
/// optional decimal point, optional decimal exponent ("-12", "3.5e-2",
/// ".5", "7."). Leading/trailing ASCII whitespace is ignored. Everything
/// strtod accepts beyond that — hex floats ("0x1A"), "inf"/"infinity",
/// "nan" — is rejected, as are values that overflow to ±inf ("1e999").
/// The single numeric grammar shared by CSV type inference,
/// Value::AsNumeric, and ColumnView::AsNumericAt, so the three parsers
/// cannot drift.
[[nodiscard]] bool ParseStrictNumeric(std::string_view s, double* out);

}  // namespace dialite

#endif  // DIALITE_COMMON_STRING_UTIL_H_
