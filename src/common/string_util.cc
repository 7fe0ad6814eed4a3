#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <clocale>
#include <cmath>
#include <cstdlib>
#include <system_error>

namespace dialite {

namespace {
bool IsSpace(unsigned char c) { return std::isspace(c) != 0; }
char LowerChar(unsigned char c) {
  return static_cast<char>(std::tolower(c));
}
}  // namespace

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return LowerChar(c); });
  return out;
}

std::string_view TrimView(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && IsSpace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && IsSpace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string Trim(std::string_view s) { return std::string(TrimView(s)); }

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (LowerChar(static_cast<unsigned char>(a[i])) !=
        LowerChar(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  for (size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    if (EqualsIgnoreCase(haystack.substr(i, needle.size()), needle)) return true;
  }
  return false;
}

bool ParseStrictNumeric(std::string_view s, double* out) {
  s = TrimView(s);
  if (s.empty()) return false;
  // Validate the decimal grammar by hand before handing the token to
  // strtod: [+-]? digits [. digits?] | [+-]? . digits, then ([eE][+-]?digits)?
  size_t i = 0;
  if (s[i] == '+' || s[i] == '-') ++i;
  size_t int_digits = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i, ++int_digits;
  size_t frac_digits = 0;
  if (i < s.size() && s[i] == '.') {
    ++i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i, ++frac_digits;
  }
  if (int_digits + frac_digits == 0) return false;  // ".", "+", "abc", "inf"
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    size_t exp_digits = 0;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i, ++exp_digits;
    if (exp_digits == 0) return false;  // "1e", "2e+"
  }
  if (i != s.size()) return false;  // trailing junk ("0x1A" stops at 'x')
  // The grammar guarantees the whole token parses; only the magnitude can
  // still disqualify it. from_chars works straight off the view (no copy,
  // no locale); it flags both overflow ("1e999") and underflow as
  // result_out_of_range, so re-check tiny-but-representable magnitudes
  // through strtod, which only rejects true overflow to ±inf.
  // from_chars rejects the explicit '+' the grammar allows; skip it.
  if (s[0] == '+') s.remove_prefix(1);
  double v = 0.0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec == std::errc::result_out_of_range) {
    // strtod reads the *process locale's* decimal separator. Under e.g.
    // de_DE (separator ','), handing it the validated '.'-notation token
    // verbatim would stop parsing at the '.' and silently reject — or
    // misparse — values this function previously accepted (found as part
    // of the locale bugfix sweep; regression-tested in common_test).
    // Rewrite the grammar's '.' into the locale's separator first so the
    // result is identical under every locale.
    std::string buf;
    buf.reserve(s.size() + 4);
    const char* locale_point = std::localeconv()->decimal_point;
    for (char c : s) {
      if (c == '.') {
        buf += locale_point;
      } else {
        buf += c;
      }
    }
    errno = 0;
    char* end = nullptr;
    v = std::strtod(buf.c_str(), &end);
    if (end != buf.c_str() + buf.size()) return false;
    if (!std::isfinite(v)) return false;
  } else if (ec != std::errc() || ptr != s.data() + s.size()) {
    return false;
  }
  if (out != nullptr) *out = v;
  return true;
}

std::string_view FormatDoubleTo(double v, char* buf) {
  // to_chars renders -0.0 as "-0", which CSV type inference would read
  // back as the *integer* 0 (rendering "0") — so "-0" is not a stable
  // spelling. "-0.0" parses as the same negative-zero double and renders
  // back to itself.
  if (v == 0.0 && std::signbit(v)) return "-0.0";
  // std::to_chars with no precision emits the shortest representation that
  // strtod parses back to the identical bits (picking fixed or scientific
  // notation, whichever is shorter). The previous "%.*f" implementation
  // both rounded away significant digits and truncated magnitudes whose
  // fixed notation overflowed its stack buffer (e.g. 2e134 needs 135
  // digits), so write → reparse changed the value — caught by
  // fuzz_csv_roundtrip.
  const std::to_chars_result res =
      std::to_chars(buf, buf + kFormatDoubleBufferSize, v);
  if (res.ec != std::errc()) return "nan";  // cannot happen for 64 bytes
  return std::string_view(buf, static_cast<size_t>(res.ptr - buf));
}

std::string FormatDouble(double v) {
  char buf[kFormatDoubleBufferSize];
  return std::string(FormatDoubleTo(v, buf));
}

}  // namespace dialite
