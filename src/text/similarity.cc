#include "text/similarity.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "text/tokenizer.h"

namespace dialite {

namespace {
std::unordered_set<std::string_view> ToSet(const std::vector<std::string>& v) {
  std::unordered_set<std::string_view> s;
  s.reserve(v.size());
  for (const std::string& x : v) s.insert(x);
  return s;
}
}  // namespace

size_t OverlapSize(const std::vector<std::string>& a,
                   const std::vector<std::string>& b) {
  const std::vector<std::string>& small = a.size() <= b.size() ? a : b;
  const std::vector<std::string>& large = a.size() <= b.size() ? b : a;
  std::unordered_set<std::string_view> s = ToSet(large);
  std::unordered_set<std::string_view> counted;
  size_t n = 0;
  for (const std::string& x : small) {
    if (s.count(x) && counted.insert(x).second) ++n;
  }
  return n;
}

double Jaccard(const std::vector<std::string>& a,
               const std::vector<std::string>& b) {
  std::unordered_set<std::string_view> sa = ToSet(a);
  std::unordered_set<std::string_view> sb = ToSet(b);
  if (sa.empty() && sb.empty()) return 1.0;
  size_t inter = 0;
  for (std::string_view x : sa) {
    if (sb.count(x)) ++inter;
  }
  size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

double Containment(const std::vector<std::string>& a,
                   const std::vector<std::string>& b) {
  std::unordered_set<std::string_view> sa = ToSet(a);
  if (sa.empty()) return 0.0;
  std::unordered_set<std::string_view> sb = ToSet(b);
  size_t inter = 0;
  for (std::string_view x : sa) {
    if (sb.count(x)) ++inter;
  }
  return static_cast<double>(inter) / static_cast<double>(sa.size());
}

size_t Levenshtein(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  std::vector<size_t> prev(a.size() + 1);
  std::vector<size_t> cur(a.size() + 1);
  for (size_t i = 0; i <= a.size(); ++i) prev[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    cur[0] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      size_t sub = prev[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[i] = std::min({prev[i] + 1, cur[i - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[a.size()];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  size_t m = std::max(a.size(), b.size());
  if (m == 0) return 1.0;
  return 1.0 - static_cast<double>(Levenshtein(a, b)) / static_cast<double>(m);
}

namespace {

/// Jaro over caller-owned match flags (a.size() + b.size() bytes).
double JaroWithFlags(std::string_view a, std::string_view b, uint8_t* flags) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  size_t window = std::max(a.size(), b.size()) / 2;
  if (window > 0) window -= 1;
  uint8_t* a_match = flags;
  uint8_t* b_match = flags + a.size();
  std::fill(flags, flags + a.size() + b.size(), uint8_t{0});
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    size_t lo = i > window ? i - window : 0;
    size_t hi = std::min(b.size(), i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!b_match[j] && a[i] == b[j]) {
        a_match[i] = 1;
        b_match[j] = 1;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;
  size_t transpositions = 0;
  size_t k = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a_match[i]) continue;
    while (!b_match[k]) ++k;
    if (a[i] != b[k]) ++transpositions;
    ++k;
  }
  double m = static_cast<double>(matches);
  return (m / static_cast<double>(a.size()) + m / static_cast<double>(b.size()) +
          (m - static_cast<double>(transpositions) / 2.0) / m) /
         3.0;
}

/// Winkler's common-prefix boost of a Jaro score `j`.
double WinklerBoost(std::string_view a, std::string_view b, double j) {
  size_t prefix = 0;
  for (size_t i = 0; i < std::min({a.size(), b.size(), size_t{4}}); ++i) {
    if (a[i] == b[i]) ++prefix;
    else break;
  }
  return j + static_cast<double>(prefix) * 0.1 * (1.0 - j);
}

}  // namespace

double Jaro(std::string_view a, std::string_view b) {
  std::vector<uint8_t> flags(a.size() + b.size());
  return JaroWithFlags(a, b, flags.data());
}

double JaroWinkler(std::string_view a, std::string_view b) {
  return WinklerBoost(a, b, Jaro(a, b));
}

double JaroWinklerScratch(std::string_view a, std::string_view b,
                          uint8_t* flags) {
  return WinklerBoost(a, b, JaroWithFlags(a, b, flags));
}

double MongeElkan(const std::vector<std::string>& a,
                  const std::vector<std::string>& b) {
  if (a.empty()) return b.empty() ? 1.0 : 0.0;
  if (b.empty()) return 0.0;
  double sum = 0.0;
  for (const std::string& x : a) {
    double best = 0.0;
    for (const std::string& y : b) best = std::max(best, JaroWinkler(x, y));
    sum += best;
  }
  return sum / static_cast<double>(a.size());
}

double MongeElkanSymmetric(const std::vector<std::string>& a,
                           const std::vector<std::string>& b) {
  return 0.5 * (MongeElkan(a, b) + MongeElkan(b, a));
}

double TokenCosine(const std::vector<std::string>& a,
                   const std::vector<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  std::unordered_map<std::string_view, size_t> ca;
  std::unordered_map<std::string_view, size_t> cb;
  for (const std::string& x : a) ++ca[x];
  for (const std::string& x : b) ++cb[x];
  double dot = 0.0;
  for (const auto& [tok, n] : ca) {
    auto it = cb.find(tok);
    if (it != cb.end()) {
      dot += static_cast<double>(n) * static_cast<double>(it->second);
    }
  }
  double na = 0.0;
  double nb = 0.0;
  for (const auto& [tok, n] : ca) {
    na += static_cast<double>(n) * static_cast<double>(n);
  }
  for (const auto& [tok, n] : cb) {
    nb += static_cast<double>(n) * static_cast<double>(n);
  }
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

double QGramJaccard(std::string_view a, std::string_view b, size_t q) {
  return Jaccard(CharQGrams(a, q), CharQGrams(b, q));
}

}  // namespace dialite
