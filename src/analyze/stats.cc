#include "analyze/stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>

#include "common/string_util.h"

namespace dialite {

namespace {

/// Loose-notation fallback for string cells that strict parsing rejects:
/// thousands separators ("1,234,567") and %/k/M/B suffixes.
bool ParseLooseString(std::string_view raw, double* out) {
  std::string_view s = TrimView(raw);
  if (s.empty()) return false;
  // Strip thousands separators.
  std::string cleaned;
  cleaned.reserve(s.size());
  for (char c : s) {
    if (c != ',') cleaned += c;
  }
  // Optional suffix: % (value as-is), k/K, M, B.
  double scale = 1.0;
  char last = cleaned.back();
  if (last == '%') {
    cleaned.pop_back();
  } else if (last == 'k' || last == 'K') {
    scale = 1e3;
    cleaned.pop_back();
  } else if (last == 'M') {
    scale = 1e6;
    cleaned.pop_back();
  } else if (last == 'B') {
    scale = 1e9;
    cleaned.pop_back();
  }
  if (cleaned.empty()) return false;
  // ParseStrictNumeric, not strtod: strtod honors the process locale's
  // decimal separator, so under de_DE "3.5%" silently parsed as 3 (strtod
  // stopped at '.') or was rejected — analysis results changed with the
  // host locale. The strict parser is from_chars-based (locale-free) and
  // additionally rejects hex/inf/nan spellings a stats column never means.
  double d = 0.0;
  if (!ParseStrictNumeric(cleaned, &d)) return false;
  *out = d * scale;
  return true;
}

}  // namespace

bool ParseNumericLoose(const Value& v, double* out) {
  if (v.is_null()) return false;
  if (v.AsNumeric(out)) return true;
  if (!v.is_string()) return false;
  return ParseLooseString(v.as_string(), out);
}

bool ParseNumericLooseAt(const ColumnView& col, size_t r, double* out) {
  if (col.is_null(r)) return false;
  if (col.AsNumericAt(r, out)) return true;
  if (col.kind(r) != CellKind::kString) return false;
  return ParseLooseString(col.string_at(r), out);
}

namespace {

/// Gathers (a, b) pairs where both columns parse.
Status GatherPairs(const Table& t, const std::string& col_a,
                   const std::string& col_b, std::vector<double>* xs,
                   std::vector<double>* ys) {
  size_t ca = t.schema().IndexOf(col_a);
  size_t cb = t.schema().IndexOf(col_b);
  if (ca == Schema::npos) return Status::NotFound("column '" + col_a + "'");
  if (cb == Schema::npos) return Status::NotFound("column '" + col_b + "'");
  const ColumnView va = t.column(ca);
  const ColumnView vb = t.column(cb);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    double x;
    double y;
    if (ParseNumericLooseAt(va, r, &x) && ParseNumericLooseAt(vb, r, &y)) {
      xs->push_back(x);
      ys->push_back(y);
    }
  }
  return Status::OK();
}

double Mean(const double* v, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += v[i];
  return s / static_cast<double>(n);
}

/// Average ranks of v[0, n) into `ranks`, ties sharing the mean rank;
/// `order` is n indices of scratch.
void RanksInto(const double* v, size_t n, size_t* order, double* ranks) {
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order, order + n, [v](size_t a, size_t b) { return v[a] < v[b]; });
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && v[order[j + 1]] == v[order[i]]) ++j;
    double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
}

std::vector<double> Ranks(const std::vector<double>& v) {
  std::vector<size_t> order(v.size());
  std::vector<double> ranks(v.size(), 0.0);
  RanksInto(v.data(), v.size(), order.data(), ranks.data());
  return ranks;
}

/// Pearson r of n >= 1 pairs; false when either side has zero variance.
bool PearsonOfArrays(const double* xs, const double* ys, size_t n,
                     double* r) {
  double mx = Mean(xs, n);
  double my = Mean(ys, n);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  if (sxx == 0.0 || syy == 0.0) return false;
  *r = sxy / std::sqrt(sxx * syy);
  return true;
}

}  // namespace

Result<double> PearsonOfVectors(const std::vector<double>& xs,
                                const std::vector<double>& ys) {
  if (xs.size() < 2 || xs.size() != ys.size()) {
    return Status::InvalidArgument("fewer than 2 numeric pairs");
  }
  double r = 0.0;
  if (!PearsonOfArrays(xs.data(), ys.data(), xs.size(), &r)) {
    return Status::InvalidArgument("zero variance column");
  }
  return r;
}

bool SpearmanOfArrays(const double* xs, const double* ys, size_t n,
                      size_t* order, double* rx, double* ry, double* rho) {
  if (n < 2) return false;
  RanksInto(xs, n, order, rx);
  RanksInto(ys, n, order, ry);
  return PearsonOfArrays(rx, ry, n, rho);
}

Result<double> SpearmanOfVectors(const std::vector<double>& xs,
                                 const std::vector<double>& ys) {
  if (xs.size() < 2 || xs.size() != ys.size()) {
    return Status::InvalidArgument("fewer than 2 numeric pairs");
  }
  return PearsonOfVectors(Ranks(xs), Ranks(ys));
}

Result<NumericSummary> SummarizeColumn(const Table& t,
                                       const std::string& name) {
  size_t c = t.schema().IndexOf(name);
  if (c == Schema::npos) return Status::NotFound("column '" + name + "'");
  NumericSummary s;
  double sum = 0.0;
  double sumsq = 0.0;
  const ColumnView col = t.column(c);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    double d;
    if (!ParseNumericLooseAt(col, r, &d)) continue;
    if (s.count == 0) {
      s.min = d;
      s.max = d;
    } else {
      s.min = std::min(s.min, d);
      s.max = std::max(s.max, d);
    }
    ++s.count;
    sum += d;
    sumsq += d * d;
  }
  if (s.count == 0) {
    return Status::InvalidArgument("column '" + name + "' has no numbers");
  }
  s.mean = sum / static_cast<double>(s.count);
  double var = sumsq / static_cast<double>(s.count) - s.mean * s.mean;
  s.stddev = var > 0 ? std::sqrt(var) : 0.0;
  return s;
}

Result<double> PearsonCorrelation(const Table& t, const std::string& col_a,
                                  const std::string& col_b) {
  std::vector<double> xs;
  std::vector<double> ys;
  DIALITE_RETURN_IF_ERROR(GatherPairs(t, col_a, col_b, &xs, &ys));
  return PearsonOfVectors(xs, ys);
}

Result<double> SpearmanCorrelation(const Table& t, const std::string& col_a,
                                   const std::string& col_b) {
  std::vector<double> xs;
  std::vector<double> ys;
  DIALITE_RETURN_IF_ERROR(GatherPairs(t, col_a, col_b, &xs, &ys));
  if (xs.size() < 2) {
    return Status::InvalidArgument("fewer than 2 numeric pairs");
  }
  return PearsonOfVectors(Ranks(xs), Ranks(ys));
}

Result<size_t> ArgExtreme(const Table& t, const std::string& value_col,
                          bool largest) {
  size_t c = t.schema().IndexOf(value_col);
  if (c == Schema::npos) return Status::NotFound("column '" + value_col + "'");
  size_t best_row = 0;
  double best = 0.0;
  bool found = false;
  const ColumnView col = t.column(c);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    double d;
    if (!ParseNumericLooseAt(col, r, &d)) continue;
    if (!found || (largest ? d > best : d < best)) {
      best = d;
      best_row = r;
      found = true;
    }
  }
  if (!found) {
    return Status::InvalidArgument("column '" + value_col +
                                   "' has no numbers");
  }
  return best_row;
}

}  // namespace dialite
