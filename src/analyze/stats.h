#ifndef DIALITE_ANALYZE_STATS_H_
#define DIALITE_ANALYZE_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "table/table.h"

namespace dialite {

/// Summary statistics of one numeric column.
struct NumericSummary {
  size_t count = 0;  ///< rows with a parseable numeric value
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;  ///< population standard deviation
};

/// Parses open-data numeric notation: "63%" → 63, "1.4M" → 1.4e6,
/// "263k" → 263000, "2,500" → 2500, plain numbers as-is. Returns false for
/// nulls and non-numeric text. This is what lets the Example 3 analysis run
/// over the paper's literal cell values.
[[nodiscard]] bool ParseNumericLoose(const Value& v, double* out);

/// Column-view form of ParseNumericLoose: reads the cell at row `r` without
/// materializing a Value (string cells parse straight from the dictionary).
[[nodiscard]] bool ParseNumericLooseAt(const ColumnView& col, size_t r, double* out);

/// Summary of column `name` (loose parsing). NotFound if absent,
/// InvalidArgument if no row parses.
Result<NumericSummary> SummarizeColumn(const Table& t,
                                       const std::string& name);

/// Pearson correlation between two columns (loose parsing; rows where
/// either side is unparseable are skipped). InvalidArgument with fewer than
/// two usable rows or zero variance.
Result<double> PearsonCorrelation(const Table& t, const std::string& col_a,
                                  const std::string& col_b);

/// Spearman rank correlation (average ranks for ties), same skipping rules.
Result<double> SpearmanCorrelation(const Table& t, const std::string& col_a,
                                   const std::string& col_b);

/// Vector-level correlations (used by COCOA-style discovery and the
/// correlation finder). InvalidArgument with < 2 pairs or zero variance.
Result<double> PearsonOfVectors(const std::vector<double>& xs,
                                const std::vector<double>& ys);
Result<double> SpearmanOfVectors(const std::vector<double>& xs,
                                 const std::vector<double>& ys);

/// SpearmanOfVectors over the `n` pairs at `xs`/`ys`, ranking into caller
/// scratch instead of allocating: `order` holds n indices, `rx` and `ry` n
/// ranks each. Returns false where SpearmanOfVectors fails (n < 2 or zero
/// variance); otherwise `*rho` is bit-identical to its value.
[[nodiscard]] bool SpearmanOfArrays(const double* xs, const double* ys,
                                    size_t n, size_t* order, double* rx,
                                    double* ry, double* rho);

/// Row index of the extreme value of `value_col` (loose parsing);
/// `largest` selects max vs min. InvalidArgument when nothing parses.
Result<size_t> ArgExtreme(const Table& t, const std::string& value_col,
                          bool largest);

}  // namespace dialite

#endif  // DIALITE_ANALYZE_STATS_H_
