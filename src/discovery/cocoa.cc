#include "discovery/cocoa.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "analyze/stats.h"
#include "common/string_util.h"
#include "text/tokenizer.h"

namespace dialite {

namespace {

/// Lowercased token of a joinable cell, or "" for nulls/empties.
std::string JoinToken(const Value& v) {
  if (v.is_null()) return "";
  return ToLowerAscii(Trim(v.ToCsvString()));
}

/// Indices of columns whose non-null values are all numeric (and at least
/// two of them).
std::vector<size_t> NumericColumns(const Table& t) {
  std::vector<size_t> out;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    size_t n = 0;
    bool ok = true;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      const Value& v = t.at(r, c);
      if (v.is_null()) continue;
      double d;
      if (!ParseNumericLoose(v, &d)) {
        ok = false;
        break;
      }
      ++n;
    }
    if (ok && n >= 2) out.push_back(c);
  }
  return out;
}

}  // namespace

double BestJoinedCorrelation(const Table& query, size_t query_col,
                             const Table& candidate, size_t cand_col,
                             size_t min_rows) {
  // Join map: token -> first candidate row (COCOA assumes key-ish join
  // columns; duplicates keep the first match).
  std::unordered_map<std::string, size_t> cand_rows;
  for (size_t r = 0; r < candidate.num_rows(); ++r) {
    std::string tok = JoinToken(candidate.at(r, cand_col));
    if (tok.empty()) continue;
    cand_rows.emplace(std::move(tok), r);
  }
  std::vector<size_t> q_num = NumericColumns(query);
  std::vector<size_t> c_num = NumericColumns(candidate);
  if (q_num.empty() || c_num.empty()) return 0.0;

  double best = 0.0;
  for (size_t qc : q_num) {
    for (size_t cc : c_num) {
      std::vector<double> xs;
      std::vector<double> ys;
      for (size_t r = 0; r < query.num_rows(); ++r) {
        std::string tok = JoinToken(query.at(r, query_col));
        if (tok.empty()) continue;
        auto it = cand_rows.find(tok);
        if (it == cand_rows.end()) continue;
        double x;
        double y;
        if (ParseNumericLoose(query.at(r, qc), &x) &&
            ParseNumericLoose(candidate.at(it->second, cc), &y)) {
          xs.push_back(x);
          ys.push_back(y);
        }
      }
      if (xs.size() < min_rows) continue;
      Result<double> rho = SpearmanOfVectors(xs, ys);
      if (rho.ok()) best = std::max(best, std::fabs(*rho));
    }
  }
  return best;
}

namespace {

/// "No row" in the per-search join scratch.
constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();

/// JoinToken of cell `r`, written into `*out`; reusing its capacity, the
/// per-candidate join allocates nothing once the buffer has grown.
void JoinTokenAt(const ColumnView& col, size_t r, std::string* out) {
  char buf[ColumnView::kCsvBufferSize];
  out->assign(TrimView(col.CsvViewAt(r, buf)));
  // ToLowerAscii's mapping, in place.
  for (char& ch : *out) {
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  }
}

}  // namespace

/// The query's hoisted join side, plus the scratch every candidate's join
/// reuses.
struct CocoaSearch::QuerySide {
  NumericCells num;
  /// Distinct join tokens of the query rows, sorted.
  std::vector<std::string> keys;
  /// Per query row, its token's index in `keys` (kNoRow: no token).
  std::vector<uint32_t> row_slot;
  /// Per key, the first candidate row holding it (kNoRow: none).
  std::vector<uint32_t> first_row;
  /// A candidate cell's join token.
  std::string token;
  /// Spearman inputs and rank scratch, one slot per query row.
  std::vector<double> xs, ys, rx, ry;
  std::vector<size_t> order;
};

CocoaSearch::NumericCells CocoaSearch::ParseNumericCells(const Table& t) {
  NumericCells out;
  out.rows = t.num_rows();
  std::vector<double> values(out.rows);
  std::vector<uint8_t> parsed(out.rows);
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const ColumnView col = t.column(c);
    size_t n = 0;
    bool ok = true;
    for (size_t r = 0; r < out.rows && ok; ++r) {
      parsed[r] = 0;
      if (col.is_null(r)) continue;
      ok = ParseNumericLooseAt(col, r, &values[r]);
      parsed[r] = ok ? 1 : 0;
      ++n;
    }
    if (!ok || n < 2) continue;
    out.columns.push_back(c);
    out.values.insert(out.values.end(), values.begin(), values.end());
    out.parsed.insert(out.parsed.end(), parsed.begin(), parsed.end());
  }
  return out;
}

CocoaSearch::QuerySide CocoaSearch::MakeQuerySide(
    const Table& query, const ColumnView& join_col) const {
  QuerySide side;
  side.num = ParseNumericCells(query);
  if (side.num.columns.empty()) return side;  // never joins
  const size_t rows = query.num_rows();
  std::vector<std::string> row_tokens(rows);
  for (size_t r = 0; r < rows; ++r) {
    JoinTokenAt(join_col, r, &row_tokens[r]);
    if (!row_tokens[r].empty()) side.keys.push_back(row_tokens[r]);
  }
  std::sort(side.keys.begin(), side.keys.end());
  side.keys.erase(std::unique(side.keys.begin(), side.keys.end()),
                  side.keys.end());
  side.row_slot.assign(rows, kNoRow);
  for (size_t r = 0; r < rows; ++r) {
    if (row_tokens[r].empty()) continue;
    side.row_slot[r] = static_cast<uint32_t>(
        std::lower_bound(side.keys.begin(), side.keys.end(), row_tokens[r]) -
        side.keys.begin());
  }
  side.first_row.resize(side.keys.size());
  for (std::vector<double>* v : {&side.xs, &side.ys, &side.rx, &side.ry}) {
    v->resize(rows);
  }
  side.order.resize(rows);
  return side;
}

double CocoaSearch::JoinedCorrelation(QuerySide* q, const Table& cand,
                                      size_t cand_col,
                                      const NumericCells& cnum,
                                      uint64_t* spearman_evals) const {
  // Without a numeric pair BestJoinedCorrelation returns 0 and its join
  // goes unused.
  if (q->num.columns.empty() || cnum.columns.empty()) return 0.0;
  // The join: each query token's first candidate row, as
  // BestJoinedCorrelation's join map keeps it.
  std::fill(q->first_row.begin(), q->first_row.end(), kNoRow);
  const ColumnView ccol = cand.column(cand_col);
  for (size_t r = 0; r < ccol.size(); ++r) {
    JoinTokenAt(ccol, r, &q->token);
    if (q->token.empty()) continue;
    auto it = std::lower_bound(q->keys.begin(), q->keys.end(), q->token);
    if (it == q->keys.end() || *it != q->token) continue;
    uint32_t& first = q->first_row[it - q->keys.begin()];
    if (first == kNoRow) first = static_cast<uint32_t>(r);
  }
  // The same xs/ys sequences BestJoinedCorrelation builds: query rows in
  // order, kept where the row joins and both cells parse.
  const size_t qrows = q->num.rows;
  double best = 0.0;
  for (size_t i = 0; i < q->num.columns.size(); ++i) {
    for (size_t j = 0; j < cnum.columns.size(); ++j) {
      size_t n = 0;
      for (size_t r = 0; r < qrows; ++r) {
        const uint32_t slot = q->row_slot[r];
        if (slot == kNoRow || q->first_row[slot] == kNoRow) continue;
        const size_t qi = i * qrows + r;
        const size_t ci = j * cnum.rows + q->first_row[slot];
        if (!q->num.parsed[qi] || !cnum.parsed[ci]) continue;
        q->xs[n] = q->num.values[qi];
        q->ys[n] = cnum.values[ci];
        ++n;
      }
      if (n < params_.min_joined_rows) continue;
      ++*spearman_evals;
      double rho = 0.0;
      if (SpearmanOfArrays(q->xs.data(), q->ys.data(), n, q->order.data(),
                           q->rx.data(), q->ry.data(), &rho)) {
        best = std::max(best, std::fabs(rho));
      }
    }
  }
  return best;
}

Status CocoaSearch::BuildIndex(const DataLake& lake) {
  lake_ = &lake;
  tokens_ = lake.tokens(num_threads_);
  const LakeTokens& tokens = *tokens_;
  numeric_.assign(lake.size(), NumericCells{});
  std::vector<TableId> todo;
  size_t columns = 0;
  for (TableId t = 0; t < tokens.num_tables(); ++t) {
    const uint32_t first = tokens.FirstColumn(t);
    size_t indexed = 0;
    for (uint32_t col = first; col < first + tokens.NumColumns(t); ++col) {
      if (tokens.JoinIndexed(col)) ++indexed;
    }
    if (indexed > 0) todo.push_back(t);
    columns += indexed;
  }
  // Tables are independent, so they parse on the build's workers.
  ForEachTableIndex(num_threads_, todo.size(), [&](size_t i) {
    numeric_[todo[i]] = ParseNumericCells(lake.table(todo[i]));
  }, obs_);
  ObsAdd(obs_, "discover.cocoa.build.tables", lake.size());
  ObsSet(obs_, "discover.cocoa.index.columns", columns);
  return Status::OK();
}

Result<std::vector<DiscoveryHit>> CocoaSearch::Search(
    const DiscoveryQuery& query) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  if (query.table == nullptr) {
    return Status::InvalidArgument("query table is null");
  }
  if (query.query_column >= query.table->num_columns()) {
    return Status::OutOfRange("query column out of range");
  }
  const ColumnView qcol = query.table->column(query.query_column);
  std::vector<std::string> qtokens = ColumnTokens(qcol);
  if (qtokens.empty()) return std::vector<DiscoveryHit>{};

  // Joinable candidates via the lake's postings over indexed columns:
  // per-column overlap counts in a dense array, columns in first-seen
  // order.
  const LakeTokens& tokens = *tokens_;
  std::vector<uint32_t> overlap(tokens.num_columns(), 0);
  std::vector<uint32_t> seen;
  for (const std::string& tok : qtokens) {
    const uint32_t id = tokens.Find(tok);
    if (id == kNoToken) continue;
    const uint32_t* cols = tokens.Postings(id);
    for (size_t i = 0; i < tokens.PostingCount(id); ++i) {
      if (!tokens.JoinIndexed(cols[i])) continue;
      if (overlap[cols[i]]++ == 0) seen.push_back(cols[i]);
    }
  }
  const double min_overlap =
      params_.min_containment * static_cast<double>(qtokens.size());
  const TableId self = lake_->IdOf(query.table->name());
  struct Joinable {
    size_t column;  ///< in its table
    size_t overlap;
    TableId table;
  };
  std::vector<Joinable> joinable;
  for (uint32_t col : seen) {
    if (static_cast<double>(overlap[col]) < min_overlap) continue;
    const TableId t = tokens.TableOf(col);
    if (t == self) continue;
    joinable.push_back({col - tokens.FirstColumn(t), overlap[col], t});
  }

  // Each joinable column's best correlation.
  std::vector<double> rhos(joinable.size());
  CancelPoller poller(query.cancel);
  if (search_mode_ == SearchMode::kExhaustive) {
    // analyze: hot-alloc(kExhaustive reference: one join map per call)
    for (size_t i = 0; i < joinable.size(); ++i) {
      if (poller.Cancelled()) {
        return Status::DeadlineExceeded("cocoa exhaustive scan cancelled");
      }
      rhos[i] = BestJoinedCorrelation(
          *query.table, query.query_column, lake_->table(joinable[i].table),
          joinable[i].column, params_.min_joined_rows);
    }
  } else {
    QuerySide side = MakeQuerySide(*query.table, qcol);
    uint64_t spearman_evals = 0;
    for (size_t i = 0; i < joinable.size(); ++i) {
      if (poller.Cancelled()) {
        return Status::DeadlineExceeded("cocoa search cancelled");
      }
      const TableId t = joinable[i].table;
      rhos[i] = JoinedCorrelation(&side, lake_->table(t), joinable[i].column,
                                  numeric_[t], &spearman_evals);
    }
    ObsAdd(obs_, "discover.cocoa.work.spearman_evals", spearman_evals);
  }

  // Per table, the best score over its joinable columns. Correlated
  // candidates score by |ρ|; uncorrelated ones by a scaled containment
  // floor, so they rank strictly below. A table enters `scored` with its
  // first positive score (RankHits drops the rest).
  std::vector<double> best_score(lake_->size(), 0.0);
  std::vector<TableId> scored;
  for (size_t i = 0; i < joinable.size(); ++i) {
    double containment = static_cast<double>(joinable[i].overlap) /
                         static_cast<double>(qtokens.size());
    double score = rhos[i] > 0.0
                       ? rhos[i]
                       : params_.joinability_fallback_scale * containment;
    const TableId t = joinable[i].table;
    if (score > best_score[t]) {
      if (best_score[t] == 0.0) scored.push_back(t);
      best_score[t] = score;
    }
  }
  std::vector<DiscoveryHit> hits;
  hits.reserve(scored.size());
  for (TableId t : scored) {
    hits.push_back({lake_->table_names()[t], best_score[t]});
  }
  return RankHits(std::move(hits), query.k);
}

}  // namespace dialite
