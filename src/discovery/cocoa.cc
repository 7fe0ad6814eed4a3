#include "discovery/cocoa.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "analyze/stats.h"
#include "common/string_util.h"
#include "snapshot/bytes.h"
#include "text/tokenizer.h"

namespace dialite {

namespace {

/// Columns with fewer distinct tokens are not indexed.
constexpr size_t kMinDistinct = 2;
constexpr uint32_t kCocoaPayloadVersion = 1;

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

Status CocoaSearch::BuildIndex(const DataLake& lake) {
  lake_ = &lake;
  index_.Build(lake, kMinDistinct, num_threads_, obs_);
  ObsAdd(obs_, "discover.cocoa.build.tables", lake.size());
  ObsSet(obs_, "discover.cocoa.index.columns", index_.columns().size());
  return Status::OK();
}

Status CocoaSearch::SavePayload(BinaryWriter* w) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  w->Str(name());
  w->U32(kCocoaPayloadVersion);
  index_.Save(w);
  return Status::OK();
}

Status CocoaSearch::LoadPayload(BinaryReader* r, const DataLake& lake) {
  std::string algo;
  DIALITE_RETURN_IF_ERROR(r->Str(&algo));
  uint32_t version = 0;
  DIALITE_RETURN_IF_ERROR(r->U32(&version));
  if (algo != name() || version != kCocoaPayloadVersion) {
    return Status::ParseError("not a cocoa v1 index payload");
  }
  DIALITE_RETURN_IF_ERROR(index_.Load(r, lake));
  lake_ = &lake;
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
  std::vector<std::string> qtokens =
      ColumnTokens(query.table->column(query.query_column));
  if (qtokens.empty()) return std::vector<DiscoveryHit>{};

  // Joinable candidates via the inverted index.
  std::unordered_map<uint32_t, size_t> overlap;
  for (const std::string& tok : qtokens) {
    const std::vector<uint32_t>* ids = index_.Find(tok);
    if (ids == nullptr) continue;
    for (uint32_t id : *ids) ++overlap[id];
  }
  const double min_overlap =
      params_.min_containment * static_cast<double>(qtokens.size());

  // Per table, best correlation over its joinable columns.
  std::unordered_map<std::string, double> best_score;
  for (const auto& [id, n] : overlap) {
    if (static_cast<double>(n) < min_overlap) continue;
    const auto& [table_name, col] = index_.columns()[id];
    if (table_name == query.table->name()) continue;
    const Table* cand = lake_->Get(table_name);
    if (cand == nullptr) continue;
    double rho = BestJoinedCorrelation(*query.table, query.query_column,
                                       *cand, col, params_.min_joined_rows);
    double containment = static_cast<double>(n) /
                         static_cast<double>(qtokens.size());
    // Correlated candidates score by |ρ|; uncorrelated ones by a scaled
    // containment floor, so they rank strictly below.
    double score = rho > 0.0
                       ? rho
                       : params_.joinability_fallback_scale * containment;
    double& cur = best_score[table_name];
    cur = std::max(cur, score);
  }
  std::vector<DiscoveryHit> hits;
  hits.reserve(best_score.size());
  for (const auto& [name, score] : best_score) hits.push_back({name, score});
  return RankHits(std::move(hits), query.k);
}

}  // namespace dialite
