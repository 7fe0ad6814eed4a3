#include "discovery/lsh_ensemble_search.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/hash.h"
#include "discovery/cascade.h"
#include "snapshot/bytes.h"

namespace dialite {

LshEnsembleSearch::LshEnsembleSearch(Params params)
    : params_(params),
      ensemble_(LshEnsemble::Params{params.num_perm, params.num_partitions,
                                    params.seed}) {}

std::vector<uint32_t> LshEnsembleSearch::TokenHistogram(
    const std::vector<std::string>& tokens) const {
  std::vector<uint32_t> hist(params_.bound_buckets, 0);
  for (const std::string& t : tokens) {
    ++hist[HashString(t, params_.seed) % params_.bound_buckets];
  }
  return hist;
}

Status LshEnsembleSearch::BuildIndex(const DataLake& lake) {
  lake_ = &lake;
  columns_.clear();
  bucket_hists_.clear();
  ensemble_ = LshEnsemble(LshEnsemble::Params{
      params_.num_perm, params_.num_partitions, params_.seed});
  const std::vector<const Table*> tables = lake.tables();
  // Compute phase: per indexed column, its histogram and MinHash over its
  // tokens, read from the lake's dictionary (signatures are
  // order-insensitive, so the parallel sketches are bit-identical to
  // sequential ones).
  struct IndexedColumn {
    size_t column;
    size_t set_size;
    std::vector<uint32_t> hist;
    MinHash mh;
  };
  tokens_ = lake.tokens(num_threads_);
  std::vector<std::vector<IndexedColumn>> indexed(tables.size());
  ForEachTableIndex(num_threads_, tables.size(), [&](size_t i) {
    const TableId t = static_cast<TableId>(i);
    for (size_t c = 0; c < tokens_->NumColumns(t); ++c) {
      const size_t col = tokens_->FirstColumn(t) + c;
      if (!tokens_->JoinIndexed(col)) continue;
      const std::vector<std::string> toks = tokens_->ColumnStrings(col);
      indexed[i].push_back(
          {c, toks.size(), TokenHistogram(toks),
           MinHash::FromTokens(toks, params_.num_perm, params_.seed)});
    }
  }, obs_);
  // Merge phase: serial, in lake order (ensemble ids stay dense and stable).
  for (TableId t = 0; t < tables.size(); ++t) {
    for (IndexedColumn& col : indexed[t]) {
      uint64_t id = columns_.size();
      columns_.push_back({t, static_cast<uint32_t>(col.column)});
      bucket_hists_.insert(bucket_hists_.end(), col.hist.begin(),
                           col.hist.end());
      DIALITE_RETURN_IF_ERROR(
          ensemble_.AddSketch(id, col.set_size, std::move(col.mh)));
    }
  }
  table_columns_ = TableColumns(columns_, tables.size());
  ObsAdd(obs_, "discover.lsh_ensemble.build.tables", tables.size());
  ObsSet(obs_, "discover.lsh_ensemble.index.columns", columns_.size());
  return ensemble_.Build();
}

namespace {
constexpr uint32_t kLshPayloadVersion = 1;
}  // namespace

Status LshEnsembleSearch::SavePayload(BinaryWriter* w) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  w->Str(name());
  w->U32(kLshPayloadVersion);
  w->U64(columns_.size());
  const size_t buckets = params_.bound_buckets;
  for (size_t id = 0; id < columns_.size(); ++id) {
    WriteLakeColumn(*lake_, columns_[id], w);
    w->U64(ensemble_.set_size(id));
    w->Array<uint32_t>(std::span<const uint32_t>(
        bucket_hists_.data() + id * buckets, buckets));
    w->Array<uint64_t>(ensemble_.sketch(id).signature());
  }
  return Status::OK();
}

Status LshEnsembleSearch::LoadPayload(BinaryReader* r, const DataLake& lake) {
  std::string algo;
  DIALITE_RETURN_IF_ERROR(r->Str(&algo));
  uint32_t version = 0;
  DIALITE_RETURN_IF_ERROR(r->U32(&version));
  if (algo != name() || version != kLshPayloadVersion) {
    return Status::ParseError("not an lsh_ensemble v1 index payload");
  }
  uint64_t n = 0;
  DIALITE_RETURN_IF_ERROR(r->U64(&n));
  if (n > r->remaining()) {
    return Status::ParseError("lsh column count overruns the payload");
  }
  // Decoded into locals and installed only once the whole payload reads:
  // a failed load leaves the index as it was.
  std::vector<LakeColumn> columns;
  std::vector<uint32_t> bucket_hists;
  LshEnsemble ensemble(LshEnsemble::Params{params_.num_perm,
                                           params_.num_partitions,
                                           params_.seed});
  for (uint64_t id = 0; id < n; ++id) {
    LakeColumn col;
    DIALITE_RETURN_IF_ERROR(ReadLakeColumn(r, lake, &col));
    uint64_t set_size = 0;
    DIALITE_RETURN_IF_ERROR(r->U64(&set_size));
    std::span<const uint32_t> hist;
    DIALITE_RETURN_IF_ERROR(r->Array(&hist));
    if (hist.size() != params_.bound_buckets) {
      return Status::ParseError("lsh histogram bucket count mismatch");
    }
    std::span<const uint64_t> sig;
    DIALITE_RETURN_IF_ERROR(r->Array(&sig));
    if (sig.size() != params_.num_perm) {
      return Status::ParseError("lsh signature length mismatch");
    }
    DIALITE_RETURN_IF_ERROR(ensemble.AddSketch(
        id, static_cast<size_t>(set_size),
        MinHash::FromSignature(std::vector<uint64_t>(sig.begin(), sig.end()),
                               params_.seed)));
    columns.push_back(col);
    bucket_hists.insert(bucket_hists.end(), hist.begin(), hist.end());
  }
  DIALITE_RETURN_IF_ERROR(ensemble.Build());
  tokens_ = lake.tokens(num_threads_);
  ensemble_ = std::move(ensemble);
  columns_ = std::move(columns);
  bucket_hists_ = std::move(bucket_hists);
  table_columns_ = TableColumns(columns_, lake.size());
  lake_ = &lake;
  return Status::OK();
}

double LshEnsembleSearch::ColumnUpperBound(uint64_t id,
                                           const std::vector<uint32_t>& qhist,
                                           size_t query_set_size) const {
  // |Q∩X| = sum_b |Q_b ∩ X_b| <= sum_b min(|Q_b|, |X_b|) over the hash
  // buckets — exact integer arithmetic, so the bound is content-aware
  // (near-disjoint sets bound well below 1) yet never undercounts.
  // ColumnTokens is distinct, so query_set_size is exactly the |Q| the
  // exact verification divides by, and integer -> double division is
  // monotone: the bound holds under fp rounding.
  const size_t buckets = params_.bound_buckets;
  const uint32_t* xhist = bucket_hists_.data() + id * buckets;
  uint64_t inter = 0;
  for (size_t b = 0; b < buckets; ++b) {
    inter += std::min(qhist[b], xhist[b]);
  }
  double ub = static_cast<double>(inter) / static_cast<double>(query_set_size);
  if (ub > 1.0) ub = 1.0;
  return ub >= params_.containment_threshold ? ub : 0.0;
}

Result<double> LshEnsembleSearch::ScoreUpperBound(
    const DiscoveryQuery& query, const std::string& table_name) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  if (query.table == nullptr) {
    return Status::InvalidArgument("query table is null");
  }
  if (query.query_column >= query.table->num_columns()) {
    return Status::OutOfRange("query column out of range");
  }
  std::vector<std::string> qtokens =
      ColumnTokens(query.table->column(query.query_column));
  if (qtokens.empty()) return 0.0;
  // A table without indexed columns cannot score.
  const std::vector<uint32_t>& ids =
      table_columns_.Of(lake_->IdOf(table_name));
  if (ids.empty()) return 0.0;
  const std::vector<uint32_t> qhist = TokenHistogram(qtokens);
  double ub = 0.0;
  for (uint32_t id : ids) {
    ub = std::max(ub, ColumnUpperBound(id, qhist, qtokens.size()));
  }
  return ub;
}

Result<std::vector<DiscoveryHit>> LshEnsembleSearch::Search(
    const DiscoveryQuery& query) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  if (query.table == nullptr) {
    return Status::InvalidArgument("query table is null");
  }
  if (query.query_column >= query.table->num_columns()) {
    return Status::OutOfRange("query column out of range");
  }
  // Lake-resident query tables (the discover-from-lake flow) read the
  // column's tokens and ids from the lake's tokens and, when the query
  // column is indexed, use the ensemble's own sketch of it, so per-search
  // query tokenizing and sketching drop out. Transient query tables are
  // tokenized, and their tokens looked up in the dictionary, per search.
  const TableId self = lake_->IdOf(query.table->name());
  const MinHash* qsketch = nullptr;
  std::vector<std::string> qtokens;
  std::vector<uint32_t> qids;
  if (self < tokens_->num_tables() && &lake_->table(self) == query.table) {
    const size_t col = tokens_->FirstColumn(self) + query.query_column;
    qtokens = tokens_->ColumnStrings(col);
    qids.assign(tokens_->ColumnIds(col),
                tokens_->ColumnIds(col) + tokens_->ColumnSize(col));
    std::sort(qids.begin(), qids.end());
    for (uint32_t id : table_columns_.Of(self)) {
      if (columns_[id].column == query.query_column) {
        qsketch = &ensemble_.sketch(id);
      }
    }
  } else {
    qtokens = ColumnTokens(query.table->column(query.query_column));
    qids = tokens_->SortedIds(qtokens);
  }
  if (qtokens.empty()) return std::vector<DiscoveryHit>{};

  // ColumnTokens is distinct, so the indexed sketch matches what the token
  // overload would build and qtokens.size() is the true distinct-set size.
  std::vector<uint64_t> cand_ids =
      qsketch != nullptr
          ? ensemble_.Query(*qsketch, qtokens.size(),
                            params_.containment_threshold)
          : ensemble_.Query(qtokens, params_.containment_threshold);

  // Group candidate columns by table, in table-id order: group j is
  // by_table[starts[j], starts[j + 1]), all of table group_table[j]. Both
  // modes score a table as its best verified column's containment
  // |Q ∩ X| / |Q|: the intersection of token ids, over every query token
  // (those outside the dictionary included).
  std::vector<std::pair<TableId, uint32_t>> by_table;
  by_table.reserve(cand_ids.size());
  for (uint64_t id : cand_ids) {
    const TableId t = columns_[id].table;
    if (t == self) continue;
    by_table.emplace_back(t, static_cast<uint32_t>(id));
  }
  std::sort(by_table.begin(), by_table.end());
  std::vector<size_t> starts;
  std::vector<TableId> group_table;
  for (size_t i = 0; i < by_table.size(); ++i) {
    if (i == 0 || by_table[i].first != by_table[i - 1].first) {
      starts.push_back(i);
      group_table.push_back(by_table[i].first);
    }
  }
  starts.push_back(by_table.size());
  const size_t num_groups = group_table.size();
  const std::vector<std::string>& names = lake_->table_names();

  auto score_table = [&](size_t group) {
    const uint32_t first = tokens_->FirstColumn(group_table[group]);
    double best = 0.0;
    for (size_t i = starts[group]; i < starts[group + 1]; ++i) {
      const size_t inter =
          tokens_->Overlap(first + columns_[by_table[i].second].column, qids);
      const double c =
          static_cast<double>(inter) / static_cast<double>(qtokens.size());
      if (c < params_.containment_threshold) continue;
      best = std::max(best, c);
    }
    return best;
  };

  if (search_mode_ == SearchMode::kExhaustive) {
    std::vector<DiscoveryHit> hits;
    hits.reserve(num_groups);
    CascadeStats stats;
    stats.candidates_total = num_groups;
    stats.scored_exact = num_groups;
    for (size_t j = 0; j < num_groups; ++j) {
      if (query.cancel != nullptr && query.cancel->Cancelled()) {
        return Status::DeadlineExceeded(
            "lsh_ensemble exhaustive scan cancelled");
      }
      double score = score_table(j);
      if (score > 0.0) hits.push_back({names[group_table[j]], score});
    }
    PublishCascadeStats(obs_, name(), stats);
    return RankHits(std::move(hits), query.k);
  }

  // Cascade: per-table histogram bounds over the LSH candidate columns,
  // then bounded top-k over the exact verifier. One query histogram is
  // shared across every candidate column.
  const std::vector<uint32_t> qhist = TokenHistogram(qtokens);
  std::vector<BoundedCandidate> bounded;
  bounded.reserve(num_groups);
  for (size_t j = 0; j < num_groups; ++j) {
    double ub = 0.0;
    for (size_t i = starts[j]; i < starts[j + 1]; ++i) {
      ub = std::max(ub,
                    ColumnUpperBound(by_table[i].second, qhist, qtokens.size()));
    }
    bounded.push_back({names[group_table[j]], ub, group_table[j]});
  }
  ExactScorer scorer = [&](const BoundedCandidate& cand) {
    return score_table(static_cast<size_t>(
        std::lower_bound(group_table.begin(), group_table.end(), cand.table) -
        group_table.begin()));
  };
  CascadeStats stats;
  std::vector<DiscoveryHit> top =
      RunBoundedTopK(std::move(bounded), query.k, scorer, &stats, query.cancel);
  PublishCascadeStats(obs_, name(), stats);
  if (stats.cancelled) {
    return Status::DeadlineExceeded("lsh_ensemble search cancelled mid-cascade");
  }
  return top;
}

}  // namespace dialite
