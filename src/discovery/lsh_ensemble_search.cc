#include "discovery/lsh_ensemble_search.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "discovery/cascade.h"

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

std::vector<uint32_t> LshEnsembleSearch::Histogram(uint64_t id) const {
  const uint32_t* hist = bucket_hists_.data() + id * params_.bound_buckets;
  return std::vector<uint32_t>(hist, hist + params_.bound_buckets);
}

Status LshEnsembleSearch::BuildIndex(const DataLake& lake) {
  lake_ = &lake;
  tokens_ = lake.tokens(num_threads_);
  const LakeTokens& tokens = *tokens_;
  const size_t k = params_.num_perm;
  const size_t buckets = params_.bound_buckets;
  // Per dictionary token, one HashString gives its histogram bucket and its
  // k MinHash component hashes (k uint64 per token, freed on return).
  std::vector<uint32_t> token_bucket(tokens.num_tokens());
  std::vector<uint64_t> remixes(tokens.num_tokens() * k);
  ForEachTableIndex(num_threads_, tokens.num_tokens(), [&](size_t id) {
    const uint64_t base =
        HashString(tokens.token(static_cast<uint32_t>(id)), params_.seed);
    token_bucket[id] = static_cast<uint32_t>(base % buckets);
    for (size_t i = 0; i < k; ++i) {
      remixes[id * k + i] = MinHash::Remix(base, params_.seed, i);
    }
  }, obs_);
  // Ensemble ids: every join-indexed column, in lake order.
  columns_.clear();
  std::vector<size_t> lake_columns;
  for (size_t col = 0; col < tokens.num_columns(); ++col) {
    if (!tokens.JoinIndexed(col)) continue;
    const TableId t = tokens.TableOf(col);
    columns_.push_back({t, static_cast<uint32_t>(col - tokens.FirstColumn(t))});
    lake_columns.push_back(col);
  }
  // Each column's histogram, and its signature: the minimum over its ids.
  bucket_hists_.assign(columns_.size() * buckets, 0);
  std::vector<MinHash> sketches(columns_.size(), MinHash(k, params_.seed));
  ForEachTableIndex(num_threads_, columns_.size(), [&](size_t id) {
    const uint32_t* ids = tokens.ColumnIds(lake_columns[id]);
    uint32_t* hist = bucket_hists_.data() + id * buckets;
    for (size_t i = 0; i < tokens.ColumnSize(lake_columns[id]); ++i) {
      ++hist[token_bucket[ids[i]]];
      sketches[id].UpdateRemixed(remixes.data() + size_t{ids[i]} * k);
    }
  }, obs_);
  ensemble_ = LshEnsemble(LshEnsemble::Params{
      params_.num_perm, params_.num_partitions, params_.seed});
  for (size_t id = 0; id < columns_.size(); ++id) {
    DIALITE_RETURN_IF_ERROR(ensemble_.AddSketch(
        id, tokens.ColumnSize(lake_columns[id]), std::move(sketches[id])));
  }
  table_columns_ = TableColumns(columns_, lake.size());
  ObsAdd(obs_, "discover.lsh_ensemble.build.tables", lake.size());
  ObsSet(obs_, "discover.lsh_ensemble.index.columns", columns_.size());
  return ensemble_.Build();
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
