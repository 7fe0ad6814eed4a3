#include "discovery/lsh_ensemble_search.h"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_map>

#include "common/hash.h"
#include "discovery/cascade.h"
#include "snapshot/bytes.h"
#include "text/similarity.h"

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
  table_columns_.clear();
  ensemble_ = LshEnsemble(LshEnsemble::Params{
      params_.num_perm, params_.num_partitions, params_.seed});
  const std::vector<const Table*> tables = lake.tables();
  // Compute phase: per indexed column, its histogram and MinHash over the
  // shared sketch cache's token set (signatures are order-insensitive, so
  // the parallel sketches are bit-identical to sequential ones).
  struct IndexedColumn {
    size_t column;
    size_t set_size;
    std::vector<uint32_t> hist;
    MinHash mh;
  };
  std::vector<std::vector<IndexedColumn>> indexed(tables.size());
  ForEachTableIndex(num_threads_, tables.size(), [&](size_t i) {
    std::shared_ptr<const ColumnTokenSets> tokens =
        lake.sketch_cache().TokenSets(*tables[i]);
    for (size_t c = 0; c < tokens->size(); ++c) {
      const std::vector<std::string>& toks = (*tokens)[c];
      if (toks.size() < params_.min_distinct) continue;
      indexed[i].push_back(
          {c, toks.size(), TokenHistogram(toks),
           MinHash::FromTokens(toks, params_.num_perm, params_.seed)});
    }
  }, obs_);
  // Merge phase: serial, in lake order (ensemble ids stay dense and stable).
  for (size_t i = 0; i < tables.size(); ++i) {
    const std::string& table_name = tables[i]->name();
    for (IndexedColumn& col : indexed[i]) {
      uint64_t id = columns_.size();
      columns_.emplace_back(table_name, col.column);
      bucket_hists_.push_back(std::move(col.hist));
      table_columns_[table_name].push_back(id);
      DIALITE_RETURN_IF_ERROR(
          ensemble_.AddSketch(id, col.set_size, std::move(col.mh)));
    }
  }
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
  for (size_t id = 0; id < columns_.size(); ++id) {
    w->Str(columns_[id].first);
    w->U64(columns_[id].second);
    w->U64(ensemble_.set_size(id));
    w->Array<uint32_t>(bucket_hists_[id]);
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
  columns_.clear();
  bucket_hists_.clear();
  table_columns_.clear();
  ensemble_ = LshEnsemble(LshEnsemble::Params{
      params_.num_perm, params_.num_partitions, params_.seed});
  for (uint64_t id = 0; id < n; ++id) {
    std::string table;
    DIALITE_RETURN_IF_ERROR(r->Str(&table));
    uint64_t col = 0, set_size = 0;
    DIALITE_RETURN_IF_ERROR(r->U64(&col));
    DIALITE_RETURN_IF_ERROR(r->U64(&set_size));
    const Table* t = lake.Get(table);
    if (t == nullptr) {
      return Status::NotFound("indexed table '" + table +
                              "' missing from lake");
    }
    if (col >= t->num_columns()) {
      return Status::ParseError("lsh column id references unknown column");
    }
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
    DIALITE_RETURN_IF_ERROR(ensemble_.AddSketch(
        id, static_cast<size_t>(set_size),
        MinHash::FromSignature(std::vector<uint64_t>(sig.begin(), sig.end()),
                               params_.seed)));
    table_columns_[table].push_back(id);
    columns_.emplace_back(std::move(table), static_cast<size_t>(col));
    bucket_hists_.emplace_back(hist.begin(), hist.end());
  }
  lake_ = &lake;
  return ensemble_.Build();
}

double LshEnsembleSearch::ColumnUpperBound(uint64_t id,
                                           const std::vector<uint32_t>& qhist,
                                           size_t query_set_size) const {
  // |Q∩X| = sum_b |Q_b ∩ X_b| <= sum_b min(|Q_b|, |X_b|) over the hash
  // buckets — exact integer arithmetic, so the bound is content-aware
  // (near-disjoint sets bound well below 1) yet never undercounts.
  // ColumnTokens is distinct, so query_set_size is exactly the |Q| the
  // exact Containment() divides by, and integer -> double division is
  // monotone: the bound holds under fp rounding.
  const std::vector<uint32_t>& xhist = bucket_hists_[id];
  uint64_t inter = 0;
  for (size_t b = 0; b < xhist.size(); ++b) {
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
  auto it = table_columns_.find(table_name);
  if (it == table_columns_.end()) return 0.0;  // not indexed: cannot score
  const std::vector<uint32_t> qhist = TokenHistogram(qtokens);
  double ub = 0.0;
  for (uint64_t id : it->second) {
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
  // Lake-resident query tables (the discover-from-lake flow) reuse the
  // shared sketch cache's tokens and, when the query column is indexed, the
  // ensemble's own sketch of it, so per-search query sketching drops out.
  // Transient query tables are tokenized locally — the cache must not pin
  // them.
  std::shared_ptr<const ColumnTokenSets> cached_tokens;
  const MinHash* qsketch = nullptr;
  std::vector<std::string> own_tokens;
  const std::vector<std::string>* qtokens_ptr = &own_tokens;
  if (lake_->Get(query.table->name()) == query.table) {
    cached_tokens = lake_->sketch_cache().TokenSets(*query.table);
    qtokens_ptr = &(*cached_tokens)[query.query_column];
    auto it = table_columns_.find(query.table->name());
    if (it != table_columns_.end()) {
      for (uint64_t id : it->second) {
        if (columns_[id].second == query.query_column) {
          qsketch = &ensemble_.sketch(id);
        }
      }
    }
  } else {
    own_tokens = ColumnTokens(query.table->column(query.query_column));
  }
  const std::vector<std::string>& qtokens = *qtokens_ptr;
  if (qtokens.empty()) return std::vector<DiscoveryHit>{};

  // ColumnTokens is distinct, so the indexed sketch matches what the token
  // overload would build and qtokens.size() is the true distinct-set size.
  std::vector<uint64_t> cand_ids =
      qsketch != nullptr
          ? ensemble_.Query(*qsketch, qtokens.size(),
                            params_.containment_threshold)
          : ensemble_.Query(qtokens, params_.containment_threshold);

  // Group candidate columns by table; both modes score a table as its best
  // verified column's containment, through the same Containment() calls.
  std::map<std::string, std::vector<uint64_t>> by_table;
  for (uint64_t id : cand_ids) {
    const auto& [table_name, col] = columns_[id];
    (void)col;
    if (table_name == query.table->name()) continue;
    by_table[table_name].push_back(id);
  }

  auto score_table = [&](const std::string& table_name,
                         const std::vector<uint64_t>& ids) {
    const Table* cand = lake_->Get(table_name);
    if (cand == nullptr) return 0.0;
    std::shared_ptr<const ColumnTokenSets> ctokens =
        lake_->sketch_cache().TokenSets(*cand);
    double best = 0.0;
    for (uint64_t id : ids) {
      double c = Containment(qtokens, (*ctokens)[columns_[id].second]);
      if (c < params_.containment_threshold) continue;
      best = std::max(best, c);
    }
    return best;
  };

  if (search_mode_ == SearchMode::kExhaustive) {
    std::vector<DiscoveryHit> hits;
    hits.reserve(by_table.size());
    CascadeStats stats;
    stats.candidates_total = by_table.size();
    stats.scored_exact = by_table.size();
    for (const auto& [table_name, ids] : by_table) {
      if (query.cancel != nullptr && query.cancel->Cancelled()) {
        return Status::DeadlineExceeded(
            "lsh_ensemble exhaustive scan cancelled");
      }
      double score = score_table(table_name, ids);
      if (score > 0.0) hits.push_back({table_name, score});
    }
    PublishCascadeStats(obs_, name(), stats);
    return RankHits(std::move(hits), query.k);
  }

  // Cascade: per-table histogram bounds over the LSH candidate columns,
  // then bounded top-k over the exact verifier. One query histogram is
  // shared across every candidate column.
  const std::vector<uint32_t> qhist = TokenHistogram(qtokens);
  std::vector<BoundedCandidate> bounded;
  bounded.reserve(by_table.size());
  for (const auto& [table_name, ids] : by_table) {
    double ub = 0.0;
    for (uint64_t id : ids) {
      ub = std::max(ub, ColumnUpperBound(id, qhist, qtokens.size()));
    }
    bounded.push_back({table_name, ub});
  }
  ExactScorer scorer = [&](const BoundedCandidate& cand) {
    return score_table(cand.table_name, by_table.find(cand.table_name)->second);
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
