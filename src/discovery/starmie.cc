#include "discovery/starmie.h"

#include <algorithm>
#include <span>

#include "table/column_view.h"

namespace dialite {

StarmieSearch::StarmieSearch(Params params)
    : params_(params), dim_(ColumnEmbedder().dim()) {}

void StarmieSearch::Contextualize(const float* own, size_t n,
                                  float* out) const {
  std::vector<float> ctx(dim_);
  for (size_t c = 0; c < n; ++c) {
    std::fill(ctx.begin(), ctx.end(), 0.0f);
    size_t others = 0;
    for (size_t o = 0; o < n; ++o) {
      if (o == c) continue;
      for (size_t d = 0; d < dim_; ++d) ctx[d] += own[o * dim_ + d];
      ++others;
    }
    float* mixed = out + c * dim_;
    const double g = others == 0 ? 0.0 : params_.context_weight;
    for (size_t d = 0; d < dim_; ++d) {
      double ctx_mean = others == 0 ? 0.0
                                    : static_cast<double>(ctx[d]) /
                                          static_cast<double>(others);
      mixed[d] =
          static_cast<float>((1.0 - g) * own[c * dim_ + d] + g * ctx_mean);
    }
    NormalizeEmbedding(mixed, dim_);
  }
}

std::vector<float> StarmieSearch::ContextualizedColumns(
    const Table& table, uint64_t* embedded) const {
  const size_t n = table.num_columns();
  std::vector<float> own(n * dim_);
  std::vector<uint32_t> ids;
  for (size_t c = 0; c < n; ++c) {
    const Embedding e =
        tokens_->EmbedColumn(ColumnTokens(table.column(c)), &ids, embedded);
    std::copy(e.begin(), e.end(),
              own.begin() + static_cast<std::ptrdiff_t>(c * dim_));
  }
  std::vector<float> out(n * dim_);
  Contextualize(own.data(), n, out.data());
  return out;
}

namespace {

/// EmbeddingNorm of each `dim`-float row of `vectors`.
std::vector<double> Norms(const std::vector<float>& vectors, size_t dim) {
  std::vector<double> norms;
  norms.reserve(vectors.size() / dim);
  for (size_t at = 0; at < vectors.size(); at += dim) {
    norms.push_back(EmbeddingNorm(vectors.data() + at, dim));
  }
  return norms;
}

}  // namespace

Status StarmieSearch::BuildIndex(const DataLake& lake) {
  tokens_ = lake.tokens(num_threads_);
  const LakeTokens& tokens = *tokens_;
  const size_t num_tables = tokens.num_tables();
  row_begin_.assign(1, 0);
  max_columns_ = 0;
  for (TableId t = 0; t < num_tables; ++t) {
    row_begin_.push_back(row_begin_.back() + tokens.NumColumns(t));
    max_columns_ = std::max(max_columns_, tokens.NumColumns(t));
  }
  // Compute phase: each table's contextualized vectors, mixed from its
  // rows of the lake's embeddings.
  vectors_.assign(tokens.num_columns() * dim_, 0.0f);
  ForEachTableIndex(num_threads_, num_tables, [&](size_t i) {
    const TableId t = static_cast<TableId>(i);
    Contextualize(tokens.ColumnEmbedding(row_begin_[t]), NumColumns(t),
                  vectors_.data() + row_begin_[t] * dim_);
  }, obs_);
  norms_ = Norms(vectors_, dim_);
  // Merge phase: serial SimHash inserts in lake order keep ids and band
  // bucket order identical to a sequential build.
  columns_.clear();
  index_ = std::make_unique<SimHashIndex>(params_.simhash_bits, dim_,
                                          params_.band_bits, params_.seed);
  for (TableId t = 0; t < num_tables; ++t) {
    for (size_t c = 0; c < NumColumns(t); ++c) {
      const std::span<const float> row(Row(row_begin_[t] + c), dim_);
      // Skip empty (all-null) columns: the zero vector matches nothing.
      if (std::all_of(row.begin(), row.end(),
                      [](float x) { return x == 0.0f; })) {
        continue;
      }
      const uint64_t id = columns_.size();
      columns_.push_back({t, static_cast<uint32_t>(c)});
      DIALITE_RETURN_IF_ERROR(index_->Insert(id, row));
    }
  }
  lake_ = &lake;
  ObsAdd(obs_, "discover.starmie.build.tables", num_tables);
  ObsSet(obs_, "discover.starmie.index.columns", columns_.size());
  return Status::OK();
}

double StarmieSearch::MatchColumns(const float* qvecs, size_t nq,
                                   size_t intent, TableId t,
                                   MatchScratch* scratch,
                                   uint64_t* exact_cosines) const {
  // Pairs in (q, c) order: std::sort breaks cosine ties by position, so
  // this order is part of the score.
  const size_t first = row_begin_[t];
  const size_t ncols = NumColumns(t);
  ColumnPair* pairs = scratch->pairs.data();
  size_t n = 0;
  for (size_t q = 0; q < nq; ++q) {
    for (size_t c = 0; c < ncols; ++c) {
      double cos = CosineSimilarity(qvecs + q * dim_, Row(first + c), dim_);
      if (cos >= params_.min_column_cosine) {
        pairs[n++] = {static_cast<uint32_t>(q), static_cast<uint32_t>(c), cos};
      }
    }
  }
  *exact_cosines += nq * ncols;
  std::sort(pairs, pairs + n, [](const ColumnPair& a, const ColumnPair& b) {
    return a.score > b.score;
  });
  return GreedyMatchMean({pairs, n}, nq, ncols, intent, &scratch->used);
}

double StarmieSearch::CandidateUpperBound(const float* qvecs,
                                          const std::vector<double>& qnorms,
                                          size_t intent, TableId t) const {
  const size_t nq = qnorms.size();
  const size_t first = row_begin_[t];
  const size_t nc = NumColumns(t);
  // Query column q's best pair bound at or above the gate.
  auto best_pair = [&](size_t q) {
    double best = kNoPair;
    for (size_t g = first; g < first + nc; ++g) {
      const double ub = CosineUpperBound(qvecs + q * dim_, qnorms[q], Row(g),
                                         norms_[g], dim_);
      // cos <= ub: a pair whose bound misses the gate never matches.
      if (ub >= params_.min_column_cosine) best = std::max(best, ub);
    }
    return best;
  };
  return RelaxedMatchBound(nq, intent, std::min(nq, nc), best_pair);
}

Result<double> StarmieSearch::ScoreUpperBound(
    const DiscoveryQuery& query, const std::string& table_name) const {
  if (lake_ == nullptr || index_ == nullptr) {
    return Status::Internal("BuildIndex not called");
  }
  if (query.table == nullptr) {
    return Status::InvalidArgument("query table is null");
  }
  if (query.query_column >= query.table->num_columns()) {
    return Status::OutOfRange("query column out of range");
  }
  const TableId t = lake_->IdOf(table_name);
  // Not indexed (kNoTable included): cannot score.
  if (t >= NumTables()) return 0.0;
  const std::vector<float> qvecs = ContextualizedColumns(*query.table);
  return CandidateUpperBound(qvecs.data(), Norms(qvecs, dim_),
                             query.query_column, t);
}

Result<std::vector<DiscoveryHit>> StarmieSearch::Search(
    const DiscoveryQuery& query) const {
  if (lake_ == nullptr || index_ == nullptr) {
    return Status::Internal("BuildIndex not called");
  }
  if (query.table == nullptr) {
    return Status::InvalidArgument("query table is null");
  }
  if (query.query_column >= query.table->num_columns()) {
    return Status::OutOfRange("query column out of range");
  }
  const size_t nq = query.table->num_columns();
  uint64_t embedded = 0;
  const std::vector<float> qvecs =
      ContextualizedColumns(*query.table, &embedded);
  ObsAdd(obs_, "discover.starmie.work.embedded_values", embedded);

  // Candidate tables: every table owning a column that SimHash-collides
  // with any query column, deduplicated, in id order. Neither mode's
  // ranking depends on their order (RunBoundedTopK sorts by bound and
  // name, RankHits by score and name).
  std::vector<TableId> candidates;
  for (size_t q = 0; q < nq; ++q) {
    for (uint64_t id :
         index_->Query(std::span<const float>(qvecs.data() + q * dim_, dim_))) {
      candidates.push_back(columns_[id].table);
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  const TableId self = lake_->IdOf(query.table->name());
  candidates.erase(std::remove(candidates.begin(), candidates.end(), self),
                   candidates.end());
  const std::vector<std::string>& names = lake_->table_names();

  MatchScratch scratch;
  scratch.pairs.resize(nq * max_columns_);
  uint64_t exact_cosines = 0;
  CascadeStats stats;
  if (search_mode_ == SearchMode::kExhaustive) {
    std::vector<double> scores(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (query.cancel != nullptr && query.cancel->Cancelled()) {
        return Status::DeadlineExceeded("starmie exhaustive scan cancelled");
      }
      scores[i] = MatchColumns(qvecs.data(), nq, query.query_column,
                               candidates[i], &scratch, &exact_cosines);
    }
    std::vector<DiscoveryHit> hits;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (scores[i] > 0.0) hits.push_back({names[candidates[i]], scores[i]});
    }
    stats.candidates_total = candidates.size();
    stats.scored_exact = candidates.size();
    PublishCascadeStats(obs_, name(), stats);
    ObsAdd(obs_, "discover.starmie.work.exact_cosines", exact_cosines);
    return RankHits(std::move(hits), query.k);
  }

  // Cascade: CosineUpperBound per pair bounds each candidate, then bounded
  // top-k over the shared exact matching.
  const std::vector<double> qnorms = Norms(qvecs, dim_);
  std::vector<BoundedCandidate> bounded;
  bounded.reserve(candidates.size());
  for (TableId t : candidates) {
    bounded.push_back(
        {names[t],
         CandidateUpperBound(qvecs.data(), qnorms, query.query_column, t), t});
  }
  ExactScorer scorer = [&](const BoundedCandidate& cand) {
    return MatchColumns(qvecs.data(), nq, query.query_column, cand.table,
                        &scratch, &exact_cosines);
  };
  std::vector<DiscoveryHit> top =
      RunBoundedTopK(std::move(bounded), query.k, scorer, &stats, query.cancel);
  PublishCascadeStats(obs_, name(), stats);
  ObsAdd(obs_, "discover.starmie.work.exact_cosines", exact_cosines);
  if (stats.cancelled) {
    return Status::DeadlineExceeded("starmie search cancelled mid-cascade");
  }
  return top;
}

}  // namespace dialite
