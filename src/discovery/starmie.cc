#include "discovery/starmie.h"

#include <algorithm>
#include <span>

#include "snapshot/bytes.h"

namespace dialite {

StarmieSearch::StarmieSearch(Params params, const KnowledgeBase* kb)
    : params_(params), embedder_(kb), dim_(embedder_.dim()) {}

std::vector<Embedding> StarmieSearch::ContextualizedColumns(
    const std::vector<std::vector<std::string>>& column_tokens) const {
  const size_t n = column_tokens.size();
  std::vector<Embedding> own(n);
  for (size_t c = 0; c < n; ++c) {
    own[c] = embedder_.EmbedValueSet(column_tokens[c]);
  }
  std::vector<Embedding> out(n);
  for (size_t c = 0; c < n; ++c) {
    Embedding ctx(embedder_.dim(), 0.0f);
    size_t others = 0;
    for (size_t o = 0; o < n; ++o) {
      if (o == c) continue;
      for (size_t d = 0; d < ctx.size(); ++d) ctx[d] += own[o][d];
      ++others;
    }
    Embedding mixed(embedder_.dim(), 0.0f);
    const double g = others == 0 ? 0.0 : params_.context_weight;
    for (size_t d = 0; d < mixed.size(); ++d) {
      double ctx_mean = others == 0 ? 0.0
                                    : static_cast<double>(ctx[d]) /
                                          static_cast<double>(others);
      mixed[d] = static_cast<float>((1.0 - g) * own[c][d] + g * ctx_mean);
    }
    NormalizeEmbedding(&mixed);
    out[c] = std::move(mixed);
  }
  return out;
}

namespace {

std::vector<double> Norms(const std::vector<Embedding>& vectors) {
  std::vector<double> norms;
  norms.reserve(vectors.size());
  for (const Embedding& v : vectors) {
    norms.push_back(EmbeddingNorm(v.data(), v.size()));
  }
  return norms;
}

}  // namespace

void StarmieSearch::InstallVectors(std::vector<std::vector<Embedding>> tables,
                                   std::vector<uint8_t> indexed) {
  size_t total = 0;
  max_columns_ = 0;
  for (const std::vector<Embedding>& vecs : tables) {
    total += vecs.size();
    max_columns_ = std::max(max_columns_, vecs.size());
  }
  indexed_ = std::move(indexed);
  row_begin_.assign(tables.size() + 1, 0);
  vectors_.resize(total * dim_);
  norms_.clear();
  norms_.reserve(total);
  size_t g = 0;
  for (TableId t = 0; t < tables.size(); ++t) {
    row_begin_[t] = g;
    for (const Embedding& v : tables[t]) {
      std::copy(v.begin(), v.end(),
                vectors_.begin() + static_cast<std::ptrdiff_t>(g * dim_));
      norms_.push_back(EmbeddingNorm(Row(g), dim_));
      ++g;
    }
  }
  row_begin_[tables.size()] = g;
}

Status StarmieSearch::BuildIndex(const DataLake& lake) {
  columns_.clear();
  index_ = std::make_unique<SimHashIndex>(params_.simhash_bits, dim_,
                                          params_.band_bits, params_.seed);
  const std::vector<const Table*> tables = lake.tables();
  // Compute phase: contextualized column embeddings per table (column
  // tokens from the lake's dictionary).
  std::shared_ptr<const LakeTokens> tokens = lake.tokens(num_threads_);
  std::vector<std::vector<Embedding>> all_vecs(tables.size());
  ForEachTableIndex(num_threads_, tables.size(), [&](size_t i) {
    all_vecs[i] = ContextualizedColumns(
        tokens->TableStrings(static_cast<TableId>(i)));
  }, obs_);
  // Merge phase: serial SimHash inserts in lake order keep ids and band
  // bucket order identical to a sequential build.
  for (TableId t = 0; t < tables.size(); ++t) {
    const std::vector<Embedding>& vecs = all_vecs[t];
    for (size_t c = 0; c < vecs.size(); ++c) {
      // Skip empty (all-null) columns: the zero vector matches nothing.
      bool zero = true;
      for (float x : vecs[c]) {
        if (x != 0.0f) {
          zero = false;
          break;
        }
      }
      if (zero) continue;
      uint64_t id = columns_.size();
      columns_.push_back({t, static_cast<uint32_t>(c)});
      DIALITE_RETURN_IF_ERROR(index_->Insert(id, vecs[c]));
    }
  }
  InstallVectors(std::move(all_vecs), std::vector<uint8_t>(tables.size(), 1));
  lake_ = &lake;
  ObsAdd(obs_, "discover.starmie.build.tables", tables.size());
  ObsSet(obs_, "discover.starmie.index.columns", columns_.size());
  return Status::OK();
}

namespace {
constexpr uint32_t kStarmiePayloadVersion = 1;
}  // namespace

Status StarmieSearch::SavePayload(BinaryWriter* w) const {
  if (lake_ == nullptr || index_ == nullptr) {
    return Status::Internal("BuildIndex not called");
  }
  w->Str(name());
  w->U32(kStarmiePayloadVersion);
  const std::vector<std::string>& names = lake_->table_names();
  const std::vector<TableId> ids = IndexedIdsByName(*lake_, indexed_);
  w->U64(ids.size());
  for (TableId t : ids) {
    w->Str(names[t]);
    w->U64(NumColumns(t));
    for (size_t g = row_begin_[t]; g < row_begin_[t + 1]; ++g) {
      w->Array<float>(std::span<const float>(Row(g), dim_));
    }
  }
  w->U64(columns_.size());
  for (const LakeColumn& ref : columns_) {
    w->Str(names[ref.table]);
    w->U64(ref.column);
  }
  return Status::OK();
}

Status StarmieSearch::LoadPayload(BinaryReader* r, const DataLake& lake) {
  std::string algo;
  DIALITE_RETURN_IF_ERROR(r->Str(&algo));
  uint32_t version = 0;
  DIALITE_RETURN_IF_ERROR(r->U32(&version));
  if (algo != name() || version != kStarmiePayloadVersion) {
    return Status::ParseError("not a starmie v1 index payload");
  }
  uint64_t num_tables = 0;
  DIALITE_RETURN_IF_ERROR(r->U64(&num_tables));
  if (num_tables > r->remaining()) {
    return Status::ParseError("starmie table count overruns the payload");
  }
  std::vector<std::vector<Embedding>> tables(lake.size());
  std::vector<uint8_t> indexed(lake.size(), 0);
  for (uint64_t n = 0; n < num_tables; ++n) {
    std::string table;
    DIALITE_RETURN_IF_ERROR(r->Str(&table));
    Result<TableId> t = ClaimPayloadTable(lake, table, name(), &indexed);
    if (!t.ok()) return t.status();
    uint64_t ncols = 0;
    DIALITE_RETURN_IF_ERROR(r->U64(&ncols));
    if (ncols > r->remaining()) {
      return Status::ParseError("starmie column count overruns the payload");
    }
    std::vector<Embedding>& vecs = tables[*t];
    vecs.resize(static_cast<size_t>(ncols));
    for (Embedding& vec : vecs) {
      std::span<const float> v;
      DIALITE_RETURN_IF_ERROR(r->Array(&v));
      if (v.size() != dim_) {
        return Status::ParseError("starmie embedding dimension mismatch");
      }
      vec.assign(v.begin(), v.end());
    }
  }
  uint64_t num_ids = 0;
  DIALITE_RETURN_IF_ERROR(r->U64(&num_ids));
  if (num_ids > r->remaining()) {
    return Status::ParseError("starmie column id count overruns the payload");
  }
  // Rebuild the SimHash band index by re-inserting vectors in id order —
  // identical ids and bucket contents to the build that produced the
  // payload.
  auto index = std::make_unique<SimHashIndex>(params_.simhash_bits, dim_,
                                              params_.band_bits, params_.seed);
  std::vector<LakeColumn> columns;
  columns.reserve(static_cast<size_t>(num_ids));
  for (uint64_t id = 0; id < num_ids; ++id) {
    std::string table;
    DIALITE_RETURN_IF_ERROR(r->Str(&table));
    uint64_t col = 0;
    DIALITE_RETURN_IF_ERROR(r->U64(&col));
    const TableId t = lake.IdOf(table);
    if (t == kNoTable || !indexed[t] || col >= tables[t].size()) {
      return Status::ParseError("starmie column id references unknown column");
    }
    DIALITE_RETURN_IF_ERROR(index->Insert(id, tables[t][col]));
    columns.push_back({t, static_cast<uint32_t>(col)});
  }
  index_ = std::move(index);
  columns_ = std::move(columns);
  InstallVectors(std::move(tables), std::move(indexed));
  lake_ = &lake;
  return Status::OK();
}

double StarmieSearch::MatchColumns(const std::vector<Embedding>& qvecs,
                                   size_t intent, TableId t,
                                   MatchScratch* scratch,
                                   uint64_t* exact_cosines) const {
  // Pairs in (q, c) order: std::sort breaks cosine ties by position, so
  // this order is part of the score.
  const size_t first = row_begin_[t];
  const size_t ncols = NumColumns(t);
  ColumnPair* pairs = scratch->pairs.data();
  size_t n = 0;
  for (size_t q = 0; q < qvecs.size(); ++q) {
    for (size_t c = 0; c < ncols; ++c) {
      // Query vectors and matrix rows are all dim_ floats, so this is
      // CosineSimilarity over the two Embeddings.
      double cos = CosineSimilarity(qvecs[q].data(), Row(first + c), dim_);
      if (cos >= params_.min_column_cosine) {
        pairs[n++] = {static_cast<uint32_t>(q), static_cast<uint32_t>(c), cos};
      }
    }
  }
  *exact_cosines += qvecs.size() * ncols;
  std::sort(pairs, pairs + n, [](const ColumnPair& a, const ColumnPair& b) {
    return a.score > b.score;
  });
  return GreedyMatchMean({pairs, n}, qvecs.size(), ncols, intent,
                         &scratch->used);
}

double StarmieSearch::CandidateUpperBound(const std::vector<Embedding>& qvecs,
                                          const std::vector<double>& qnorms,
                                          size_t intent, TableId t) const {
  const size_t nq = qvecs.size();
  const size_t first = row_begin_[t];
  const size_t nc = NumColumns(t);
  // Query column q's best pair bound at or above the gate.
  auto best_pair = [&](size_t q) {
    double best = kNoPair;
    for (size_t g = first; g < first + nc; ++g) {
      const double ub =
          CosineUpperBound(qvecs[q].data(), qnorms[q], Row(g), norms_[g], dim_);
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
  if (t >= indexed_.size() || !indexed_[t]) return 0.0;
  std::vector<Embedding> qvecs = ContextualizedColumns(TableTokens(*query.table));
  return CandidateUpperBound(qvecs, Norms(qvecs), query.query_column, t);
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
  std::vector<Embedding> qvecs = ContextualizedColumns(TableTokens(*query.table));

  // Candidate tables: every table owning a column that SimHash-collides
  // with any query column, deduplicated, in id order. Neither mode's
  // ranking depends on their order (RunBoundedTopK sorts by bound and
  // name, RankHits by score and name).
  std::vector<TableId> candidates;
  for (const Embedding& qv : qvecs) {
    for (uint64_t id : index_->Query(qv)) {
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
  scratch.pairs.resize(qvecs.size() * max_columns_);
  uint64_t exact_cosines = 0;
  CascadeStats stats;
  if (search_mode_ == SearchMode::kExhaustive) {
    std::vector<double> scores(candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (query.cancel != nullptr && query.cancel->Cancelled()) {
        return Status::DeadlineExceeded("starmie exhaustive scan cancelled");
      }
      scores[i] = MatchColumns(qvecs, query.query_column, candidates[i],
                               &scratch, &exact_cosines);
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
  std::vector<double> qnorms = Norms(qvecs);
  std::vector<BoundedCandidate> bounded;
  bounded.reserve(candidates.size());
  for (TableId t : candidates) {
    bounded.push_back(
        {names[t],
         CandidateUpperBound(qvecs, qnorms, query.query_column, t), t});
  }
  ExactScorer scorer = [&](const BoundedCandidate& cand) {
    return MatchColumns(qvecs, query.query_column, cand.table, &scratch,
                        &exact_cosines);
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
