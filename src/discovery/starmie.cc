#include "discovery/starmie.h"

#include <algorithm>
#include <functional>

#include "snapshot/bytes.h"

namespace dialite {

StarmieSearch::StarmieSearch(Params params, const KnowledgeBase* kb)
    : params_(params), embedder_(kb) {}

std::vector<Embedding> StarmieSearch::ContextualizedColumns(
    const Table& table, const ColumnTokenSets* token_sets) const {
  const size_t n = table.num_columns();
  std::vector<Embedding> own(n);
  for (size_t c = 0; c < n; ++c) {
    own[c] = embedder_.EmbedValueSet(token_sets != nullptr
                                         ? (*token_sets)[c]
                                         : ColumnTokens(table.column(c)));
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

void StarmieSearch::AddTable(std::string table,
                             std::vector<Embedding> vectors) {
  max_columns_ = std::max(max_columns_, vectors.size());
  std::vector<double> norms = Norms(vectors);
  table_vectors_.emplace(std::move(table),
                         TableVectors{std::move(vectors), std::move(norms)});
}

Status StarmieSearch::BuildIndex(const DataLake& lake) {
  lake_ = &lake;
  columns_.clear();
  table_vectors_.clear();
  max_columns_ = 0;
  index_ = std::make_unique<SimHashIndex>(params_.simhash_bits,
                                          embedder_.dim(), params_.band_bits,
                                          params_.seed);
  const std::vector<const Table*> tables = lake.tables();
  // Compute phase: contextualized column embeddings per table (token sets
  // from the shared sketch cache).
  std::vector<std::vector<Embedding>> all_vecs(tables.size());
  ForEachTableIndex(num_threads_, tables.size(), [&](size_t i) {
    std::shared_ptr<const ColumnTokenSets> tokens =
        lake.sketch_cache().TokenSets(*tables[i]);
    all_vecs[i] = ContextualizedColumns(*tables[i], tokens.get());
  }, obs_);
  // Merge phase: serial SimHash inserts in lake order keep ids and band
  // bucket order identical to a sequential build.
  for (size_t i = 0; i < tables.size(); ++i) {
    const Table* t = tables[i];
    std::vector<Embedding> vecs = std::move(all_vecs[i]);
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
      columns_.emplace_back(t->name(), c);
      DIALITE_RETURN_IF_ERROR(index_->Insert(id, vecs[c]));
    }
    AddTable(t->name(), std::move(vecs));
  }
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
  std::vector<const std::string*> names;
  names.reserve(table_vectors_.size());
  for (const auto& [table, vecs] : table_vectors_) names.push_back(&table);
  std::sort(names.begin(), names.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  w->U64(names.size());
  for (const std::string* table : names) {
    const std::vector<Embedding>& vecs = table_vectors_.at(*table).vectors;
    w->Str(*table);
    w->U64(vecs.size());
    for (const Embedding& v : vecs) w->Array<float>(v);
  }
  w->U64(columns_.size());
  for (const auto& [table, col] : columns_) {
    w->Str(table);
    w->U64(col);
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
  table_vectors_.clear();
  columns_.clear();
  max_columns_ = 0;
  for (uint64_t t = 0; t < num_tables; ++t) {
    std::string table;
    DIALITE_RETURN_IF_ERROR(r->Str(&table));
    if (!lake.Contains(table)) {
      return Status::NotFound("indexed table '" + table +
                              "' missing from lake");
    }
    uint64_t ncols = 0;
    DIALITE_RETURN_IF_ERROR(r->U64(&ncols));
    if (ncols > r->remaining()) {
      return Status::ParseError("starmie column count overruns the payload");
    }
    std::vector<Embedding> vecs(static_cast<size_t>(ncols));
    for (uint64_t c = 0; c < ncols; ++c) {
      std::span<const float> v;
      DIALITE_RETURN_IF_ERROR(r->Array(&v));
      if (v.size() != embedder_.dim()) {
        return Status::ParseError("starmie embedding dimension mismatch");
      }
      vecs[c].assign(v.begin(), v.end());
    }
    AddTable(std::move(table), std::move(vecs));
  }
  uint64_t num_ids = 0;
  DIALITE_RETURN_IF_ERROR(r->U64(&num_ids));
  if (num_ids > r->remaining()) {
    return Status::ParseError("starmie column id count overruns the payload");
  }
  columns_.reserve(static_cast<size_t>(num_ids));
  // Rebuild the SimHash band index by re-inserting vectors in id order —
  // identical ids and bucket contents to the build that produced the
  // payload.
  index_ = std::make_unique<SimHashIndex>(params_.simhash_bits,
                                          embedder_.dim(), params_.band_bits,
                                          params_.seed);
  for (uint64_t id = 0; id < num_ids; ++id) {
    std::string table;
    DIALITE_RETURN_IF_ERROR(r->Str(&table));
    uint64_t col = 0;
    DIALITE_RETURN_IF_ERROR(r->U64(&col));
    auto it = table_vectors_.find(table);
    if (it == table_vectors_.end() || col >= it->second.vectors.size()) {
      return Status::ParseError("starmie column id references unknown column");
    }
    DIALITE_RETURN_IF_ERROR(index_->Insert(id, it->second.vectors[col]));
    columns_.emplace_back(std::move(table), static_cast<size_t>(col));
  }
  lake_ = &lake;
  return Status::OK();
}

double StarmieSearch::MatchColumns(const std::vector<Embedding>& qvecs,
                                   size_t intent,
                                   const std::vector<Embedding>& cvecs,
                                   MatchScratch* scratch,
                                   uint64_t* exact_cosines) const {
  // Pairs in (q, c) order: std::sort breaks cosine ties by position, so
  // this order is part of the score.
  ColumnPair* pairs = scratch->pairs.data();
  size_t n = 0;
  for (size_t q = 0; q < qvecs.size(); ++q) {
    for (size_t c = 0; c < cvecs.size(); ++c) {
      double cos = CosineSimilarity(qvecs[q], cvecs[c]);
      if (cos >= params_.min_column_cosine) {
        pairs[n++] = {static_cast<uint32_t>(q), static_cast<uint32_t>(c), cos};
      }
    }
  }
  *exact_cosines += qvecs.size() * cvecs.size();
  std::sort(pairs, pairs + n, [](const ColumnPair& a, const ColumnPair& b) {
    return a.score > b.score;
  });
  return GreedyMatchMean({pairs, n}, qvecs.size(), cvecs.size(), intent,
                         &scratch->used);
}

double StarmieSearch::CandidateUpperBound(const std::vector<Embedding>& qvecs,
                                          const std::vector<double>& qnorms,
                                          size_t intent,
                                          const TableVectors& table) const {
  const size_t nq = qvecs.size();
  const size_t nc = table.vectors.size();
  // Query column q's best pair bound at or above the gate.
  auto best_pair = [&](size_t q) {
    double best = kNoPair;
    for (size_t c = 0; c < nc; ++c) {
      const double ub =
          CosineUpperBound(qvecs[q].data(), qnorms[q], table.vectors[c].data(),
                           table.norms[c], embedder_.dim());
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
  auto it = table_vectors_.find(table_name);
  if (it == table_vectors_.end()) return 0.0;  // not indexed: cannot score
  std::vector<Embedding> qvecs = ContextualizedColumns(*query.table);
  return CandidateUpperBound(qvecs, Norms(qvecs), query.query_column,
                             it->second);
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
  std::vector<Embedding> qvecs = ContextualizedColumns(*query.table);

  // Candidate tables: every table owning a column that SimHash-collides
  // with any query column, deduplicated by index entry. Neither mode's
  // ranking depends on their order (RunBoundedTopK sorts by bound and
  // name, RankHits by score and name).
  using TableEntry = std::pair<const std::string, TableVectors>;
  std::vector<const TableEntry*> entries;
  for (const Embedding& qv : qvecs) {
    for (uint64_t id : index_->Query(qv)) {
      auto it = table_vectors_.find(columns_[id].first);
      if (it == table_vectors_.end()) {
        return Status::Internal("starmie index missing vectors for '" +
                                columns_[id].first + "'");
      }
      entries.push_back(&*it);
    }
  }
  std::sort(entries.begin(), entries.end(), std::less<const TableEntry*>());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  std::vector<std::pair<const std::string*, const TableVectors*>> candidates;
  candidates.reserve(entries.size());
  for (const TableEntry* entry : entries) {
    if (entry->first == query.table->name()) continue;
    candidates.emplace_back(&entry->first, &entry->second);
  }

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
      scores[i] = MatchColumns(qvecs, query.query_column,
                               candidates[i].second->vectors, &scratch,
                               &exact_cosines);
    }
    std::vector<DiscoveryHit> hits;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (scores[i] > 0.0) hits.push_back({*candidates[i].first, scores[i]});
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
  for (const auto& [cand_name, table] : candidates) {
    bounded.push_back(
        {*cand_name,
         CandidateUpperBound(qvecs, qnorms, query.query_column, *table)});
  }
  ExactScorer scorer = [&](const BoundedCandidate& cand) {
    return MatchColumns(qvecs, query.query_column,
                        table_vectors_.at(cand.table_name).vectors, &scratch,
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
