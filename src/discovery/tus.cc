#include "discovery/tus.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "discovery/cascade.h"
#include "snapshot/bytes.h"

namespace dialite {

TusSearch::TusSearch(Params params)
    : params_(params), annotator_(&KnowledgeBase::BuiltIn()) {}

TusSearch::LabeledTypes TusSearch::ColumnTypes(
    const std::vector<std::string>& distinct_values) const {
  LabeledTypes types;
  for (const Annotation& a : annotator_.AnnotateValues(
           distinct_values, params_.max_types_per_column)) {
    types.emplace_back(a.label, a.score);
  }
  std::sort(types.begin(), types.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return types;
}

namespace {

/// "No evidence slot yet" in Search's per-table slot array.
constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

/// Σ w² over `types` in order: the squared norm TypeCosine divides by.
template <typename Key>
double SquaredNorm(std::span<const std::pair<Key, double>> types) {
  double n = 0.0;
  for (const auto& [type, w] : types) n += w * w;
  return n;
}

/// Semantic unionability before clamping: the cosine of two KB
/// type-confidence vectors, each given as (type id, confidence) entries in
/// ascending id order plus its SquaredNorm; 0 when either norm is 0 (an
/// empty vector included). It adds the same products in the same order as
/// a walk over `a` that probes `b` by type, and ids number types in label
/// order, so it gives the bits the same walk over labels gives.
double TypeCosine(std::span<const std::pair<uint32_t, double>> a,
                  double a_sqnorm,
                  std::span<const std::pair<uint32_t, double>> b,
                  double b_sqnorm) {
  if (!(a_sqnorm > 0 && b_sqnorm > 0)) return 0.0;
  double dot = 0.0;
  size_t j = 0;
  for (const auto& [type, w] : a) {
    while (j < b.size() && b[j].first < type) ++j;
    if (j == b.size()) break;
    if (b[j].first == type) dot += w * b[j].second;
  }
  return dot / std::sqrt(a_sqnorm * b_sqnorm);
}

/// The matching's priority order: descending unionability, ties broken by
/// (query column, candidate column), so the alignment — and with it the
/// score — is deterministic across platforms.
void SortByUnionability(std::vector<ColumnPair>* pairs) {
  std::sort(pairs->begin(), pairs->end(),
            [](const ColumnPair& a, const ColumnPair& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.q != b.q) return a.q < b.q;
              return a.c < b.c;
            });
}

}  // namespace

std::vector<TusSearch::QueryColumn> TusSearch::ProfileQuery(
    const Table& query, uint64_t* embedded) const {
  std::vector<QueryColumn> out(query.num_columns());
  for (size_t c = 0; c < out.size(); ++c) {
    QueryColumn& q = out[c];
    const ColumnView col = query.column(c);
    const std::vector<std::string> tokens = ColumnTokens(col);
    q.embedding = tokens_->EmbedColumn(tokens, &q.ids, embedded);
    q.norm = EmbeddingNorm(q.embedding.data(), q.embedding.size());
    q.num_tokens = tokens.size();
    // The found ids, ascending: what SortedIds gives.
    q.ids.erase(std::remove(q.ids.begin(), q.ids.end(), kNoToken),
                q.ids.end());
    std::sort(q.ids.begin(), q.ids.end());
    const LabeledTypes types = ColumnTypes(ColumnDistinctCsv(col));
    q.type_sqnorm = SquaredNorm<std::string>(types);
    for (const auto& [label, conf] : types) {
      auto it = std::lower_bound(type_labels_.begin(), type_labels_.end(),
                                 label);
      if (it == type_labels_.end() || *it != label) continue;
      q.types.emplace_back(static_cast<uint32_t>(it - type_labels_.begin()),
                           conf);
    }
  }
  return out;
}

double TusSearch::TypeCosineTo(const QueryColumn& q, size_t g) const {
  return TypeCosine(
      q.types, q.type_sqnorm,
      std::span<const TypeWeight>(type_weights_.data() + type_begin_[g],
                                  type_begin_[g + 1] - type_begin_[g]),
      type_sqnorm_[g]);
}

double TusSearch::NlCosineTo(const QueryColumn& q, size_t g) const {
  // Both are ColumnEmbedder vectors of tokens_->dim() floats.
  return CosineSimilarity(q.embedding.data(), tokens_->ColumnEmbedding(g),
                          tokens_->dim());
}

TusSearch::PairBound TusSearch::BoundPair(const QueryColumn& q, size_t g,
                                          uint32_t inter) const {
  PairBound out;
  // u_set, as ScoreCandidate computes it: column tokens are distinct, so
  // the hit count IS |A ∩ B|.
  out.exact = static_cast<double>(inter) /
              static_cast<double>(
                  std::min(q.num_tokens, tokens_->ColumnSize(g)));
  // Once a measure reaches 1 the others cannot raise the maximum.
  if (out.exact < 1.0) {
    out.exact = std::max(out.exact, std::min(TypeCosineTo(q, g), 1.0));
  }
  if (out.exact < 1.0) {
    out.nl_bound = std::min(
        CosineUpperBound(q.embedding.data(), q.norm,
                         tokens_->ColumnEmbedding(g), tokens_->ColumnNorm(g),
                         tokens_->dim()),
        1.0);
  }
  return out;
}

void TusSearch::Install(const DataLake& lake,
                        std::shared_ptr<const LakeTokens> tokens,
                        std::vector<std::vector<LabeledTypes>> tables,
                        std::vector<uint8_t> indexed) {
  // Type ids: every label a lake column carries, numbered in label order.
  type_labels_.clear();
  for (const std::vector<LabeledTypes>& cols : tables) {
    for (const LabeledTypes& types : cols) {
      for (const auto& [label, conf] : types) type_labels_.push_back(label);
    }
  }
  std::sort(type_labels_.begin(), type_labels_.end());
  type_labels_.erase(std::unique(type_labels_.begin(), type_labels_.end()),
                     type_labels_.end());

  tokens_ = std::move(tokens);
  indexed_ = std::move(indexed);
  const size_t total = tokens_->num_columns();
  type_begin_.assign(1, 0);
  type_begin_.reserve(total + 1);
  type_weights_.clear();
  type_sqnorm_.clear();
  type_sqnorm_.reserve(total);
  type_tables_.assign(type_labels_.size(), {});
  // The last table each type was posted for: one posting per table.
  std::vector<TableId> posted(type_labels_.size(), kNoTable);
  size_t g = 0;
  for (TableId t = 0; t < tables.size(); ++t) {
    // A table the index does not cover has no types.
    for (size_t c = 0; c < NumColumns(t); ++c, ++g) {
      if (c < tables[t].size()) {
        for (const auto& [label, conf] : tables[t][c]) {
          const uint32_t id = static_cast<uint32_t>(
              std::lower_bound(type_labels_.begin(), type_labels_.end(),
                               label) -
              type_labels_.begin());
          type_weights_.emplace_back(id, conf);
          if (posted[id] != t) {
            posted[id] = t;
            type_tables_[id].push_back(t);
          }
        }
      }
      type_begin_.push_back(type_weights_.size());
      type_sqnorm_.push_back(SquaredNorm<uint32_t>(std::span<const TypeWeight>(
          type_weights_.data() + type_begin_[g],
          type_begin_[g + 1] - type_begin_[g])));
    }
  }
  lake_ = &lake;
}

Status TusSearch::BuildIndex(const DataLake& lake) {
  const std::vector<const Table*> tables = lake.tables();
  std::shared_ptr<const LakeTokens> tokens = lake.tokens(num_threads_);
  // Compute phase: per-table column KB types over the distinct values
  // across the worker pool (the embeddings are the lake's).
  std::vector<std::vector<LabeledTypes>> all_cols(tables.size());
  ForEachTableIndex(num_threads_, tables.size(), [&](size_t i) {
    std::vector<LabeledTypes>& cols = all_cols[i];
    cols.reserve(tables[i]->num_columns());
    for (size_t c = 0; c < tables[i]->num_columns(); ++c) {
      cols.push_back(ColumnTypes(ColumnDistinctCsv(tables[i]->column(c))));
    }
  }, obs_);
  // Merge phase: serial, in lake order.
  Install(lake, tokens, std::move(all_cols),
          std::vector<uint8_t>(tables.size(), 1));
  ObsAdd(obs_, "discover.tus.build.tables", tables.size());
  ObsSet(obs_, "discover.tus.index.tokens", tokens_->num_tokens());
  return Status::OK();
}

namespace {
constexpr uint32_t kTusPayloadVersion = 3;
}  // namespace

Status TusSearch::SavePayload(BinaryWriter* w) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  w->Str(name());
  w->U32(kTusPayloadVersion);
  // Tables in sorted name order, so save -> load -> save is byte-identical.
  const std::vector<TableId> ids = IndexedIdsByName(*lake_, indexed_);
  w->U64(ids.size());
  for (TableId t : ids) {
    w->Str(lake_->table_names()[t]);
    w->U64(NumColumns(t));
    for (size_t g = FirstColumn(t); g < FirstColumn(t) + NumColumns(t); ++g) {
      w->U64(type_begin_[g + 1] - type_begin_[g]);
      for (size_t i = type_begin_[g]; i < type_begin_[g + 1]; ++i) {
        w->Str(type_labels_[type_weights_[i].first]);
        w->F64(type_weights_[i].second);
      }
    }
  }
  return Status::OK();
}

Status TusSearch::LoadPayload(BinaryReader* r, const DataLake& lake) {
  std::string algo;
  DIALITE_RETURN_IF_ERROR(r->Str(&algo));
  uint32_t version = 0;
  DIALITE_RETURN_IF_ERROR(r->U32(&version));
  if (algo != name() || version != kTusPayloadVersion) {
    return Status::ParseError("not a tus v3 index payload");
  }
  uint64_t num_tables = 0;
  DIALITE_RETURN_IF_ERROR(r->U64(&num_tables));
  if (num_tables > r->remaining()) {
    return Status::ParseError("tus table count overruns the payload");
  }
  std::vector<std::vector<LabeledTypes>> tables(lake.size());
  std::vector<uint8_t> indexed(lake.size(), 0);
  for (uint64_t n = 0; n < num_tables; ++n) {
    std::string table;
    DIALITE_RETURN_IF_ERROR(r->Str(&table));
    Result<TableId> t = ClaimPayloadTable(lake, table, name(), &indexed);
    if (!t.ok()) return t.status();
    uint64_t ncols = 0;
    DIALITE_RETURN_IF_ERROR(r->U64(&ncols));
    // Column c of the table is lake column c: its token set is the lake's.
    if (ncols != lake.table(*t).num_columns()) {
      return Status::ParseError(
          "tus payload lists " + std::to_string(ncols) +
          " columns for table '" + table + "'; the lake has " +
          std::to_string(lake.table(*t).num_columns()));
    }
    std::vector<LabeledTypes>& cols = tables[*t];
    cols.resize(static_cast<size_t>(ncols));
    for (LabeledTypes& types : cols) {
      uint64_t ntypes = 0;
      DIALITE_RETURN_IF_ERROR(r->U64(&ntypes));
      if (ntypes > r->remaining()) {
        return Status::ParseError("tus type count overruns the payload");
      }
      types.resize(static_cast<size_t>(ntypes));
      for (size_t i = 0; i < types.size(); ++i) {
        DIALITE_RETURN_IF_ERROR(r->Str(&types[i].first));
        DIALITE_RETURN_IF_ERROR(r->F64(&types[i].second));
        if (i > 0 && !(types[i - 1].first < types[i].first)) {
          return Status::ParseError("tus column types out of label order");
        }
      }
    }
  }
  // The same derivation BuildIndex's merge phase runs, in lake order.
  Install(lake, lake.tokens(num_threads_), std::move(tables),
          std::move(indexed));
  return Status::OK();
}

double TusSearch::ScoreCandidate(const std::vector<QueryColumn>& qcols,
                                 size_t query_column, TableId t) const {
  const size_t first = FirstColumn(t);
  const size_t ncols = NumColumns(t);
  std::vector<ColumnPair> pairs;
  for (size_t q = 0; q < qcols.size(); ++q) {
    const QueryColumn& qc = qcols[q];
    for (size_t c = 0; c < ncols; ++c) {
      const size_t g = first + c;
      // Unionability: the strongest of the three measures; 0 for a column
      // without tokens. Both cosines are clamped to 1: rounding can push
      // dot/(|a||b|) an ulp past 1, and the cascade's stage-0 bounds
      // (capped at 1 per pair) rely on unionability never exceeding it.
      double u = 0.0;
      const size_t g_tokens = tokens_->ColumnSize(g);
      if (qc.num_tokens > 0 && g_tokens > 0) {
        // u_set = |A ∩ B| / min(|A|, |B|), the overlap coefficient.
        const double u_set =
            static_cast<double>(tokens_->Overlap(g, qc.ids)) /
            static_cast<double>(std::min(qc.num_tokens, g_tokens));
        const double u_sem = std::min(TypeCosineTo(qc, g), 1.0);
        const double u_nl = std::min(NlCosineTo(qc, g), 1.0);
        u = std::max({u_set, u_sem, u_nl});
      }
      if (u >= params_.min_column_unionability) {
        pairs.push_back(
            {static_cast<uint32_t>(q), static_cast<uint32_t>(c), u});
      }
    }
  }
  SortByUnionability(&pairs);
  std::vector<uint8_t> used;
  return GreedyMatchMean(pairs, qcols.size(), ncols, query_column, &used);
}

double TusSearch::ScoreWithEvidence(const std::vector<QueryColumn>& qcols,
                                    size_t query_column, const Evidence& ev,
                                    TableId t, MatchScratch* scratch,
                                    uint64_t* exact_cosines) const {
  const double min_u = params_.min_column_unionability;
  const size_t first = FirstColumn(t);
  std::vector<ColumnPair>& pairs = scratch->pairs;
  pairs.clear();
  for (size_t q = 0; q < qcols.size(); ++q) {
    for (size_t c = 0; c < ev.ncols; ++c) {
      const size_t g = first + c;
      double u = 0.0;  // Unionability of a column without tokens
      if (qcols[q].num_tokens > 0 && tokens_->ColumnSize(g) > 0) {
        const PairBound b = BoundPair(qcols[q], g, ev.hits[q * ev.ncols + c]);
        u = b.exact;
        // u_nl <= nl_bound: it can change the pair's unionability, or its
        // place in the matching, only where the bound beats u and clears
        // the threshold.
        if (b.nl_bound > u && b.nl_bound >= min_u) {
          ++*exact_cosines;
          u = std::max(u, std::min(NlCosineTo(qcols[q], g), 1.0));
        }
      }
      if (u >= min_u) {
        pairs.push_back(
            {static_cast<uint32_t>(q), static_cast<uint32_t>(c), u});
      }
    }
  }
  SortByUnionability(&pairs);
  return GreedyMatchMean(pairs, qcols.size(), ev.ncols, query_column,
                         &scratch->used);
}

double TusSearch::CandidateUpperBound(const std::vector<QueryColumn>& qcols,
                                      size_t query_column, const Evidence& ev,
                                      TableId t) const {
  const size_t nq = qcols.size();
  const size_t first = FirstColumn(t);
  size_t tokenized_cols = 0;
  for (size_t c = 0; c < ev.ncols; ++c) {
    if (tokens_->ColumnSize(first + c) > 0) ++tokenized_cols;
  }
  // No tokenized candidate column — nothing can pair at all.
  if (tokenized_cols == 0) return 0.0;
  // Query column q's best pair bound among pairs that clear the threshold;
  // pairs below it never enter the greedy alignment.
  auto best_pair = [&](size_t q) {
    double ub = kNoPair;
    if (qcols[q].num_tokens == 0) return ub;
    for (size_t c = 0; c < ev.ncols; ++c) {
      const size_t g = first + c;
      if (tokens_->ColumnSize(g) == 0) continue;
      const PairBound b = BoundPair(qcols[q], g, ev.hits[q * ev.ncols + c]);
      const double pair = std::max(b.exact, b.nl_bound);
      if (pair >= params_.min_column_unionability) ub = std::max(ub, pair);
    }
    return ub;
  };
  // The greedy matching pairs at most min(|Q|, tokenized |T|) columns.
  return RelaxedMatchBound(nq, query_column, std::min(nq, tokenized_cols),
                           best_pair);
}

Result<double> TusSearch::ScoreUpperBound(const DiscoveryQuery& query,
                                          const std::string& table_name) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  if (query.table == nullptr) {
    return Status::InvalidArgument("query table is null");
  }
  if (query.query_column >= query.table->num_columns()) {
    return Status::OutOfRange("query column out of range");
  }
  const TableId t = lake_->IdOf(table_name);
  // Not indexed (kNoTable included): cannot score.
  if (t >= indexed_.size() || !indexed_[t]) return 0.0;
  const std::vector<QueryColumn> qcols = ProfileQuery(*query.table, nullptr);
  // Exact per-pair intersection counts: what Search()'s walk of the
  // lake's postings accumulates.
  const size_t ncols = NumColumns(t);
  std::vector<uint32_t> hits(qcols.size() * ncols, 0);
  for (size_t c = 0; c < ncols; ++c) {
    for (size_t q = 0; q < qcols.size(); ++q) {
      hits[q * ncols + c] = static_cast<uint32_t>(
          tokens_->Overlap(FirstColumn(t) + c, qcols[q].ids));
    }
  }
  return CandidateUpperBound(qcols, query.query_column,
                             Evidence{hits.data(), ncols}, t);
}

Result<std::vector<DiscoveryHit>> TusSearch::Search(
    const DiscoveryQuery& query) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  if (query.table == nullptr) {
    return Status::InvalidArgument("query table is null");
  }
  if (query.query_column >= query.table->num_columns()) {
    return Status::OutOfRange("query column out of range");
  }
  uint64_t embedded = 0;
  const std::vector<QueryColumn> qcols = ProfileQuery(*query.table, &embedded);
  ObsAdd(obs_, "discover.tus.work.embedded_values", embedded);
  const size_t nq = qcols.size();

  // Candidate generation: tables sharing a token or a KB type with any
  // query column. The walk over the lake's token postings accumulates the
  // exact per-pair intersection counts |A_q ∩ B_c| as a side effect — the
  // cascade's stage-0 evidence comes for free from this pass (column token
  // sets are distinct, so each (query token, pair) counts once).
  // Evidence lives in one flat array: table t's counts start at
  // ev_begin[slot[t]], and `touched` lists the tables in slot order.
  std::vector<uint32_t> slot(indexed_.size(), kNoSlot);
  std::vector<TableId> touched;
  std::vector<size_t> ev_begin;
  std::vector<uint32_t> hits;
  auto evidence_begin = [&](TableId t) {
    if (slot[t] == kNoSlot) {
      slot[t] = static_cast<uint32_t>(touched.size());
      touched.push_back(t);
      ev_begin.push_back(hits.size());
      hits.resize(hits.size() + nq * NumColumns(t), 0);
    }
    return ev_begin[slot[t]];
  };
  const LakeTokens& tokens = *tokens_;
  for (size_t q = 0; q < nq; ++q) {
    for (uint32_t id : qcols[q].ids) {
      const uint32_t* cols = tokens.Postings(id);
      for (size_t i = 0; i < tokens.PostingCount(id); ++i) {
        const TableId t = tokens.TableOf(cols[i]);
        if (!indexed_[t]) continue;
        const size_t at = evidence_begin(t);
        ++hits[at + q * NumColumns(t) + (cols[i] - FirstColumn(t))];
      }
    }
    for (const TypeWeight& type : qcols[q].types) {
      for (TableId t : type_tables_[type.first]) evidence_begin(t);
    }
  }
  // Stage 0 walks the candidates' rows of the lake's embeddings in id order.
  std::sort(touched.begin(), touched.end());
  const TableId self = lake_->IdOf(query.table->name());
  const std::vector<std::string>& names = lake_->table_names();
  auto evidence = [&](TableId t) {
    return Evidence{hits.data() + ev_begin[slot[t]], NumColumns(t)};
  };

  if (search_mode_ == SearchMode::kExhaustive) {
    std::vector<DiscoveryHit> out;
    CascadeStats stats;
    for (TableId t : touched) {
      if (query.cancel != nullptr && query.cancel->Cancelled()) {
        return Status::DeadlineExceeded("tus exhaustive scan cancelled");
      }
      if (t == self) continue;
      ++stats.candidates_total;
      ++stats.scored_exact;
      double score = ScoreCandidate(qcols, query.query_column, t);
      if (score > 0.0) out.push_back({names[t], score});
    }
    PublishCascadeStats(obs_, name(), stats);
    return RankHits(std::move(out), query.k);
  }

  // Cascade: stage-0 index-accelerated bounds from the per-pair hit
  // counts, then bounded top-k over the exact greedy-alignment scorer.
  std::vector<BoundedCandidate> bounded;
  bounded.reserve(touched.size());
  for (TableId t : touched) {
    if (t == self) continue;
    bounded.push_back(
        {names[t],
         CandidateUpperBound(qcols, query.query_column, evidence(t), t), t});
  }
  MatchScratch scratch;
  uint64_t exact_cosines = 0;
  ExactScorer scorer = [&](const BoundedCandidate& cand) {
    return ScoreWithEvidence(qcols, query.query_column,
                             evidence(cand.table), cand.table, &scratch,
                             &exact_cosines);
  };
  CascadeStats stats;
  std::vector<DiscoveryHit> top =
      RunBoundedTopK(std::move(bounded), query.k, scorer, &stats, query.cancel);
  PublishCascadeStats(obs_, name(), stats);
  ObsAdd(obs_, "discover.tus.work.exact_cosines", exact_cosines);
  if (stats.cancelled) {
    return Status::DeadlineExceeded("tus search cancelled mid-cascade");
  }
  return top;
}

}  // namespace dialite
