#include "discovery/tus.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string_view>
#include <unordered_set>

#include "discovery/cascade.h"
#include "snapshot/bytes.h"
#include "text/similarity.h"

namespace dialite {

TusSearch::TusSearch(Params params, const KnowledgeBase* kb)
    : params_(params), kb_(kb), annotator_(kb), embedder_(kb) {}

TusSearch::ColumnProfile TusSearch::ProfileFromSets(
    const std::vector<std::string>& tokens,
    const std::vector<std::string>& distinct_values) const {
  ColumnProfile p;
  p.tokens = tokens;
  for (const Annotation& a : annotator_.AnnotateValues(
           distinct_values, params_.max_types_per_column)) {
    p.types[a.label] = a.score;
  }
  p.embedding = embedder_.EmbedValueSet(p.tokens);
  p.norm = EmbeddingNorm(p.embedding.data(), p.embedding.size());
  return p;
}

TusSearch::ColumnProfile TusSearch::ProfileColumn(const Table& table,
                                                  size_t column) const {
  const ColumnView col = table.column(column);
  return ProfileFromSets(ColumnTokens(col), ColumnDistinctCsv(col));
}

namespace {

/// Semantic unionability before clamping: the cosine of two KB
/// type-confidence vectors, 0 when either is empty or has zero norm.
double TypeCosine(const std::map<std::string, double>& a,
                  const std::map<std::string, double>& b) {
  if (a.empty() || b.empty()) return 0.0;
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (const auto& [t, w] : a) {
    na += w * w;
    auto it = b.find(t);
    if (it != b.end()) dot += w * it->second;
  }
  for (const auto& [t, w] : b) nb += w * w;
  if (na > 0 && nb > 0) return dot / std::sqrt(na * nb);
  return 0.0;
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

double TusSearch::Unionability(const ColumnProfile& a,
                               const ColumnProfile& b) const {
  if (a.tokens.empty() || b.tokens.empty()) return 0.0;
  // Set unionability.
  double u_set = OverlapCoefficient(a.tokens, b.tokens);
  // Semantic and natural-language unionability. Both cosines are clamped
  // to 1: rounding can push dot/(|a||b|) an ulp past 1, and the cascade's
  // stage-0 bounds (capped at 1 per pair) rely on unionability never
  // exceeding it.
  double u_sem = std::min(TypeCosine(a.types, b.types), 1.0);
  double u_nl = std::min(CosineSimilarity(a.embedding, b.embedding), 1.0);
  return std::max({u_set, u_sem, u_nl});
}

TusSearch::PairBound TusSearch::BoundPair(const ColumnProfile& a,
                                          const ColumnProfile& b,
                                          uint32_t inter) const {
  PairBound out;
  // u_set with OverlapCoefficient's arithmetic: column tokens are
  // distinct, so the hit count IS |A ∩ B|.
  out.exact = static_cast<double>(inter) /
              static_cast<double>(std::min(a.tokens.size(), b.tokens.size()));
  // Once a measure reaches 1 the others cannot raise the maximum.
  if (out.exact < 1.0) {
    out.exact =
        std::max(out.exact, std::min(TypeCosine(a.types, b.types), 1.0));
  }
  // CosineSimilarity is 0 for mismatched or empty embeddings.
  if (out.exact < 1.0 && a.embedding.size() == b.embedding.size() &&
      !a.embedding.empty()) {
    out.nl_bound = std::min(
        CosineUpperBound(a.embedding.data(), a.norm, b.embedding.data(),
                         b.norm, a.embedding.size()),
        1.0);
  }
  return out;
}

Status TusSearch::BuildIndex(const DataLake& lake) {
  lake_ = &lake;
  profiles_.clear();
  token_index_.clear();
  type_index_.clear();
  const std::vector<const Table*> tables = lake.tables();
  // Compute phase: per-table column profiles (tokens, KB types, embedding)
  // across the worker pool, fed from the shared sketch cache.
  std::vector<std::vector<ColumnProfile>> all_cols(tables.size());
  ForEachTableIndex(num_threads_, tables.size(), [&](size_t i) {
    TableSketchCache& cache = lake.sketch_cache();
    std::shared_ptr<const ColumnTokenSets> tokens =
        cache.TokenSets(*tables[i]);
    std::shared_ptr<const ColumnDistinctValues> distinct =
        cache.DistinctValues(*tables[i]);
    std::vector<ColumnProfile>& cols = all_cols[i];
    cols.reserve(tables[i]->num_columns());
    for (size_t c = 0; c < tables[i]->num_columns(); ++c) {
      cols.push_back(ProfileFromSets((*tokens)[c], (*distinct)[c]));
    }
  }, obs_);
  // Merge phase: serial, in lake order — inverted index posting order
  // matches a sequential build exactly.
  for (size_t i = 0; i < tables.size(); ++i) {
    const Table* t = tables[i];
    std::unordered_set<std::string> types_seen;
    for (size_t c = 0; c < all_cols[i].size(); ++c) {
      ColumnProfile& p = all_cols[i][c];
      // Column tokens are distinct, so each (token, table, column) posting
      // appears exactly once — stage-0 hit counts are exact intersections.
      for (const std::string& tok : p.tokens) {
        token_index_[tok].emplace_back(t->name(), static_cast<uint32_t>(c));
      }
      for (const auto& [type, conf] : p.types) {
        if (types_seen.insert(type).second) {
          type_index_[type].push_back(t->name());
        }
      }
    }
    profiles_.emplace(t->name(), std::move(all_cols[i]));
  }
  ObsAdd(obs_, "discover.tus.build.tables", tables.size());
  ObsSet(obs_, "discover.tus.index.tokens", token_index_.size());
  return Status::OK();
}

namespace {
constexpr uint32_t kTusPayloadVersion = 1;
}  // namespace

Status TusSearch::SavePayload(BinaryWriter* w) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  w->Str(name());
  w->U32(kTusPayloadVersion);
  std::vector<const std::string*> names;
  names.reserve(profiles_.size());
  for (const auto& [table, cols] : profiles_) names.push_back(&table);
  std::sort(names.begin(), names.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  w->U64(names.size());
  for (const std::string* table : names) {
    const std::vector<ColumnProfile>& cols = profiles_.at(*table);
    w->Str(*table);
    w->U64(cols.size());
    for (const ColumnProfile& p : cols) {
      w->U64(p.tokens.size());
      for (const std::string& tok : p.tokens) w->Str(tok);
      w->U64(p.types.size());
      for (const auto& [type, conf] : p.types) {
        w->Str(type);
        w->F64(conf);
      }
      w->Array<float>(p.embedding);
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
    return Status::ParseError("not a tus v1 index payload");
  }
  uint64_t num_tables = 0;
  DIALITE_RETURN_IF_ERROR(r->U64(&num_tables));
  if (num_tables > r->remaining()) {
    return Status::ParseError("tus table count overruns the payload");
  }
  profiles_.clear();
  token_index_.clear();
  type_index_.clear();
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
      return Status::ParseError("tus column count overruns the payload");
    }
    std::vector<ColumnProfile> cols(static_cast<size_t>(ncols));
    for (uint64_t c = 0; c < ncols; ++c) {
      ColumnProfile& p = cols[c];
      uint64_t ntokens = 0;
      DIALITE_RETURN_IF_ERROR(r->U64(&ntokens));
      if (ntokens > r->remaining()) {
        return Status::ParseError("tus token count overruns the payload");
      }
      p.tokens.resize(static_cast<size_t>(ntokens));
      for (uint64_t i = 0; i < ntokens; ++i) {
        DIALITE_RETURN_IF_ERROR(r->Str(&p.tokens[i]));
      }
      uint64_t ntypes = 0;
      DIALITE_RETURN_IF_ERROR(r->U64(&ntypes));
      if (ntypes > r->remaining()) {
        return Status::ParseError("tus type count overruns the payload");
      }
      for (uint64_t i = 0; i < ntypes; ++i) {
        std::string type;
        DIALITE_RETURN_IF_ERROR(r->Str(&type));
        double conf = 0.0;
        DIALITE_RETURN_IF_ERROR(r->F64(&conf));
        p.types[std::move(type)] = conf;
      }
      std::span<const float> emb;
      DIALITE_RETURN_IF_ERROR(r->Array(&emb));
      p.embedding.assign(emb.begin(), emb.end());
      p.norm = EmbeddingNorm(p.embedding.data(), p.embedding.size());
    }
    // Rebuild the inverted indexes the same way BuildIndex's merge phase
    // does (hit counts and candidate sets are order-independent, so the
    // sorted table order here is equivalent to lake order).
    std::unordered_set<std::string> types_seen;
    for (size_t c = 0; c < cols.size(); ++c) {
      for (const std::string& tok : cols[c].tokens) {
        token_index_[tok].emplace_back(table, static_cast<uint32_t>(c));
      }
      for (const auto& [type, conf] : cols[c].types) {
        if (types_seen.insert(type).second) type_index_[type].push_back(table);
      }
    }
    profiles_.emplace(std::move(table), std::move(cols));
  }
  lake_ = &lake;
  return Status::OK();
}

double TusSearch::ScoreCandidate(const std::vector<ColumnProfile>& qcols,
                                 size_t query_column,
                                 const std::vector<ColumnProfile>& ccols) const {
  std::vector<ColumnPair> pairs;
  for (size_t q = 0; q < qcols.size(); ++q) {
    for (size_t c = 0; c < ccols.size(); ++c) {
      double u = Unionability(qcols[q], ccols[c]);
      if (u >= params_.min_column_unionability) {
        pairs.push_back(
            {static_cast<uint32_t>(q), static_cast<uint32_t>(c), u});
      }
    }
  }
  SortByUnionability(&pairs);
  std::vector<uint8_t> used;
  return GreedyMatchMean(pairs, qcols.size(), ccols.size(), query_column,
                         &used);
}

double TusSearch::ScoreWithEvidence(const std::vector<ColumnProfile>& qcols,
                                    size_t query_column,
                                    const CandidateEvidence& ev,
                                    const std::vector<ColumnProfile>& ccols,
                                    MatchScratch* scratch,
                                    uint64_t* exact_cosines) const {
  const double min_u = params_.min_column_unionability;
  std::vector<ColumnPair>& pairs = scratch->pairs;
  pairs.clear();
  for (size_t q = 0; q < qcols.size(); ++q) {
    for (size_t c = 0; c < ccols.size(); ++c) {
      double u = 0.0;  // Unionability of a column without tokens
      if (!qcols[q].tokens.empty() && !ccols[c].tokens.empty()) {
        const PairBound b =
            BoundPair(qcols[q], ccols[c], ev.hits[q * ev.ncols + c]);
        u = b.exact;
        // u_nl <= nl_bound: it can change the pair's unionability, or its
        // place in the matching, only where the bound beats u and clears
        // the threshold.
        if (b.nl_bound > u && b.nl_bound >= min_u) {
          ++*exact_cosines;
          u = std::max(u, std::min(CosineSimilarity(qcols[q].embedding,
                                                    ccols[c].embedding),
                                   1.0));
        }
      }
      if (u >= min_u) {
        pairs.push_back(
            {static_cast<uint32_t>(q), static_cast<uint32_t>(c), u});
      }
    }
  }
  SortByUnionability(&pairs);
  return GreedyMatchMean(pairs, qcols.size(), ccols.size(), query_column,
                         &scratch->used);
}

double TusSearch::CandidateUpperBound(const std::vector<ColumnProfile>& qcols,
                                      size_t query_column,
                                      const CandidateEvidence& ev,
                                      const std::vector<ColumnProfile>& ccols)
    const {
  const size_t nq = qcols.size();
  size_t tokenized_cols = 0;
  for (const ColumnProfile& cc : ccols) {
    if (!cc.tokens.empty()) ++tokenized_cols;
  }
  // No tokenized candidate column — nothing can pair at all.
  if (tokenized_cols == 0) return 0.0;
  // Query column q's best pair bound among pairs that clear the threshold;
  // pairs below it never enter the greedy alignment.
  auto best_pair = [&](size_t q) {
    double ub = kNoPair;
    if (qcols[q].tokens.empty()) return ub;
    for (size_t c = 0; c < ccols.size(); ++c) {
      if (ccols[c].tokens.empty()) continue;
      const PairBound b =
          BoundPair(qcols[q], ccols[c], ev.hits[q * ev.ncols + c]);
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
  auto pit = profiles_.find(table_name);
  if (pit == profiles_.end()) return 0.0;  // not indexed: cannot score
  const std::vector<ColumnProfile>& ccols = pit->second;
  std::vector<ColumnProfile> qcols;
  for (size_t c = 0; c < query.table->num_columns(); ++c) {
    qcols.push_back(ProfileColumn(*query.table, c));
  }
  // Exact per-pair intersection counts, mirroring what Search()'s walk of
  // the per-column postings accumulates (column tokens are distinct, so
  // each query token contributes at most 1 per pair).
  CandidateEvidence ev;
  ev.ncols = ccols.size();
  ev.hits.assign(qcols.size() * ccols.size(), 0);
  for (size_t c = 0; c < ccols.size(); ++c) {
    std::unordered_set<std::string_view> ctoks(ccols[c].tokens.begin(),
                                               ccols[c].tokens.end());
    for (size_t q = 0; q < qcols.size(); ++q) {
      for (const std::string& tok : qcols[q].tokens) {
        if (ctoks.count(tok) != 0) ++ev.hits[q * ev.ncols + c];
      }
    }
  }
  return CandidateUpperBound(qcols, query.query_column, ev, ccols);
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
  std::vector<ColumnProfile> qcols;
  for (size_t c = 0; c < query.table->num_columns(); ++c) {
    qcols.push_back(ProfileColumn(*query.table, c));
  }

  // Candidate generation: tables sharing a token or a KB type with any
  // query column. The walk over the per-column postings accumulates the
  // exact per-pair intersection counts |A_q ∩ B_c| as a side effect — the
  // cascade's stage-0 evidence comes for free from this pass (postings are
  // deduplicated per column, so each (query token, pair) counts once).
  std::unordered_map<std::string, CandidateEvidence> candidates;
  auto evidence = [&](const std::string& tname) -> CandidateEvidence* {
    CandidateEvidence& ev = candidates[tname];
    if (ev.hits.empty()) {
      auto pit = profiles_.find(tname);
      if (pit == profiles_.end()) return nullptr;  // unreachable: same build
      ev.ncols = pit->second.size();
      ev.hits.assign(qcols.size() * ev.ncols, 0);
    }
    return &ev;
  };
  for (size_t q = 0; q < qcols.size(); ++q) {
    for (const std::string& tok : qcols[q].tokens) {
      auto it = token_index_.find(tok);
      if (it == token_index_.end()) continue;
      for (const auto& [tname, col] : it->second) {
        CandidateEvidence* ev = evidence(tname);
        if (ev != nullptr) ++ev->hits[q * ev->ncols + col];
      }
    }
    for (const auto& [type, conf] : qcols[q].types) {
      (void)conf;
      auto it = type_index_.find(type);
      if (it == type_index_.end()) continue;
      for (const std::string& tname : it->second) {
        evidence(tname);
      }
    }
  }

  if (search_mode_ == SearchMode::kExhaustive) {
    std::vector<DiscoveryHit> hits;
    CascadeStats stats;
    for (const auto& [cand_name, ev] : candidates) {
      (void)ev;
      if (query.cancel != nullptr && query.cancel->Cancelled()) {
        return Status::DeadlineExceeded("tus exhaustive scan cancelled");
      }
      if (cand_name == query.table->name()) continue;
      auto it = profiles_.find(cand_name);
      if (it == profiles_.end()) {
        return Status::Internal("tus index missing profiles for '" +
                                cand_name + "'");
      }
      ++stats.candidates_total;
      ++stats.scored_exact;
      double score = ScoreCandidate(qcols, query.query_column, it->second);
      if (score > 0.0) hits.push_back({cand_name, score});
    }
    PublishCascadeStats(obs_, name(), stats);
    return RankHits(std::move(hits), query.k);
  }

  // Cascade: stage-0 index-accelerated bounds from the per-pair hit
  // counts, then bounded top-k over the exact greedy-alignment scorer.
  std::vector<BoundedCandidate> bounded;
  bounded.reserve(candidates.size());
  for (const auto& [cand_name, ev] : candidates) {
    if (cand_name == query.table->name()) continue;
    auto pit = profiles_.find(cand_name);
    if (pit == profiles_.end()) {
      return Status::Internal("tus index missing profiles for '" + cand_name +
                              "'");
    }
    bounded.push_back({cand_name, CandidateUpperBound(qcols, query.query_column,
                                                      ev, pit->second)});
  }
  // Every bounded candidate has profiles and evidence (checked above).
  MatchScratch scratch;
  uint64_t exact_cosines = 0;
  ExactScorer scorer = [&](const BoundedCandidate& cand) {
    return ScoreWithEvidence(qcols, query.query_column,
                             candidates.at(cand.table_name),
                             profiles_.at(cand.table_name), &scratch,
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
