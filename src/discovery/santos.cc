#include "discovery/santos.h"

#include <algorithm>
#include <memory>
#include <string_view>
#include <unordered_set>

#include "discovery/cascade.h"
#include "snapshot/bytes.h"

namespace dialite {

SantosSearch::SantosSearch(Params params, const KnowledgeBase* kb)
    : params_(params), kb_(kb), annotator_(kb) {}

SantosSearch::TableSemantics SantosSearch::Annotate(const Table& table) const {
  TableSemantics sem;
  sem.columns.resize(table.num_columns());
  sem.anchored_relations.resize(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const std::vector<std::string> values = ColumnDistinctCsv(table.column(c));
    if (annotator_.ValuesCoverage(values) < params_.min_coverage) continue;
    for (const Annotation& a :
         annotator_.AnnotateValues(values, params_.max_types_per_column)) {
      sem.columns[c].types[a.label] = a.score;
    }
  }
  for (size_t a = 0; a < table.num_columns(); ++a) {
    if (sem.columns[a].types.empty()) continue;
    for (size_t b = 0; b < table.num_columns(); ++b) {
      if (a == b || sem.columns[b].types.empty()) continue;
      for (const Annotation& rel : annotator_.AnnotateColumnPair(table, a, b)) {
        double& best = sem.relations[rel.label];
        best = std::max(best, rel.score);
        double& anchored = sem.anchored_relations[a][rel.label];
        anchored = std::max(anchored, rel.score);
      }
    }
  }
  return sem;
}

SantosSearch::BoundProfile SantosSearch::MakeBoundProfile(
    const TableSemantics& sem) {
  BoundProfile prof;
  for (const ColumnSemantics& col : sem.columns) {
    for (const auto& [type, conf] : col.types) {
      double& best = prof.type_max_conf[type];
      best = std::max(best, conf);
    }
  }
  for (const auto& [label, conf] : sem.relations) {
    prof.max_rel_conf = std::max(prof.max_rel_conf, conf);
  }
  return prof;
}

void SantosSearch::Install(const DataLake& lake,
                           std::vector<TableSemantics> sems,
                           std::vector<uint8_t> indexed) {
  type_index_.clear();
  bounds_.clear();
  bounds_.reserve(sems.size());
  for (TableId t = 0; t < sems.size(); ++t) {
    std::unordered_set<std::string_view> types_seen;
    for (const ColumnSemantics& col : sems[t].columns) {
      for (const auto& [type, conf] : col.types) {
        if (types_seen.insert(type).second) type_index_[type].push_back(t);
      }
    }
    bounds_.push_back(MakeBoundProfile(sems[t]));
  }
  semantics_ = std::move(sems);
  indexed_ = std::move(indexed);
  lake_ = &lake;
}

Status SantosSearch::BuildIndex(const DataLake& lake) {
  const std::vector<const Table*> tables = lake.tables();
  // Compute phase: KB annotation per table (the expensive part — column
  // types, pairwise relationships) runs across the worker pool.
  std::vector<TableSemantics> sems(tables.size());
  ForEachTableIndex(num_threads_, tables.size(),
                    [&](size_t i) { sems[i] = Annotate(*tables[i]); }, obs_);
  // Merge phase: serial, in lake order.
  Install(lake, std::move(sems), std::vector<uint8_t>(tables.size(), 1));
  ObsAdd(obs_, "discover.santos.build.tables", tables.size());
  ObsSet(obs_, "discover.santos.index.types", type_index_.size());
  return Status::OK();
}

namespace {

constexpr uint32_t kSantosPayloadVersion = 1;

void WriteLabelConfMap(const std::map<std::string, double>& m,
                       BinaryWriter* w) {
  w->U64(m.size());
  for (const auto& [label, conf] : m) {
    w->Str(label);
    w->F64(conf);
  }
}

Status ReadLabelConfMap(BinaryReader* r, std::map<std::string, double>* m) {
  uint64_t n = 0;
  DIALITE_RETURN_IF_ERROR(r->U64(&n));
  if (n > r->remaining()) {
    return Status::ParseError("santos label map count overruns the payload");
  }
  for (uint64_t i = 0; i < n; ++i) {
    std::string label;
    DIALITE_RETURN_IF_ERROR(r->Str(&label));
    double conf = 0.0;
    DIALITE_RETURN_IF_ERROR(r->F64(&conf));
    (*m)[std::move(label)] = conf;
  }
  return Status::OK();
}

}  // namespace

Status SantosSearch::SavePayload(BinaryWriter* w) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  w->Str(name());
  w->U32(kSantosPayloadVersion);
  // Tables in sorted name order so save -> load -> save is byte-identical.
  const std::vector<TableId> ids = IndexedIdsByName(*lake_, indexed_);
  w->U64(ids.size());
  for (TableId t : ids) {
    const TableSemantics& sem = semantics_[t];
    w->Str(lake_->table_names()[t]);
    w->U64(sem.columns.size());
    for (const ColumnSemantics& col : sem.columns) {
      WriteLabelConfMap(col.types, w);
    }
    WriteLabelConfMap(sem.relations, w);
    for (const std::map<std::string, double>& anchored :
         sem.anchored_relations) {
      WriteLabelConfMap(anchored, w);
    }
  }
  return Status::OK();
}

Status SantosSearch::LoadPayload(BinaryReader* r, const DataLake& lake) {
  std::string algo;
  DIALITE_RETURN_IF_ERROR(r->Str(&algo));
  uint32_t version = 0;
  DIALITE_RETURN_IF_ERROR(r->U32(&version));
  if (algo != name() || version != kSantosPayloadVersion) {
    return Status::ParseError("not a santos v1 index payload");
  }
  uint64_t num_tables = 0;
  DIALITE_RETURN_IF_ERROR(r->U64(&num_tables));
  if (num_tables > r->remaining()) {
    return Status::ParseError("santos table count overruns the payload");
  }
  std::vector<TableSemantics> sems(lake.size());
  std::vector<uint8_t> indexed(lake.size(), 0);
  for (uint64_t n = 0; n < num_tables; ++n) {
    std::string table;
    DIALITE_RETURN_IF_ERROR(r->Str(&table));
    Result<TableId> t = ClaimPayloadTable(lake, table, name(), &indexed);
    if (!t.ok()) return t.status();
    uint64_t ncols = 0;
    DIALITE_RETURN_IF_ERROR(r->U64(&ncols));
    if (ncols > r->remaining()) {
      return Status::ParseError("santos column count overruns the payload");
    }
    TableSemantics& sem = sems[*t];
    sem.columns.resize(static_cast<size_t>(ncols));
    sem.anchored_relations.resize(static_cast<size_t>(ncols));
    for (uint64_t c = 0; c < ncols; ++c) {
      DIALITE_RETURN_IF_ERROR(ReadLabelConfMap(r, &sem.columns[c].types));
    }
    DIALITE_RETURN_IF_ERROR(ReadLabelConfMap(r, &sem.relations));
    for (uint64_t c = 0; c < ncols; ++c) {
      DIALITE_RETURN_IF_ERROR(ReadLabelConfMap(r, &sem.anchored_relations[c]));
    }
  }
  // The same derivation BuildIndex's merge phase runs.
  Install(lake, std::move(sems), std::move(indexed));
  return Status::OK();
}

double SantosSearch::ScoreCandidate(const TableSemantics& qsem,
                                    size_t query_column,
                                    const TableSemantics& csem) const {
  const ColumnSemantics& intent = qsem.columns[query_column];

  // Intent column must find a semantically matching candidate column.
  double intent_match = 0.0;
  for (const ColumnSemantics& col : csem.columns) {
    double m = 0.0;
    for (const auto& [type, qconf] : intent.types) {
      auto it = col.types.find(type);
      if (it != col.types.end()) m += qconf * it->second;
    }
    intent_match = std::max(intent_match, m);
  }
  if (intent_match <= 0.0) return 0.0;

  // Relationship overlap, anchored at the query's intent column.
  double rel_score = 0.0;
  for (const auto& [label, qconf] : qsem.anchored_relations[query_column]) {
    auto it = csem.relations.find(label);
    if (it != csem.relations.end()) rel_score += qconf * it->second;
  }

  // Other-column type overlap (types matched anywhere, intent excluded).
  double col_score = 0.0;
  for (size_t c = 0; c < qsem.columns.size(); ++c) {
    if (c == query_column) continue;
    double best = 0.0;
    for (const ColumnSemantics& col : csem.columns) {
      double m = 0.0;
      for (const auto& [type, qconf] : qsem.columns[c].types) {
        auto it = col.types.find(type);
        if (it != col.types.end()) m += qconf * it->second;
      }
      best = std::max(best, m);
    }
    col_score += best;
  }

  return intent_match * (1.0 + params_.relationship_weight * rel_score +
                         params_.column_weight * col_score);
}

double SantosSearch::CandidateUpperBound(const TableSemantics& qsem,
                                         size_t query_column,
                                         const BoundProfile& prof) const {
  // Each sum below mirrors the matching ScoreCandidate sum: same ordered
  // type iteration, each per-type confidence replaced by the table-wide
  // maximum. Term-wise >= with identical accumulation structure keeps the
  // bound admissible even under fp rounding.
  const ColumnSemantics& intent = qsem.columns[query_column];
  double intent_ub = 0.0;
  for (const auto& [type, qconf] : intent.types) {
    auto it = prof.type_max_conf.find(type);
    if (it != prof.type_max_conf.end()) intent_ub += qconf * it->second;
  }
  if (intent_ub <= 0.0) return 0.0;

  double rel_ub = 0.0;
  for (const auto& [label, qconf] : qsem.anchored_relations[query_column]) {
    rel_ub += qconf * prof.max_rel_conf;
  }

  double col_ub = 0.0;
  for (size_t c = 0; c < qsem.columns.size(); ++c) {
    if (c == query_column) continue;
    for (const auto& [type, qconf] : qsem.columns[c].types) {
      auto it = prof.type_max_conf.find(type);
      if (it != prof.type_max_conf.end()) col_ub += qconf * it->second;
    }
  }

  return intent_ub * (1.0 + params_.relationship_weight * rel_ub +
                      params_.column_weight * col_ub);
}

Result<double> SantosSearch::ScoreUpperBound(
    const DiscoveryQuery& query, const std::string& table_name) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  if (query.table == nullptr) {
    return Status::InvalidArgument("query table is null");
  }
  if (query.query_column >= query.table->num_columns()) {
    return Status::OutOfRange("query column out of range");
  }
  const TableId t = lake_->IdOf(table_name);
  if (t >= indexed_.size() || !indexed_[t]) {
    return Status::NotFound("no santos bound profile for '" + table_name +
                            "'");
  }
  TableSemantics qsem = Annotate(*query.table);
  if (qsem.columns[query.query_column].types.empty()) return 0.0;
  return CandidateUpperBound(qsem, query.query_column, bounds_[t]);
}

Result<std::vector<DiscoveryHit>> SantosSearch::Search(
    const DiscoveryQuery& query) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  if (query.table == nullptr) {
    return Status::InvalidArgument("query table is null");
  }
  if (query.query_column >= query.table->num_columns()) {
    return Status::OutOfRange("query column out of range");
  }
  TableSemantics qsem = Annotate(*query.table);
  const ColumnSemantics& intent = qsem.columns[query.query_column];
  if (intent.types.empty()) {
    // Nothing the KB understands in the intent column: no semantic matches.
    return std::vector<DiscoveryHit>{};
  }

  // Candidate generation from the inverted type index, deduplicated, in
  // id order, without the query's own table.
  std::vector<TableId> candidates;
  for (const auto& [type, conf] : intent.types) {
    auto it = type_index_.find(type);
    if (it == type_index_.end()) continue;
    candidates.insert(candidates.end(), it->second.begin(), it->second.end());
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  const TableId self = lake_->IdOf(query.table->name());
  candidates.erase(std::remove(candidates.begin(), candidates.end(), self),
                   candidates.end());
  const std::vector<std::string>& names = lake_->table_names();

  if (search_mode_ == SearchMode::kExhaustive) {
    std::vector<DiscoveryHit> hits;
    CascadeStats stats;
    for (TableId t : candidates) {
      if (query.cancel != nullptr && query.cancel->Cancelled()) {
        return Status::DeadlineExceeded("santos exhaustive scan cancelled");
      }
      ++stats.candidates_total;
      ++stats.scored_exact;
      double score = ScoreCandidate(qsem, query.query_column, semantics_[t]);
      if (score > 0.0) hits.push_back({names[t], score});
    }
    PublishCascadeStats(obs_, name(), stats);
    return RankHits(std::move(hits), query.k);
  }

  // Cascade: stage-0 bounds from the per-table profiles, then bounded
  // top-k over the exact scorer (same arithmetic as the exhaustive path).
  std::vector<BoundedCandidate> bounded;
  bounded.reserve(candidates.size());
  for (TableId t : candidates) {
    bounded.push_back(
        {names[t], CandidateUpperBound(qsem, query.query_column, bounds_[t]),
         t});
  }
  ExactScorer scorer = [&](const BoundedCandidate& cand) {
    return ScoreCandidate(qsem, query.query_column, semantics_[cand.table]);
  };
  CascadeStats stats;
  std::vector<DiscoveryHit> top =
      RunBoundedTopK(std::move(bounded), query.k, scorer, &stats, query.cancel);
  PublishCascadeStats(obs_, name(), stats);
  if (stats.cancelled) {
    return Status::DeadlineExceeded("santos search cancelled mid-cascade");
  }
  return top;
}

}  // namespace dialite
