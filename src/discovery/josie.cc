#include "discovery/josie.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "discovery/cascade.h"
#include "snapshot/bytes.h"

namespace dialite {

Status JosieSearch::BuildIndex(const DataLake& lake) {
  lake_ = &lake;
  index_.Build(lake, params_.min_distinct, num_threads_, obs_);
  ObsAdd(obs_, "discover.josie.build.tables", lake.size());
  ObsSet(obs_, "discover.josie.index.columns", index_.columns().size());
  ObsSet(obs_, "discover.josie.index.tokens", index_.num_tokens());
  return Status::OK();
}

namespace {
constexpr uint32_t kJosiePayloadVersion = 1;
}  // namespace

Status JosieSearch::SavePayload(BinaryWriter* w) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  w->Str(name());
  w->U32(kJosiePayloadVersion);
  index_.Save(*lake_, w);
  return Status::OK();
}

Status JosieSearch::LoadPayload(BinaryReader* r, const DataLake& lake) {
  std::string algo;
  DIALITE_RETURN_IF_ERROR(r->Str(&algo));
  uint32_t version = 0;
  DIALITE_RETURN_IF_ERROR(r->U32(&version));
  if (algo != name() || version != kJosiePayloadVersion) {
    return Status::ParseError("not a josie v1 index payload");
  }
  DIALITE_RETURN_IF_ERROR(index_.Load(r, lake));
  lake_ = &lake;
  return Status::OK();
}

std::vector<DiscoveryHit> JosieSearch::AggregateOverlaps(
    const std::unordered_map<uint32_t, size_t>& overlap, TableId self,
    size_t k) const {
  // Per-table best column overlap; a table enters `touched` with its first
  // counted column (counts are at least 1).
  std::vector<size_t> best(lake_->size(), 0);
  std::vector<TableId> touched;
  for (const auto& [id, n] : overlap) {
    if (n < params_.min_overlap) continue;
    const TableId t = index_.columns()[id].table;
    if (t == self) continue;
    if (best[t] == 0) touched.push_back(t);
    best[t] = std::max(best[t], n);
  }
  std::vector<DiscoveryHit> hits;
  hits.reserve(touched.size());
  for (TableId t : touched) {
    hits.push_back({lake_->table_names()[t], static_cast<double>(best[t])});
  }
  return RankHits(std::move(hits), k);
}

double JosieSearch::ScoreTableExact(
    const std::unordered_set<std::string_view>& qset, TableId t) const {
  const std::vector<uint32_t>& ids = index_.ColumnsOf(t);
  if (ids.empty()) return 0.0;
  std::shared_ptr<const ColumnTokenSets> ctokens =
      lake_->sketch_cache().TokenSets(lake_->table(t));
  size_t best = 0;
  for (uint32_t id : ids) {
    const std::vector<std::string>& xtoks =
        (*ctokens)[index_.columns()[id].column];
    size_t n = 0;
    for (const std::string& tok : xtoks) {
      if (qset.count(tok) != 0) ++n;
    }
    if (n < params_.min_overlap) continue;
    best = std::max(best, n);
  }
  return static_cast<double>(best);
}

Result<double> JosieSearch::ScoreUpperBound(
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
  const TableId t = lake_->IdOf(table_name);
  const std::vector<uint32_t>& ids = index_.ColumnsOf(t);
  if (ids.empty()) return 0.0;  // not indexed: cannot score
  const Table& cand = lake_->table(t);
  size_t ub = 0;
  for (uint32_t id : ids) {
    size_t x = lake_->sketch_cache().DistinctCount(
        cand, index_.columns()[id].column);
    ub = std::max(ub, std::min(qtokens.size(), x));
  }
  if (ub < params_.min_overlap) return 0.0;
  return static_cast<double>(ub);
}

Result<std::vector<DiscoveryHit>> JosieSearch::Search(
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

  if (search_mode_ == SearchMode::kExhaustive) {
    // Merge every posting list, accumulating per-column overlap counts.
    std::unordered_map<uint32_t, size_t> overlap;
    CascadeStats stats;
    std::vector<const std::vector<uint32_t>*> lists;
    for (const std::string& tok : qtokens) {
      const std::vector<uint32_t>* ids = index_.Find(tok);
      if (ids != nullptr) lists.push_back(ids);
    }
    CancelPoller poller(query.cancel);
    for (const auto* ids : lists) {
      if (poller.Cancelled()) {
        return Status::DeadlineExceeded("josie exhaustive scan cancelled");
      }
      for (uint32_t id : *ids) ++overlap[id];
    }
    std::vector<DiscoveryHit> hits = AggregateOverlaps(
        overlap, lake_->IdOf(query.table->name()), query.k);
    stats.candidates_total = overlap.size();
    stats.scored_exact = overlap.size();
    PublishCascadeStats(obs_, name(), stats);
    return hits;
  }

  // Cascade: merge posting lists rarest-first. After j lists, an unseen
  // column's final overlap is at most the number of unread lists, so the
  // merge stops once that remainder drops strictly below the k-th best
  // per-table partial count — no unseen table can then reach the top-k.
  struct ListRef {
    const std::string* token;
    const std::vector<uint32_t>* ids;
  };
  std::vector<ListRef> lists;
  lists.reserve(qtokens.size());
  for (const std::string& tok : qtokens) {
    const std::vector<uint32_t>* ids = index_.Find(tok);
    if (ids == nullptr) continue;
    lists.push_back({&tok, ids});
  }
  std::sort(lists.begin(), lists.end(), [](const ListRef& a, const ListRef& b) {
    if (a.ids->size() != b.ids->size()) return a.ids->size() < b.ids->size();
    return *a.token < *b.token;
  });

  // Dense per-column partial counts and per-table bests: the merge's inner
  // loop touches flat arrays only — no string hashing per posting entry.
  std::vector<size_t> partial(index_.columns().size(), 0);
  std::vector<size_t> table_best(lake_->size(), 0);
  std::vector<TableId> touched;  // ids of tables seen so far
  const TableId self_id = lake_->IdOf(query.table->name());
  size_t processed = 0;
  size_t next_check = 0;
  for (; processed < lists.size(); ++processed) {
    const size_t unread = lists.size() - processed;
    if (query.k > 0 && touched.size() >= query.k && processed >= next_check) {
      std::vector<size_t> bests;
      bests.reserve(touched.size());
      for (uint32_t t : touched) bests.push_back(table_best[t]);
      std::nth_element(bests.begin(), bests.begin() + (query.k - 1),
                       bests.end(), std::greater<size_t>());
      const size_t kth = bests[query.k - 1];
      if (unread < kth) break;
      // The k-th best only grows while unread falls by one per list, so
      // the stop condition cannot hold before unread reaches kth - 1 —
      // skip the scan until then instead of re-ranking per list.
      next_check = processed + (unread - kth) + 1;
    }
    for (uint32_t id : *lists[processed].ids) {
      const size_t n = ++partial[id];
      const TableId tid = index_.columns()[id].table;
      if (tid == self_id) continue;
      if (table_best[tid] == 0) touched.push_back(tid);
      table_best[tid] = std::max(table_best[tid], n);
    }
  }
  const size_t remaining = lists.size() - processed;
  ObsAdd(obs_, "discover.josie.cascade.lists_total", lists.size());
  ObsAdd(obs_, "discover.josie.cascade.lists_skipped", remaining);

  // Stage-0 bounds: best partial + unread lists, admissible for every
  // column of a seen table (unseen columns are capped by `remaining` and
  // any seen column has partial >= 1).
  std::vector<BoundedCandidate> bounded;
  bounded.reserve(touched.size());
  for (uint32_t t : touched) {
    const size_t ub = table_best[t] + remaining;
    bounded.push_back({lake_->table_names()[t],
                       ub < params_.min_overlap ? 0.0
                                                : static_cast<double>(ub),
                       t});
  }
  std::unordered_set<std::string_view> qset;
  ExactScorer scorer;
  if (remaining == 0) {
    // The merge ran to completion, so each table's best partial count IS
    // its exact best column overlap — same integer the exhaustive merge
    // aggregates. No need to re-probe the candidate's token sets.
    scorer = [&](const BoundedCandidate& cand) {
      const size_t n = table_best[cand.table];
      return n < params_.min_overlap ? 0.0 : static_cast<double>(n);
    };
  } else {
    // Early termination left some lists unread: partial counts undercount,
    // so survivors are verified against the data.
    qset.insert(qtokens.begin(), qtokens.end());
    scorer = [&](const BoundedCandidate& cand) {
      return ScoreTableExact(qset, cand.table);
    };
  }
  CascadeStats stats;
  std::vector<DiscoveryHit> top =
      RunBoundedTopK(std::move(bounded), query.k, scorer, &stats, query.cancel);
  PublishCascadeStats(obs_, name(), stats);
  if (stats.cancelled) {
    return Status::DeadlineExceeded("josie search cancelled mid-cascade");
  }
  return top;
}

Result<std::vector<std::vector<DiscoveryHit>>> JosieSearch::SearchBatch(
    const std::vector<DiscoveryQuery>& queries) const {
  if (lake_ == nullptr) return Status::Internal("BuildIndex not called");
  std::vector<std::vector<std::string>> qtokens(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const DiscoveryQuery& q = queries[qi];
    if (q.table == nullptr) {
      return Status::InvalidArgument("query table is null");
    }
    if (q.query_column >= q.table->num_columns()) {
      return Status::OutOfRange("query column out of range");
    }
    qtokens[qi] = ColumnTokens(q.table->column(q.query_column));
  }

  // One pass over the batch's distinct token universe: each posting list is
  // located in the inverted index once, then scattered to every query that
  // contains the token.
  std::unordered_map<std::string_view, std::vector<size_t>> token_queries;
  size_t lookups_requested = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    lookups_requested += qtokens[qi].size();
    for (const std::string& tok : qtokens[qi]) {
      token_queries[tok].push_back(qi);
    }
  }
  std::vector<std::unordered_map<uint32_t, size_t>> overlap(queries.size());
  for (const auto& [tok, qids] : token_queries) {
    const std::vector<uint32_t>* ids = index_.Find(std::string(tok));
    if (ids == nullptr) continue;
    for (size_t qi : qids) {
      for (uint32_t id : *ids) ++overlap[qi][id];
    }
  }
  ObsAdd(obs_, "discover.josie.batch.queries", queries.size());
  ObsAdd(obs_, "discover.josie.batch.tokens_requested", lookups_requested);
  ObsAdd(obs_, "discover.josie.batch.lookups_saved",
         lookups_requested - token_queries.size());

  std::vector<std::vector<DiscoveryHit>> results;
  results.reserve(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    results.push_back(AggregateOverlaps(
        overlap[qi], lake_->IdOf(queries[qi].table->name()), queries[qi].k));
  }
  return results;
}

}  // namespace dialite
